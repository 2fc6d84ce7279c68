"""Rack topology.

The clusters in the paper are folded-CLOS networks with small
over-subscription between racks (Table 1: <=2 for Bing, 5 for Facebook;
the testbed uses 1.33x).  The paper's scheduler only models the access
link (Section 4.1), but the topology still matters for locality: a map
task prefers a machine holding a replica of its input, then a machine in
the same rack, then anywhere.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["Topology"]


class Topology:
    """Machines grouped into racks.

    Parameters
    ----------
    num_machines:
        Total machine count.
    machines_per_rack:
        Rack width (the testbed used 16 per rack).
    oversubscription:
        Cross-rack over-subscription factor; exposed for experiments that
        scale the core bandwidth, and used to derive an aggregate
        cross-rack capacity if a core model is wanted.
    """

    def __init__(
        self,
        num_machines: int,
        machines_per_rack: int = 16,
        oversubscription: float = 1.33,
    ):
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        if machines_per_rack <= 0:
            raise ValueError("machines_per_rack must be positive")
        self.num_machines = num_machines
        self.machines_per_rack = machines_per_rack
        self.oversubscription = oversubscription
        self._rack_of: List[int] = [
            m // machines_per_rack for m in range(num_machines)
        ]
        self.num_racks = self._rack_of[-1] + 1
        self._members: Dict[int, List[int]] = {}
        for machine, rack in enumerate(self._rack_of):
            self._members.setdefault(rack, []).append(machine)

    def rack_of(self, machine_id: int) -> int:
        return self._rack_of[machine_id]

    def rack_members(self, rack_id: int) -> List[int]:
        return list(self._members[rack_id])

    def same_rack(self, a: int, b: int) -> bool:
        return self._rack_of[a] == self._rack_of[b]

    def __repr__(self) -> str:
        return (
            f"Topology(machines={self.num_machines}, racks={self.num_racks}, "
            f"oversub={self.oversubscription})"
        )
