"""The cluster: machines + topology + block store."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.blockstore import BlockStore
from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.cluster.topology import Topology
from repro.resources import (
    DEFAULT_MODEL,
    FB_MACHINE_CAPACITY,
    ResourceModel,
    ResourceVector,
)

__all__ = ["Cluster"]


class Cluster:
    """A homogeneous cluster of machines.

    Parameters
    ----------
    num_machines:
        Machine count (the paper deploys on 250; simulations replay a
        thousands-machine Facebook cluster).
    machine_capacity:
        Per-machine capacity vector; defaults to the Facebook profile.
    machines_per_rack / oversubscription:
        Topology parameters.
    seed:
        Seeds the block store's replica placement.
    """

    def __init__(
        self,
        num_machines: int,
        machine_capacity: Optional[ResourceVector] = None,
        machines_per_rack: int = 16,
        oversubscription: float = 1.33,
        replication: int = 3,
        seed: int = 0,
        machine_capacities: Optional[Sequence[ResourceVector]] = None,
    ):
        if machine_capacities is not None:
            capacities = list(machine_capacities)
            if len(capacities) != num_machines:
                raise ValueError(
                    f"got {len(capacities)} capacities for "
                    f"{num_machines} machines"
                )
        else:
            if machine_capacity is None:
                machine_capacity = FB_MACHINE_CAPACITY
            capacities = [machine_capacity] * num_machines
        self.model: ResourceModel = capacities[0].model
        self.topology = Topology(
            num_machines,
            machines_per_rack=machines_per_rack,
            oversubscription=oversubscription,
        )
        #: the structure-of-arrays state plane; machines are row views
        self.state = ClusterState.from_capacities(capacities)
        self.machines: List[Machine] = [
            Machine(i, cap, state=self.state, row=i)
            for i, cap in enumerate(capacities)
        ]
        self.blockstore = BlockStore(
            self.topology,
            replication=replication,
            rng=np.random.default_rng(seed),
        )
        self._total_capacity: Optional[ResourceVector] = None
        self._memory_slots: Dict[float, Tuple[Tuple[int, ...], int]] = {}

    # -- aggregate views -------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return len(self.machines)

    def machine(self, machine_id: int) -> Machine:
        return self.machines[machine_id]

    def total_capacity(self) -> ResourceVector:
        """Sum of all machine capacities.

        Capacities are fixed at construction, so the sum is computed once
        and cached; a fresh vector is returned each call so callers may
        mutate their copy freely.
        """
        if self._total_capacity is None:
            total = ResourceVector.zeros_like(self.machines[0].capacity)
            for m in self.machines:
                total.add_inplace(m.capacity)
            self._total_capacity = total
        return self._total_capacity.copy()

    def memory_slots(
        self, slot_mem_gb: float
    ) -> Tuple[Tuple[int, ...], int]:
        """Memory-defined slots of every machine, and their sum — what
        the slot schedulers carve machines into.  A machine holds
        ``mem // slot_mem_gb`` slots, at least one; like the capacities
        the counts never change, so they are computed once per slot size.
        """
        slots = self._memory_slots.get(slot_mem_gb)
        if slots is None:
            counts = tuple(
                max(1, int(m.capacity.get("mem") // slot_mem_gb))
                for m in self.machines
            )
            slots = self._memory_slots[slot_mem_gb] = (counts, sum(counts))
        return slots

    def total_allocated(self) -> ResourceVector:
        total = self.model.zeros()
        for m in self.machines:
            total.add_inplace(m.allocated)
        return total

    def machine_capacity(self) -> ResourceVector:
        """Reference machine capacity — the first machine's.

        Used as a normalization scale; with heterogeneous machines,
        per-machine calculations should use
        ``cluster.machine(i).capacity`` instead.
        """
        return self.machines[0].capacity

    def total_running_tasks(self) -> int:
        return int(self.state.num_running.sum())

    def __repr__(self) -> str:
        return (
            f"Cluster(machines={self.num_machines}, "
            f"racks={self.topology.num_racks})"
        )
