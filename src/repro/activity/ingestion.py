"""Ingestion and evacuation activities.

Clusters ingest tens of terabytes per hour of new data and evacuate
machines before maintenance (Section 4.3).  Neither goes through the
scheduler, so only the resource tracker can make the scheduler aware of
the load — that is the Figure 6 microbenchmark.

An activity is a set of fluid flows pinned to a machine:

- **ingestion**: data arrives over the network and is written to disk
  (``netin`` + ``diskw``);
- **evacuation**: data is read from disk and re-replicated elsewhere
  (``diskr`` + ``netout``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sim.fluid import FlowSpec

__all__ = ["ClusterActivity", "ingestion", "evacuation"]

_activity_ids = itertools.count()


@dataclass
class ClusterActivity:
    """One background activity on one machine.

    ``size_mb`` bytes move at up to ``rate_mbps`` starting at
    ``start_time``; the fluid simulator stretches the duration under
    contention exactly as it does for tasks.
    """

    machine_id: int
    start_time: float
    size_mb: float
    rate_mbps: float
    kind: str  # "ingest" or "evacuate"
    activity_id: int = field(default_factory=lambda: next(_activity_ids))
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("ingest", "evacuate"):
            raise ValueError(f"unknown activity kind {self.kind!r}")
        if self.size_mb <= 0 or self.rate_mbps <= 0:
            raise ValueError("activity size and rate must be positive")

    def flow_specs(self) -> List[FlowSpec]:
        tag = ("activity", self.activity_id)
        if self.kind == "ingest":
            dims: Tuple[Tuple[int, str], ...] = (
                (self.machine_id, "netin"),
                (self.machine_id, "diskw"),
            )
        else:
            dims = (
                (self.machine_id, "diskr"),
                (self.machine_id, "netout"),
            )
        return [
            FlowSpec(
                work=self.size_mb,
                nominal_rate=self.rate_mbps,
                slots=dims,
                tag=tag,
            )
        ]


def ingestion(
    machine_id: int, start_time: float, size_mb: float, rate_mbps: float
) -> ClusterActivity:
    """New data streaming onto a machine's disk."""
    return ClusterActivity(machine_id, start_time, size_mb, rate_mbps, "ingest")


def evacuation(
    machine_id: int, start_time: float, size_mb: float, rate_mbps: float
) -> ClusterActivity:
    """Data being drained off a machine ahead of maintenance."""
    return ClusterActivity(
        machine_id, start_time, size_mb, rate_mbps, "evacuate"
    )
