"""The resource tracker (Sections 4.1 and 4.3).

A tracker process on every node observes aggregate usage from OS counters
and reports periodically to the cluster-wide resource manager.  This lets
the scheduler:

- reclaim resources idled by over-estimates,
- steer around unforeseen hotspots and *non-job* activity (ingestion,
  evacuation) that never appears in its own allocation ledger.

To avoid reclaiming resources that a freshly-placed task has not ramped up
to yet, the report inflates observed usage with a per-task allowance that
decays linearly over ``ramp_seconds`` (the paper uses 10 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from repro.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.machine import Machine
    from repro.obs.registry import Registry
    from repro.sim.fluid import FlowTable
    from repro.workload.task import Task

__all__ = ["ResourceTracker", "TrackerConfig"]


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker parameters.  The report period is the engine's
    (``EngineConfig.tracker_period``): the engine schedules the reports."""

    ramp_seconds: float = 10.0


class ResourceTracker:
    """Cluster-wide aggregation of per-node usage reports.

    The scheduler-facing view is one ``(machines, dims)`` availability
    plane (:meth:`available_matrix`), maintained like
    ``ClusterState.free_clamped_matrix``: a change of input flags the
    rows it touches — ``report`` all of them, ``note_placement`` /
    ``note_completion`` their machine's, an allocation (seen through
    ``ClusterState.alloc_gen``) those whose rigid floor moved — and the
    next read refreshes exactly the flagged rows.  Nothing moves inside
    a scheduling round, so the plane is built at most once per round.
    """

    def __init__(self, cluster: "Cluster", config: Optional[TrackerConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else TrackerConfig()
        self.last_report_time: float = 0.0
        #: task_id -> (placement time, machine_id, booked demands)
        self._placements: Dict[int, Tuple[float, int, ResourceVector]] = {}
        #: the same records grouped by machine, each group in placement
        #: order (the order the ramp allowance is summed in)
        self._by_machine: List[Dict[int, tuple]] = [
            {} for _ in range(cluster.num_machines)
        ]
        state = cluster.state
        self._rigid_dims = np.flatnonzero(cluster.model.rigid_mask)
        self._plane = np.empty_like(state.capacity)
        self._dirty = np.ones(state.num_machines, dtype=bool)
        self._any_dirty = True
        self._alloc_gen = state.alloc_gen
        self._rigid_seen = state.allocated[:, self._rigid_dims]
        #: report rounds run
        self.reports = 0

    def declare_metrics(self, registry: "Registry") -> None:
        registry.counter(
            "repro_tracker_reports_total",
            "Cluster-wide tracker report rounds",
            lambda: self.reports,
        )
        registry.gauge(
            "repro_tracker_tracked_placements",
            "Live placements the tracker holds ramp-up state for",
            lambda: len(self._placements),
        )

    # -- engine callbacks -----------------------------------------------------
    def note_placement(
        self, task: "Task", machine_id: int, booked: ResourceVector, time: float
    ) -> None:
        if task.task_id in self._placements:
            # a re-placement counts from now: retire the old record so
            # both orders stay the order of the latest placements
            self.note_completion(task)
        record = (time, machine_id, booked)
        self._placements[task.task_id] = record
        self._by_machine[machine_id][task.task_id] = record
        self._dirty[machine_id] = True
        self._any_dirty = True

    def note_completion(self, task: "Task") -> None:
        record = self._placements.pop(task.task_id, None)
        if record is not None:
            machine_id = record[1]
            del self._by_machine[machine_id][task.task_id]
            self._dirty[machine_id] = True
            self._any_dirty = True

    def report(self, time: float, flows: "FlowTable") -> None:
        """Refresh every machine's ``observed_usage`` from ground truth.

        Rigid dimensions come from the machines' true allocations; fluid
        dimensions from the flow table's achieved throughput — which is
        what OS counters would show.  The whole refresh is three matrix
        assignments into the cluster state plane's ``observed`` matrix;
        each machine's ``observed_usage`` vector is a view over its row,
        so the per-machine objects see the report with no rebinding.
        """
        self.last_report_time = time
        self.reports += 1
        throughput = flows.slot_throughput()
        fluid_names = flows.fluid_dim_names()
        model = self.cluster.model
        state = self.cluster.state
        observed = state.observed
        observed[:] = 0.0
        rigid = model.rigid_mask
        observed[:, rigid] = state.allocated[:, rigid]
        for k, name in enumerate(fluid_names):
            observed[:, model.index[name]] = throughput[:, k]
        self._dirty[:] = True
        self._any_dirty = True

    # -- scheduler-facing view ---------------------------------------------------
    def _ramp_rows(self, machine_ids, time: float) -> np.ndarray:
        """Usage headroom still owed to freshly-placed tasks, one row
        per entry of ``machine_ids``: each live placement younger than
        ``ramp_seconds`` contributes ``booked * (1 - age / ramp)``,
        summed in placement order.

        Placement order is also time order (the simulated clock never
        runs back, and a re-placement moves its record to the end), so
        the walk goes newest first and stops at the first record too
        old to contribute; the young ones are then summed oldest first.
        """
        out = np.zeros((len(machine_ids), self.cluster.model.dims))
        ramp = self.config.ramp_seconds
        if ramp <= 0:
            return out
        by_machine = self._by_machine
        for k, machine_id in enumerate(machine_ids):
            placed = by_machine[machine_id]
            if not placed:
                continue
            young = []
            for record in reversed(placed.values()):
                if time - record[0] >= ramp:
                    break
                young.append(record)
            if young:
                row = out[k]
                for placed_time, _, booked in reversed(young):
                    row += booked.data * (1.0 - (time - placed_time) / ramp)
        return out

    def _available_rows(self, machine_ids, time: float) -> np.ndarray:
        """The availability formula — its one implementation: rows of
        ``max(capacity - used, 0)`` with ``used = observed + ramp
        allowance``, floored by ``allocated`` on rigid dimensions."""
        state = self.cluster.state
        used = state.observed[machine_ids] + self._ramp_rows(machine_ids, time)
        rigid = self._rigid_dims
        used[:, rigid] = np.maximum(
            used[:, rigid], state.allocated[machine_ids][:, rigid]
        )
        free = state.capacity[machine_ids] - used
        np.maximum(free, 0.0, out=free)
        return free

    def available_matrix(self) -> np.ndarray:
        """The ``(machines, dims)`` availability plane at
        ``last_report_time``, freshly reconciled: row ``m`` is what
        ``available(machine m)`` returns.  Shared storage — callers must
        not mutate it.

        Known fidelity question (pinned by a test, left for a later PR):
        the ramp allowance is evaluated at the *last report*, not at the
        scheduling instant, so a placement made after that report has a
        negative age and is charged more than its booking (factor > 1)
        until the next report.
        """
        state = self.cluster.state
        if state.alloc_gen != self._alloc_gen:
            self._alloc_gen = state.alloc_gen
            rigid = state.allocated[:, self._rigid_dims]
            moved = (rigid != self._rigid_seen).any(axis=1)
            self._rigid_seen = rigid
            if moved.any():
                self._dirty |= moved
                self._any_dirty = True
        if self._any_dirty:
            rows = np.flatnonzero(self._dirty)
            self._plane[rows] = self._available_rows(
                rows.tolist(), self.last_report_time
            )
            self._dirty[rows] = False
            self._any_dirty = False
        return self._plane

    def ramp_allowance(self, machine: "Machine", time: float) -> ResourceVector:
        """Usage headroom still owed to freshly-placed tasks."""
        return ResourceVector(
            machine.capacity.model,
            self._ramp_rows([machine.machine_id], time)[0],
        )

    def available(
        self, machine: "Machine", time: Optional[float] = None
    ) -> ResourceVector:
        """Free resources as the scheduler should see them.

        Rigid dimensions (memory) always count the full booked peak — a
        task's memory cannot be reclaimed without risking thrashing.  For
        fluid dimensions (CPU, disk, network rates) the tracker reports
        *observed* usage plus a ramp-up allowance for freshly-placed
        tasks.  This both reclaims head-room idled by over-estimates
        (booked > observed: Section 4.1, "the tracker reports unused
        resources and allocates them to new tasks") and charges for load
        the scheduler never booked (ingestion, misbehaving tasks:
        observed > booked — the Figure 6 mechanism).

        At ``last_report_time`` (the default) this is a row of
        :meth:`available_matrix`; any other ``time`` evaluates the same
        formula for the one machine.
        """
        if time is None or time == self.last_report_time:
            row = self.available_matrix()[machine.machine_id].copy()
        else:
            row = self._available_rows([machine.machine_id], time)[0]
        return ResourceVector(machine.capacity.model, row)
