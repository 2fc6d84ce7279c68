"""Machines: capacity, placed tasks, and allocation bookkeeping.

A machine records the *peak demands* of the tasks placed on it (its
``allocated`` vector).  Whether a scheduler respects the full vector when
placing is the scheduler's business: slot and DRF schedulers only check a
subset of dimensions, so ``allocated`` can exceed capacity in the fluid
dimensions — that is exactly the over-allocation pathology the paper
describes, and the fluid simulator turns it into contention and slowdown.

Since the structure-of-arrays refactor a machine is a thin view over one
row of a :class:`~repro.cluster.state.ClusterState`: ``capacity``,
``allocated`` and ``observed_usage`` are ``ResourceVector`` wrappers
around matrix rows, so ``add_inplace``/``sub_inplace`` through the object
API write directly into the shared matrices.  A machine constructed
standalone (tests, examples) gets its own single-row state.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.cluster.state import ClusterState
from repro.resources import ResourceVector
from repro.workload.task import Task

__all__ = ["Machine"]


class Machine:
    """One machine in the cluster — a view over a ``ClusterState`` row."""

    __slots__ = (
        "machine_id",
        "state",
        "row",
        "capacity",
        "allocated",
        "observed_usage",
        "running",
        "_placed_demands",
        "_free_clamped",
    )

    def __init__(
        self,
        machine_id: int,
        capacity: ResourceVector,
        state: Optional[ClusterState] = None,
        row: Optional[int] = None,
    ):
        if state is None:
            state = ClusterState(capacity.model, capacity.data[None, :].copy())
            row = 0
        self.machine_id = machine_id
        self.state = state
        self.row = int(row)
        # row views: no copy — in-place vector ops write through to the
        # state matrices
        self.capacity = ResourceVector(state.model, state.capacity[self.row])
        self.allocated = ResourceVector(state.model, state.allocated[self.row])
        #: last usage sample reported by the resource tracker (includes
        #: non-task activity such as ingestion); starts at zero
        self.observed_usage = ResourceVector(
            state.model, state.observed[self.row]
        )
        self.running: Set[Task] = set()
        self._placed_demands: Dict[int, ResourceVector] = {}
        #: persistent wrapper over the state's clamped-free row; the row
        #: is refreshed in place so the wrapper never goes stale
        self._free_clamped = ResourceVector(
            state.model, state._free_clamped[self.row]
        )

    # -- placement ------------------------------------------------------------
    def place(self, task: Task, demands: Optional[ResourceVector] = None) -> None:
        """Record a task's placement with its placement-adjusted demands."""
        if task in self.running:
            raise RuntimeError(f"{task!r} already running on {self!r}")
        if demands is None:
            demands = task.demands_on(self.machine_id)
        self.running.add(task)
        self._placed_demands[task.task_id] = demands
        self.allocated.add_inplace(demands)
        self.state.num_running[self.row] += 1
        self.state.mark_dirty(self.row)

    def remove(self, task: Task) -> None:
        if task not in self.running:
            raise RuntimeError(f"{task!r} not running on {self!r}")
        self.running.discard(task)
        demands = self._placed_demands.pop(task.task_id)
        self.allocated.sub_inplace(demands)
        self.state.num_running[self.row] -= 1
        self.state.mark_dirty(self.row)

    def placed_demands(self, task: Task) -> ResourceVector:
        return self._placed_demands[task.task_id]

    # -- capacity queries -------------------------------------------------------
    def free(self) -> ResourceVector:
        """Capacity minus booked peak demands (may be negative when
        a scheduler over-allocated a fluid dimension)."""
        return self.capacity - self.allocated

    def free_clamped(self) -> ResourceVector:
        """A caller-owned copy of the clamped free vector (some callers
        subtract bookings from it in place)."""
        self.state.free_clamped_row(self.row)
        return self._free_clamped.copy()

    def free_clamped_view(self) -> ResourceVector:
        """The maintained clamped free vector itself — shared and
        read-only.  For hot paths that only *read* headroom; callers
        must never mutate it."""
        self.state.free_clamped_row(self.row)
        return self._free_clamped

    @property
    def num_running(self) -> int:
        return len(self.running)

    def __repr__(self) -> str:
        return f"Machine(id={self.machine_id}, running={len(self.running)})"
