"""Per-stage candidate rows for the packing hot path.

The paper scores one representative per stage and machine: peer tasks in
a stage are statistically alike (Section 4.1), so a fill loop on machine
``m`` looks at two tasks of every candidate stage — the front of the
stage's locality pool on ``m`` and the front of the stage queue.  This
module keeps exactly those two rows for every stage on every machine, as
dense planes (:class:`StageRows`), across rounds:

- plane 0, row ``m``: the locality-pool front on ``m``, its booked
  (placement-adjusted, rate-capped) demand vector there and whether part
  of its input would cross the network;
- plane 1: the stage-queue front (the *rep*) on every machine, booked
  once per capacity class away from the machines holding its input and
  once per holder (lazily, like the pool fronts below).

A round reads nothing else.  :class:`PlaceabilityPlane` compares every
stage's two rows with every machine's free vector before the visits and
drops machines that can place nothing; the fill loop gathers machine
``m``'s rows of all round stages with one fancy index into the pooled
planes and normalizes them by ``m``'s capacity.  A claim refreshes only
the claimed stage's rows.

Rows are kept by dirty entries.  The stage index reports which pool
fronts may have moved (:meth:`StageIndex.take_moved_fronts`), and a new
stage-queue front moves the rep row on every machine; the shared rows
are written at once, the per-machine entries (pool fronts, the rep at
its input holders) are marked *stale* and re-resolved only when a visit
or the plane reads them, so a round touches the machines it looks at.
Nothing else a row depends on moves without dropping the stage's rows
altogether: shuffle resolution re-pins the stage's inputs, an unstable
estimator may revise every estimate on a completion, a drained stage can
never hold a candidate again.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.resources import EPSILON, ResourceVector
from repro.workload.stage import Stage
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry

__all__ = [
    "CandidateIndex", "PlaceabilityPlane", "RoundTable", "StageRows",
]

#: sentinel for "no rep resolved yet" (None is a valid resolution: the
#: stage queue may be empty)
_UNSET = object()


class StageRows:
    """One stage's two candidate rows on every machine, as dense planes.

    Plane 0, row ``m``: ``tasks[m]`` is ``StageIndex.local_candidate
    (stage, m)``, ``booked[0, m]`` its booked vector there, ``remote[0,
    m]`` whether part of its input would cross the network.  Plane 1:
    the stage-queue front ``rep`` on every machine; ``holders`` are the
    machines with a replica of its input.  ``active[0, m]`` says there is
    a pool front on ``m``; ``active[1, m]`` that there is a rep and it is
    not that pool front (a fill loop scores each task once).  Where
    ``stale[0, m]`` is set the pool front and ``active[1, m]``, where
    ``stale[1, m]`` the rep's row at one of its holders, wait to be
    re-resolved (:meth:`CandidateIndex.resolve`).  The arrays are views
    into the index's pooled planes at ``slot``.
    """

    __slots__ = (
        "stage", "slot", "tasks", "rep", "holders",
        "booked", "remote", "active", "stale",
    )

    def __init__(self, index: "CandidateIndex", stage: Stage, slot: int):
        self.stage = stage
        self.slot = slot
        self.tasks: List[Optional[Task]] = [None] * index.num_machines
        self.rep: object = _UNSET
        self.holders: List[int] = []
        self.attach(index)

    def attach(self, index: "CandidateIndex") -> None:
        k = self.slot
        self.booked = index.booked[k]
        self.remote = index.remote[k]
        self.active = index.active[k]
        self.stale = index.stale[k]

    def task_at(self, slot: int, machine_id: int) -> Optional[Task]:
        return self.rep if slot else self.tasks[machine_id]


class CandidateIndex:
    """Every live stage's :class:`StageRows`, in pooled planes.

    ``booked[k]``, ``remote[k]``, ``active[k]`` and ``stale[k]`` are the
    planes of the stage at slot ``k``; slots are recycled when a stage's
    rows are dropped, and the pool doubles when it runs out.
    """

    def __init__(self) -> None:
        #: stage_id -> the stage's rows, kept across rounds
        self._stage_rows: Dict[int, StageRows] = {}
        self._free_slots: List[int] = []
        self.num_machines = 0
        self.booked = np.zeros((0, 2, 0, 0))
        self.remote = np.zeros((0, 2, 0), dtype=bool)
        self.active = np.zeros((0, 2, 0), dtype=bool)
        self.stale = np.zeros((0, 2, 0), dtype=bool)
        #: row invalidations by scope, always maintained
        self.invalidations: Dict[str, int] = {"full": 0, "shuffle": 0}
        self._estimate: Optional[Callable[[Task], ResourceVector]] = None
        self._stage_index = None
        self._cluster = None
        self._rate_caps: Optional[np.ndarray] = None
        self._cleared: Tuple[int, int, int] = (0, 0, 0)
        self._dims_mask: Optional[np.ndarray] = None
        #: capacity classes (byte-equal capacity vectors): member lists,
        #: and the index each class writes its shared rep row through
        self._classes: List[Tuple[List[int], object]] = []

    def bind(
        self,
        estimate_fn: Callable[[Task], ResourceVector],
        stage_index,
        cluster,
        dims_mask: np.ndarray,
    ) -> None:
        """Wire the estimator and the stage index; drops all rows."""
        self._estimate = estimate_fn
        self._stage_index = stage_index
        self._cluster = cluster
        self._dims_mask = dims_mask
        members: Dict[bytes, List[int]] = {}
        for m in cluster.machines:
            members.setdefault(m.capacity.data.tobytes(), []).append(
                m.machine_id
            )
        self._classes = [
            (ids, slice(None) if len(members) == 1 else np.array(ids))
            for ids in members.values()
        ]
        self._stage_rows.clear()
        self._free_slots = []
        self.num_machines, dims = cluster.state.capacity.shape
        self.booked = np.zeros((0, 2, self.num_machines, dims))
        self.remote = np.zeros((0, 2, self.num_machines), dtype=bool)
        self.active = np.zeros((0, 2, self.num_machines), dtype=bool)
        self.stale = np.zeros((0, 2, self.num_machines), dtype=bool)
        #: per-machine booking caps: capacity on the fluid (rate)
        #: dimensions, unbounded on the rigid ones
        self._rate_caps = np.where(
            cluster.model.fluid_mask, cluster.state.capacity, np.inf
        )
        #: the dimensions booking clears by locality class
        self._cleared = tuple(
            cluster.model.index[name] for name in ("netin", "diskr", "netout")
        )

    def declare_metrics(self, registry: "Registry") -> None:
        invalidations = self.invalidations
        registry.counter(
            "repro_tetris_cache_invalidations_total",
            "Candidate-row invalidations by scope (full flush under "
            "unstable estimates, shuffle resolution)",
            # a scope that never fired has no sample
            lambda: {k: n for k, n in invalidations.items() if n},
            labelnames=("scope",),
        )

    # -- the pooled planes -----------------------------------------------------
    def _alloc(self) -> int:
        if not self._free_slots:
            old = self.booked.shape[0]
            new = max(16, 2 * old)
            for name in ("booked", "remote", "active", "stale"):
                arr = getattr(self, name)
                grown = np.zeros((new,) + arr.shape[1:], dtype=arr.dtype)
                grown[:old] = arr
                setattr(self, name, grown)
            for rows in self._stage_rows.values():
                rows.attach(self)
            self._free_slots = list(range(new - 1, old - 1, -1))
        k = self._free_slots.pop()
        self.active[k] = False
        self.stale[k] = False
        return k

    def _drop(self, stage_id: int) -> bool:
        rows = self._stage_rows.pop(stage_id, None)
        if rows is None:
            return False
        self._free_slots.append(rows.slot)
        return True

    # -- invalidation ----------------------------------------------------------
    def forget_task(self, task: Task) -> None:
        """A task completed under a *stable* estimator: the stage's rows
        stay valid (the stage index reports the fronts that moved) until
        the stage drains."""
        if task.stage.is_finished():
            self._drop(task.stage.stage_id)

    def invalidate_stage(self, stage: Stage) -> None:
        """Shuffle resolution re-pinned the stage's inputs: its rows
        (booked against the old inputs) are stale."""
        if self._drop(stage.stage_id):
            self.invalidations["shuffle"] += 1

    def clear(self) -> None:
        """Unstable-estimator flush: a completion can move every peer
        mean, so every row is stale."""
        if self._stage_rows:
            for stage_id in list(self._stage_rows):
                self._drop(stage_id)
            self.invalidations["full"] += 1

    # -- maintenance -----------------------------------------------------------
    def _book(self, out: np.ndarray, task: Task, machine_id: int) -> bool:
        """Write ``booked_demands(task, machine_id).data`` into ``out``
        and return ``remote_input_mb(machine_id) > 0``.  Booking is
        elementwise (rates capped at capacity; ``netin`` / ``diskr``
        cleared by locality class; ``netout`` cleared), so the floats
        equal the scalar path's bit for bit.
        """
        np.minimum(self._estimate(task).data, self._rate_caps[machine_id], out=out)
        i_netin, i_diskr, i_netout = self._cleared
        remote_mb = task.remote_input_mb(machine_id)
        if remote_mb <= 0:
            out[i_netin] = 0.0
        if task.input_mb - remote_mb <= 0:
            out[i_diskr] = 0.0
        out[i_netout] = 0.0
        return remote_mb > 0

    def stage_rows(self, stage: Stage, rep: object = _UNSET) -> StageRows:
        """The stage's rows with a current rep plane; pool fronts that
        may have moved since the last call are marked stale.  ``rep``,
        when given, is the caller's ``any_candidate(stage)``.

        The rep plane is rebuilt only when the stage-queue front is a
        different task: one booking per capacity class for the machines
        holding none of its input (there it is all-remote, so the row is
        the same on every machine of the class), one per holder.
        """
        stage_index = self._stage_index
        rows = self._stage_rows.get(stage.stage_id)
        new = rows is None
        if new:
            rows = self._stage_rows[stage.stage_id] = StageRows(
                self, stage, self._alloc()
            )
        moved = stage_index.take_moved_fronts(stage, every_pool=new)
        if moved:
            rows.stale[0, list(moved)] = True
        if rep is _UNSET:
            rep = stage_index.any_candidate(stage)
        if rep is rows.rep:
            return rows
        rows.rep = rep
        booked, remote, active, stale = (
            rows.booked, rows.remote, rows.active, rows.stale
        )
        stale[1, rows.holders] = False
        if rep is None:
            rows.holders = []
            active[1] = False
            return rows
        holders = rows.holders = list(
            {m for inp in rep.inputs for m in inp.locations}
        )
        for ids, where in self._classes:
            elsewhere = next((m for m in ids if m not in holders), None)
            if elsewhere is not None:
                remote[1, where] = self._book(booked[1, elsewhere], rep, elsewhere)
                booked[1, where] = booked[1, elsewhere]
        active[1] = True
        stale[1, holders] = True
        return rows

    def resolve(
        self, rows: StageRows, machines: Optional[Iterable[int]] = None
    ) -> None:
        """Re-resolve the stale entries of ``rows`` on ``machines``, or
        everywhere."""
        stale = rows.stale
        if machines is None:
            machines = np.flatnonzero(stale.any(axis=0)).tolist()
            if not machines:
                return
        stage, stage_index = rows.stage, self._stage_index
        tasks, rep = rows.tasks, rows.rep
        booked, remote, active = rows.booked, rows.remote, rows.active
        for m in machines:
            if stale[0, m]:
                task = stage_index.local_candidate(stage, m)
                front = tasks[m]
                if task is not front:
                    if front is rep and rep is not None:
                        stale[1, m] = True  # its rep row was never booked
                    tasks[m] = task
                    active[0, m] = task is not None
                    if task is not None:
                        remote[0, m] = self._book(booked[0, m], task, m)
                    if rep is not None:
                        active[1, m] = task is not rep
            if stale[1, m]:
                # a holder whose pool front is the rep scores it once,
                # through plane 0
                active[1, m] = tasks[m] is not rep
                if active[1, m]:
                    remote[1, m] = self._book(booked[1, m], rep, m)
        stale[:, machines] = False

    # -- per-round state -------------------------------------------------------
    def round_table(
        self,
        jobs: Sequence,
        remaining_of: Callable[[object], float],
        past_barrier: Callable[[Stage], bool],
    ) -> "RoundTable":
        """The round's stages in canonical order (jobs, then stages),
        with their rows made current, SRTF scores and barrier flags.

        Claims only *remove* candidates mid-round, so no stage can
        appear or gain candidates after this snapshot; a stage that
        drains simply ends with inactive rows.  SRTF scores and barrier
        membership are fixed for the round (nothing starts or finishes
        while the scheduler is deciding).
        """
        stage_index = self._stage_index
        rows: List[StageRows] = []
        remaining: List[float] = []
        barrier: List[bool] = []
        for job in jobs:
            score = remaining_of(job)
            for stage in job.dag:
                # ``StageIndex.indexed_stages``, with the rep kept
                rep = stage_index.any_candidate(stage)
                if rep is not None:
                    rows.append(self.stage_rows(stage, rep))
                    remaining.append(score)
                    barrier.append(past_barrier(stage))
        return RoundTable(self, rows, remaining, barrier)

    def gather(
        self, table: "RoundTable", machine_id: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Machine ``machine_id``'s candidate rows of every round stage:
        ``(booked, remote, active)``, row ``2 * si + slot``, each a
        fresh copy."""
        slots = table.slots
        stale = np.flatnonzero(self.stale[slots, :, machine_id].any(axis=1))
        for si in stale.tolist():
            self.resolve(table.rows[si], (machine_id,))
        return (
            self.booked[slots, :, machine_id].reshape(table.num_rows, -1),
            self.remote[slots, :, machine_id].reshape(-1),
            self.active[slots, :, machine_id].reshape(-1),
        )

    def gather_stage(
        self,
        table: "RoundTable",
        si: int,
        machine_id: int,
        booked: np.ndarray,
        remote: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Overwrite stage ``si``'s two gathered rows (after a claim)."""
        rows = table.rows[si]
        stale = rows.stale
        if stale[0, machine_id] or stale[1, machine_id]:
            self.resolve(rows, (machine_id,))
        k = rows.slot
        base = 2 * si
        booked[base:base + 2] = self.booked[k, :, machine_id]
        remote[base:base + 2] = self.remote[k, :, machine_id]
        active[base:base + 2] = self.active[k, :, machine_id]


class RoundTable:
    """One round's stages in canonical order plus the per-row constants.

    ``rows[si]`` is stage ``si``'s :class:`StageRows` (``slots[si]`` its
    pool slot); candidate row ``2 * si + slot`` is its locality-pool
    front (slot 0) or its stage-queue front (slot 1).  ``remaining``
    holds the per-row SRTF scores (the same doubles the scalar path
    collects), ``barrier`` the per-row barrier flag, and
    ``stage_remaining`` / ``stage_barrier`` the same per stage as plain
    Python values; ``stage_row`` maps a stage to its base row.
    ``rep_verdicts`` holds the fill loop's remote verdicts of slot-1
    rows away from the rep's input holders, where every machine reads
    through one transfer plan.
    """

    __slots__ = (
        "index", "rows", "slots", "remaining", "barrier", "stage_remaining",
        "stage_barrier", "stage_row", "num_rows", "rep_verdicts",
    )

    def __init__(
        self,
        index: CandidateIndex,
        rows: List[StageRows],
        remaining: List[float],
        barrier: List[bool],
    ) -> None:
        self.index = index
        self.rows = rows
        self.num_rows = 2 * len(rows)
        self.slots = np.fromiter(
            (r.slot for r in rows), dtype=np.intp, count=len(rows)
        )
        # float64 round-trips the Python floats losslessly
        self.remaining = np.repeat(np.array(remaining, dtype=np.float64), 2)
        self.barrier = np.repeat(np.array(barrier, dtype=bool), 2)
        self.stage_remaining = remaining
        self.stage_barrier = barrier
        self.stage_row: Dict[int, int] = {
            r.stage.stage_id: 2 * si for si, r in enumerate(rows)
        }
        self.rep_verdicts: Dict[int, object] = {}

    def task_at(self, row: int, machine_id: int) -> Optional[Task]:
        return self.rows[row >> 1].task_at(row & 1, machine_id)

    def refresh(self, stage: Stage) -> Optional[int]:
        """A claim took a task of ``stage``: bring its rows up to date
        (the rep plane, stale marks on the moved fronts).  Returns the
        stage's index in the table, None if it is not a round stage."""
        base = self.stage_row.get(stage.stage_id)
        if base is None:
            return None
        rows = self.rows[base >> 1]
        rep = rows.rep
        self.index.stage_rows(stage)
        if rows.rep is not rep:
            self.rep_verdicts.pop(base + 1, None)
        return base >> 1


class PlaceabilityPlane:
    """Which machines of one round can place anything, decided before
    they are visited (docs/performance.md, "The placeability plane").

    A fill loop's first iteration keeps a row iff ``booked <= free +
    EPSILON`` on every considered dimension and, when part of its input
    is remote, its sources have headroom; a visit that keeps nothing
    places nothing and mutates nothing.  ``fit[2 * si + slot, m]`` is
    that comparison for stage ``si``'s two rows on every machine at
    once.  A fitting row that reads nothing remote settles its machine;
    the others are put to ``remote_ok`` when the visit loop reaches the
    machine.  Inside a round free rows do not move and the grant ledger
    only grows, so a failed verdict is final (its entry is withdrawn —
    for a rep away from its holders, on every such machine at once) and
    any other entry stays exact until a claim takes the task it was
    computed for.  :meth:`note_visit` withdraws exactly those entries;
    their stages are recomputed lazily, when a machine is about to be
    dropped.
    """

    def __init__(
        self,
        table: RoundTable,
        free: np.ndarray,
        remote_ok: Callable[[Task, int], bool],
    ) -> None:
        self.index = table.index
        self.table = table
        self.rows = table.rows
        self.remote_ok = remote_ok
        mask = self.index._dims_mask
        self.mask = None if mask is None or mask.all() else mask
        if self.mask is not None:
            free = free[:, self.mask]
        self.free_eps = free + EPSILON
        self.fit = np.zeros((table.num_rows, free.shape[0]), dtype=bool)
        #: the rep each stage's plane-1 entries were judged for
        self.reps: List[object] = [None] * len(self.rows)
        #: stage indices with entries withdrawn by :meth:`note_visit`
        self.moved: Set[int] = set()
        self.rows_computed = 0
        #: per machine, whether any entry of its column is set (a
        #: superset between refreshes); None = entries were withdrawn
        self.open: Optional[List[bool]] = None
        self.probe = False  # see :meth:`placeable`
        for si in range(len(self.rows)):
            self._judge_stage(si)

    def _judge_stage(self, si: int) -> None:
        rows = self.rows[si]
        self.index.resolve(rows)
        self.reps[si] = rows.rep
        self.rows_computed += 1
        booked = rows.booked
        if self.mask is not None:
            booked = booked[:, :, self.mask]
        fit = self.fit[2 * si:2 * si + 2]
        np.all(booked <= self.free_eps, axis=2, out=fit)
        fit &= rows.active

    def _passes(self, machine_id: int) -> bool:
        """Whether a fill loop on the machine would keep one of its
        fitting rows: one that reads nothing remote, or whose sources
        have headroom right now."""
        open_ = self.open
        if open_ is None:
            open_ = self.open = self.fit.any(axis=0).tolist()
        if not open_[machine_id]:
            return False
        for row in self.fit[:, machine_id].nonzero()[0]:
            rows, slot = self.rows[row >> 1], row & 1
            if not rows.remote[slot, machine_id]:
                return True
            if self.remote_ok(rows.task_at(slot, machine_id), machine_id):
                return True
            if slot and machine_id not in rows.holders:
                # the rep's shared plan failed: on every such machine
                entries = self.fit[row]
                kept = entries[rows.holders]
                entries[:] = False
                entries[rows.holders] = kept
                self.open = None
        return False

    def placeable(self, machine_id: int) -> bool:
        """Whether to visit ``machine_id``.  False is exact: the visit
        would place nothing.  So is True, except while probing: when
        the last recomputation found its machine able to place after
        all, machines left without a row are visited instead of
        recomputed for, until one such visit comes back empty."""
        if self._passes(machine_id):
            return True
        if not self.moved:
            return False
        if self.probe:
            return True
        for si in self.moved:
            self._judge_stage(si)
        self.moved.clear()
        self.open = None
        self.probe = self._passes(machine_id)
        return self.probe

    def note_visit(self, tasks: Sequence[Task]) -> None:
        """A visit claimed ``tasks``.  A claim moves a front only where
        the claimed task *was* the front: the stage's rep entries if it
        was the judged rep, pool-front entries on the machines holding
        its input (whose rows still name it until they are re-resolved).
        """
        if not tasks:
            self.probe = False
            return
        fit = self.fit
        stage_row = self.table.stage_row
        for task in tasks:
            base = stage_row[task.stage.stage_id]
            si = base >> 1
            if task is self.reps[si]:
                fit[base + 1] = False
            fronts = self.rows[si].tasks
            for inp in task.inputs:
                for machine_id in inp.locations:
                    if fronts[machine_id] is task:
                        fit[base, machine_id] = False
            self.moved.add(si)
        self.open = None
