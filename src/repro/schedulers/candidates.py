"""Signature-grouped candidate index for the packing hot path.

The paper's estimation story (Section 4.1) is that peer tasks in a stage
have near-identical resource profiles — that is what makes one
representative score per stage meaningful.  This module turns the same
observation into a caching structure: runnable tasks are grouped by a
*(stage, placement-adjusted demand signature)*, where the signature
captures everything the packing math can see about a task —

- the stage it belongs to,
- its estimated demand vector (byte-exact), and
- its input structure: each input's size and replica locations, in
  order (the locality/remote-input signature).

Two tasks with equal signatures produce byte-identical booked vectors,
normalized demand rows and remote flags on **every** machine, so the
pack cache is shared by the whole group: when a placed task's successor
representative comes from the same group — the common case, since stages
release waves of statistical peers — its pack costs a dict hit instead
of an estimator call plus vector arithmetic.  Machines are collapsed the
same way: a pack depends on the machine only through its capacity vector
and through *which* of the signature's inputs are replica-local to it,
so the cache key is ``(signature, capacity class, local-input pattern)``
— on a homogeneous cluster a no-input group computes its pack **once**
for the whole cluster rather than once per machine.
Tasks whose inputs live in different places never share a signature (the
locations are part of it), so locality-sensitive decisions are never
cross-contaminated.

Cache validity follows the signature: entries survive task completions
under a stable estimator (nothing they depend on moved), and are dropped
when a stage's inputs are re-pinned at shuffle resolution or when an
unstable estimator revises demands (a completion can move every peer
mean, so the whole index flushes).

:class:`MachineView` is the per-machine consumer: one fill loop's
candidate state laid out as fixed two-slot blocks per stage (slot 0 the
locality-preferred representative, slot 1 the stage-queue front), so a
placement refreshes exactly one stage's block instead of re-gathering
every stage, and each loop iteration reduces to numpy passes over the
persistent arrays.  Missing pack rows for a machine are computed in one
batched numpy normalization over all signature groups at view-build
time.  Scoring is per machine by construction (alignment is taken
against one machine's free and capacity vectors); the *fit* is not:
:class:`PlaceabilityPlane` compares every stage's two rows with every
machine's free vector once per round, from per-stage :class:`StageRows`
kept across rounds, so machines that can place nothing are never
visited.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.resources import EPSILON, ResourceVector
from repro.workload.stage import Stage
from repro.workload.task import Task

__all__ = [
    "CandidateIndex", "MachineView", "PlaceabilityPlane", "StageRows",
    "signature_of",
]

#: (stage_id, estimate bytes, ((input size, replica locations), ...))
Signature = Tuple[int, bytes, Tuple[Tuple[float, Tuple[int, ...]], ...]]

#: a cached pack: (booked vector, masked capacity-normalized row, remote?)
PackEntry = Tuple[ResourceVector, np.ndarray, bool]

#: below this many rows, batched numpy fills cost more than direct row
#: writes (both produce byte-identical arrays — purely a speed cutover)
_BATCH_THRESHOLD = 8

#: sentinel for "not resolved yet" in the round table's rep cache
#: (None is a valid resolution: the stage queue may be empty)
_UNSET = object()


def signature_of(task: Task, estimate: ResourceVector) -> Signature:
    """The task's demand signature under the given estimate.

    Byte-exact on the estimate and exhaustive on the input structure:
    everything ``booked_demands`` and ``remote_input_mb`` can depend on
    for any machine is folded in, so equal signatures imply identical
    packing behavior everywhere.
    """
    inputs = tuple(
        (float(inp.size_mb), tuple(inp.locations)) for inp in task.inputs
    )
    return (task.stage.stage_id, estimate.data.tobytes(), inputs)


class CandidateIndex:
    """Persistent signature-grouped pack cache with group bookkeeping."""

    def __init__(self) -> None:
        self._sig_of_task: Dict[int, Signature] = {}
        self._stage_sigs: Dict[int, Set[Signature]] = {}
        #: sig -> ({machine pack key -> pack}, {machine_id -> pack}).
        #: The first dict holds one computed pack per machine
        #: *equivalence class* — capacity class for input-free groups,
        #: else (capacity class, local-input bitmask), see
        #: :meth:`_pack_key`.  The second aliases machines straight to
        #: their class's pack so repeat lookups skip the key derivation.
        self._packs: Dict[
            Signature, Tuple[Dict[object, PackEntry], Dict[int, PackEntry]]
        ] = {}
        #: stage_id -> the stage's two view rows on every machine, kept
        #: across rounds (dropped wherever the stage's packs are)
        self._stage_rows: Dict[int, "StageRows"] = {}
        #: machine_id -> capacity equivalence class (byte-equal vectors)
        self._machine_class: List[int] = []
        self.single_capacity_class = False
        #: plain-int effectiveness counters, always maintained; the
        #: scheduler mirrors them into obs instruments via set_instruments
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
        }
        self._estimate: Optional[Callable[[Task], ResourceVector]] = None
        self._booked: Optional[Callable[[Task, int], ResourceVector]] = None
        self._cluster = None
        self._rate_caps: Optional[np.ndarray] = None
        self._dims_mask: Optional[np.ndarray] = None
        self._m_hits = None
        self._m_misses = None
        self._m_invalidations = None
        self._m_groups = None
        self._synced_hits = 0
        self._synced_misses = 0

    def bind(
        self,
        estimate_fn: Callable[[Task], ResourceVector],
        booked_fn: Callable[[Task, int], ResourceVector],
        cluster,
        dims_mask: np.ndarray,
    ) -> None:
        """Wire the estimator/booking callbacks; drops all cached state."""
        self._estimate = estimate_fn
        self._booked = booked_fn
        self._cluster = cluster
        self._dims_mask = dims_mask
        classes: Dict[bytes, int] = {}
        self._machine_class = [
            classes.setdefault(m.capacity.data.tobytes(), len(classes))
            for m in cluster.machines
        ]
        self._sig_of_task.clear()
        self._stage_sigs.clear()
        self._packs.clear()
        self._stage_rows.clear()
        #: per-machine booking caps: capacity on the fluid (rate)
        #: dimensions, unbounded on the rigid ones
        self._rate_caps = np.where(
            cluster.model.fluid_mask, cluster.state.capacity, np.inf
        )
        #: single capacity class => away from its input replicas a task
        #: books the same vector on every machine
        self.single_capacity_class = len(classes) <= 1

    def set_instruments(
        self, hits=None, misses=None, invalidations=None, groups=None
    ) -> None:
        """Attach obs metric handles (hit/miss counters, the labeled
        invalidation family, the live-group gauge).  Hit/miss counts are
        tallied as plain ints on the hot path and flushed to the
        instruments by :meth:`sync_instruments` (the scheduler calls it
        once per round); invalidations are counted at the event."""
        self._m_hits = hits
        self._m_misses = misses
        self._m_invalidations = invalidations
        self._m_groups = groups
        self._synced_hits = 0
        self._synced_misses = 0

    def sync_instruments(self) -> None:
        """Flush hit/miss tallies accumulated since the last flush into
        the obs counters, and refresh the live-group gauge."""
        if self._m_hits is not None:
            delta = self.stats["hits"] - self._synced_hits
            if delta:
                self._m_hits.inc(delta)
                self._synced_hits = self.stats["hits"]
        if self._m_misses is not None:
            delta = self.stats["misses"] - self._synced_misses
            if delta:
                self._m_misses.inc(delta)
                self._synced_misses = self.stats["misses"]
        if self._m_groups is not None:
            self._m_groups.set(len(self._packs))

    # -- signatures ------------------------------------------------------------
    def signature(self, task: Task) -> Signature:
        sig = self._sig_of_task.get(task.task_id)
        if sig is None:
            sig = signature_of(task, self._estimate(task))
            self._sig_of_task[task.task_id] = sig
            self._stage_sigs.setdefault(task.stage.stage_id, set()).add(sig)
        return sig

    @property
    def num_groups(self) -> int:
        """Live signature groups (groups that have cached pack state)."""
        return len(self._packs)

    # -- pack lookup -----------------------------------------------------------
    def _pack_key(self, sig: Signature, task: Task, machine_id: int):
        """The machine's pack-equivalence key for one signature group.

        ``booked_demands`` and ``remote_input_mb`` see the machine only
        through its capacity vector and through which of the task's
        inputs have a replica on it, so machines agreeing on both share
        one cached pack.  Input-free groups reduce to the capacity class
        alone — one pack per class for the whole cluster.
        """
        cls = self._machine_class[machine_id]
        if not sig[2]:
            return cls
        pattern = 0
        for bit, inp in enumerate(task.inputs):
            if machine_id in inp.locations:  # TaskInput.is_local_to, inlined
                pattern |= 1 << bit
        return (cls, pattern)

    def _compute_pack(self, task: Task, machine_id: int) -> PackEntry:
        booked = self._booked(task, machine_id)
        norm = self._normalize_row(
            booked.data, self._cluster.machine(machine_id).capacity.data
        )
        return (booked, norm, task.remote_input_mb(machine_id) > 0)

    def _normalize_row(self, row: np.ndarray, cap: np.ndarray) -> np.ndarray:
        """Masked, capacity-normalized demand row — elementwise identical
        to ``masked(vec).normalized_by(capacity).data``."""
        mask = self._dims_mask
        if mask is not None and not mask.all():
            row = np.where(mask, row, 0.0)
        out = np.zeros_like(row)
        nz = cap > EPSILON
        out[nz] = row[nz] / cap[nz]
        return out

    def pack(self, task: Task, machine_id: int) -> PackEntry:
        """The task's group pack for one machine, computed at most once
        per (signature, machine equivalence class)."""
        sig = self.signature(task)
        group = self._packs.get(sig)
        if group is None:
            group = self._packs[sig] = ({}, {})
        by_class, by_machine = group
        entry = by_machine.get(machine_id)
        if entry is None:
            key = self._pack_key(sig, task, machine_id)
            entry = by_class.get(key)
            if entry is None:
                self.stats["misses"] += 1
                entry = by_class[key] = self._compute_pack(task, machine_id)
            else:
                self.stats["hits"] += 1
            by_machine[machine_id] = entry
        else:
            self.stats["hits"] += 1
        return entry

    def packs_for(
        self, machine_id: int, tasks: Sequence[Task]
    ) -> List[PackEntry]:
        """One pack per task, resolved in a single memo-first pass.

        Cache hits (including class-to-machine aliasing) resolve with
        one dict walk each; the distinct missing ``(signature, key)``
        pairs are then computed together in one batched numpy
        normalization and stored for every machine in their class."""
        entries: List[Optional[PackEntry]] = [None] * len(tasks)
        missing: List[Tuple[Signature, object, Task, List[int]]] = []
        miss_pos: Dict[Tuple[Signature, object], int] = {}
        hits = 0
        for pos, task in enumerate(tasks):
            sig = self.signature(task)
            group = self._packs.get(sig)
            if group is None:
                group = self._packs[sig] = ({}, {})
            by_class, by_machine = group
            entry = by_machine.get(machine_id)
            if entry is None:
                key = self._pack_key(sig, task, machine_id)
                entry = by_class.get(key)
                if entry is not None:
                    by_machine[machine_id] = entry
                    hits += 1
                else:
                    slot = miss_pos.get((sig, key))
                    if slot is None:
                        miss_pos[(sig, key)] = len(missing)
                        missing.append((sig, key, task, [pos]))
                    else:
                        missing[slot][3].append(pos)
                    continue
            else:
                hits += 1
            entries[pos] = entry
        self.stats["hits"] += hits
        if not missing:
            return entries
        booked = [self._booked(task, machine_id) for _, _, task, _ in missing]
        rows = np.stack([b.data for b in booked])
        mask = self._dims_mask
        if mask is not None and not mask.all():
            rows = np.where(mask, rows, 0.0)
        cap = self._cluster.machine(machine_id).capacity.data
        nz = cap > EPSILON
        norms = np.zeros_like(rows)
        norms[:, nz] = rows[:, nz] / cap[nz]
        for k, (sig, key, task, positions) in enumerate(missing):
            by_class, by_machine = self._packs[sig]
            entry = (
                booked[k],
                norms[k].copy(),
                task.remote_input_mb(machine_id) > 0,
            )
            by_class[key] = entry
            by_machine[machine_id] = entry
            for pos in positions:
                entries[pos] = entry
        self.stats["misses"] += len(missing)
        return entries

    # -- invalidation ----------------------------------------------------------
    def _count_invalidation(self, scope: str, n: int = 1) -> None:
        self.stats["invalidations"] += n
        if self._m_invalidations is not None:
            self._m_invalidations.labels(scope=scope).inc(n)
        if self._m_groups is not None:
            self._m_groups.set(len(self._packs))

    def forget_task(self, task: Task) -> None:
        """A task completed under a *stable* estimator: its group packs
        stay valid for every peer, only the per-task mapping is dropped
        (and the whole stage's groups once the stage drains)."""
        self._sig_of_task.pop(task.task_id, None)
        if task.stage.is_finished():
            stage_id = task.stage.stage_id
            self._stage_rows.pop(stage_id, None)
            for sig in self._stage_sigs.pop(stage_id, ()):
                self._packs.pop(sig, None)
            if self._m_groups is not None:
                self._m_groups.set(len(self._packs))

    def invalidate_stage(self, stage: Stage) -> int:
        """Shuffle resolution re-pinned the stage's inputs: every one of
        its signatures (computed from the old inputs) is stale.  Returns
        the number of groups dropped."""
        dropped = 0
        self._stage_rows.pop(stage.stage_id, None)
        for sig in self._stage_sigs.pop(stage.stage_id, ()):
            if self._packs.pop(sig, None) is not None:
                dropped += 1
        for task in stage.tasks:
            self._sig_of_task.pop(task.task_id, None)
        if dropped:
            self._count_invalidation("shuffle", dropped)
        return dropped

    def clear(self) -> bool:
        """Unstable-estimator flush: a completion can move every peer
        mean, so both the signatures and the packs are stale.  Returns
        whether anything was dropped."""
        had = bool(self._packs) or bool(self._sig_of_task)
        self._sig_of_task.clear()
        self._stage_sigs.clear()
        self._packs.clear()
        self._stage_rows.clear()
        if had:
            self._count_invalidation("full")
        return had

    # -- placeability plane ----------------------------------------------------
    def _book(self, out: np.ndarray, task: Task, machine_id: int) -> bool:
        """Write ``booked_demands(task, machine_id).data`` into ``out``
        and return ``remote_input_mb(machine_id) > 0``: a pack without
        its normalized row and vector objects, which judging a fit does
        not need.  Booking is elementwise (rates capped at capacity;
        ``netin`` / ``diskr`` cleared by locality class; ``netout``
        cleared), so the floats equal the scalar path's bit for bit.
        """
        caps = self._rate_caps[machine_id]
        np.minimum(self._estimate(task).data, caps, out=out)
        dim = self._cluster.model.index
        remote_mb = task.remote_input_mb(machine_id)
        if remote_mb <= 0:
            out[dim["netin"]] = 0.0
        if task.input_mb - remote_mb <= 0:
            out[dim["diskr"]] = 0.0
        out[dim["netout"]] = 0.0
        return remote_mb > 0

    def stage_rows(
        self, stage_index, stage: Stage, rep: Optional[Task]
    ) -> "StageRows":
        """The stage's maintained :class:`StageRows`, made current.

        Kept by dirty entries: pool fronts are re-resolved only on the
        machines the stage index reports as moved
        (:meth:`StageIndex.take_moved_fronts`), the rep plane only when
        ``rep`` is a different task.  Nothing else a row depends on can
        move without dropping the whole entry, which goes where the
        stage's packs go (shuffle re-pin, unstable-estimator flush,
        stage drained).
        """
        rows = self._stage_rows.get(stage.stage_id)
        new = rows is None
        if new:
            rows = self._stage_rows[stage.stage_id] = StageRows(
                *self._cluster.state.capacity.shape
            )
        booked, remote, active = rows.booked, rows.remote, rows.active
        tasks = rows.tasks
        for m in stage_index.take_moved_fronts(stage, every_pool=new):
            task = stage_index.local_candidate(stage, m)
            if task is not tasks[m]:
                tasks[m] = task
                active[0, m] = task is not None
                if task is not None:
                    remote[0, m] = self._book(booked[0, m], task, m)
        if rep is not rows.rep:
            rows.rep = rep
            active[1] = False
            inputs = () if rep is None else rep.inputs
            holders = rows.holders = list(
                {m for inp in inputs for m in inp.locations}
            )
            elsewhere = next(
                (m for m in range(len(tasks)) if m not in holders), None
            )
            if rep is not None and elsewhere is not None:
                # one all-remote row, the same on every other machine
                remote[1] = self._book(booked[1, elsewhere], rep, elsewhere)
                booked[1] = booked[1, elsewhere]
                active[1] = True
            for m in holders:
                remote[1, m] = self._book(booked[1, m], rep, m)
                active[1, m] = True
        return rows

    # -- per-round / per-machine fill-loop state -------------------------------
    def round_table(
        self,
        stage_index,
        jobs: Sequence,
        remaining_of: Callable[[object], float],
        barrier_stages: Set[int],
    ) -> "RoundTable":
        """The round-constant half of every machine view, built once per
        scheduling round and shared by all machines.

        Claims only *remove* candidates mid-round, so no stage can appear
        or gain candidates after this snapshot; a stage that drains simply
        resolves to empty slots on later machines.  SRTF scores and
        barrier membership are likewise fixed for the round (nothing
        starts or finishes while the scheduler is deciding).
        """
        blocks: List[Tuple[Stage, float]] = []
        for job in jobs:
            remaining = remaining_of(job)
            for stage in stage_index.indexed_stages(job):
                blocks.append((stage, remaining))
        return RoundTable(blocks, barrier_stages)

    def build_view(
        self,
        table: "RoundTable",
        stage_index,
        machine_id: int,
        num_dims: int,
    ) -> "MachineView":
        """One machine's candidate state for a fill loop: resolve each
        stage's representatives (the stage-queue front is cached on the
        round table — it is machine-independent and claims invalidate
        it per stage), look up all pack rows in one memo-first pass with
        the misses batch-normalized together, then fill the slot arrays
        with stacked numpy assignments.  Small views (the common case
        for engine-driven heartbeats, where one dirty machine sees a
        handful of stages) skip the batch machinery and write their few
        rows directly."""
        slot_tasks: List[Optional[Task]] = [None] * table.num_rows
        rows: List[int] = []
        for si, stage in enumerate(table.stages):
            local = stage_index.local_candidate(stage, machine_id)
            other = table.any_rep_for(si, stage, stage_index)
            if other is local:
                other = None
            if local is not None:
                slot_tasks[2 * si] = local
                rows.append(2 * si)
            if other is not None:
                slot_tasks[2 * si + 1] = other
                rows.append(2 * si + 1)
        view = MachineView(self, table, machine_id, num_dims)
        if len(rows) <= _BATCH_THRESHOLD:
            for i in rows:
                view.set_slot(i, slot_tasks[i])
        else:
            packs = self.packs_for(
                machine_id, [slot_tasks[i] for i in rows]
            )
            view.fill_packed(rows, slot_tasks, packs)
        return view


class StageRows:
    """One stage's two view rows on every machine, as dense planes.

    Plane 0, row ``m``: what a fill loop on ``m`` puts in the stage's
    locality slot — ``tasks[m]`` is ``StageIndex.local_candidate(stage,
    m)``, ``booked[0, m]`` its booked vector there, ``remote[0, m]``
    whether part of its input would cross the network.  Plane 1: the
    stage-queue front ``rep`` on every machine; away from its
    ``holders`` (the machines with a replica of its input) it books one
    vector and reads through one transfer plan.  Where ``active`` is
    False there is no such task and the rest of the row is stale.
    """

    __slots__ = ("tasks", "rep", "holders", "booked", "remote", "active")

    def __init__(self, num_machines: int, num_dims: int) -> None:
        self.tasks: List[Optional[Task]] = [None] * num_machines
        self.rep: object = _UNSET
        self.holders: List[int] = []
        self.booked = np.zeros((2, num_machines, num_dims))
        self.remote = np.zeros((2, num_machines), dtype=bool)
        self.active = np.zeros((2, num_machines), dtype=bool)


class PlaceabilityPlane:
    """Which machines of one round can place anything, decided before
    they are visited (docs/performance.md, "The placeability plane").

    A fill loop's first iteration keeps a row iff ``booked <= free +
    EPSILON`` on every considered dimension and, when part of its input
    is remote, its sources have headroom; a visit that keeps nothing
    places nothing and mutates nothing.  ``fit[2 * si + slot, m]`` is
    that comparison for stage ``si``'s two rows on every machine at
    once, from its maintained :class:`StageRows`.  A fitting row that
    reads nothing remote settles its machine; the others are put to
    ``remote_ok`` when the visit loop reaches the machine.  Inside a
    round free rows do not move and the grant ledger only grows, so a
    failed verdict is final (its entry is withdrawn — for a rep away
    from its holders, on every such machine at once) and any other
    entry stays exact until a claim takes the task it was computed for.
    :meth:`note_visit` withdraws exactly those entries; their stages
    are recomputed lazily, when a machine is about to be dropped.
    """

    def __init__(
        self,
        index: CandidateIndex,
        table: RoundTable,
        stage_index,
        free: np.ndarray,
        remote_ok: Callable[[Task, int], bool],
    ) -> None:
        self.index = index
        self.table = table
        self.stage_index = stage_index
        self.remote_ok = remote_ok
        mask = index._dims_mask
        self.mask = None if mask is None or mask.all() else mask
        if self.mask is not None:
            free = free[:, self.mask]
        self.free_eps = free + EPSILON
        self.fit = np.zeros((table.num_rows, free.shape[0]), dtype=bool)
        self.rows: List[Optional[StageRows]] = [None] * len(table.stages)
        #: stage indices with entries withdrawn by :meth:`note_visit`
        self.moved: Set[int] = set()
        self.rows_computed = 0
        #: per machine, whether any entry of its column is set (a
        #: superset between refreshes); None = entries were withdrawn
        self.open: Optional[List[bool]] = None
        self.probe = False  # see :meth:`placeable`
        for si in range(len(table.stages)):
            self._judge_stage(si)

    def _judge_stage(self, si: int) -> None:
        stage_index = self.stage_index
        stage = self.table.stages[si]
        rep = self.table.any_rep_for(si, stage, stage_index)
        rows = self.rows[si] = self.index.stage_rows(stage_index, stage, rep)
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
        if self.open is None:
            self.open = self.fit.any(axis=0).tolist()
        if not self.open[machine_id]:
            return False
        for row in np.flatnonzero(self.fit[:, machine_id]):
            rows, slot = self.rows[row >> 1], row & 1
            if not rows.remote[slot, machine_id]:
                return True
            task = rows.rep if slot else rows.tasks[machine_id]
            if self.remote_ok(task, machine_id):
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
        the claimed task *was* the front: the stage's rep row if it was
        the rep, pool-front entries on the machines holding its input.
        """
        if not tasks:
            self.probe = False
            return
        fit = self.fit
        stage_row = self.table.stage_row
        for task in tasks:
            base = stage_row[task.stage.stage_id]
            rows = self.rows[base >> 1]
            if task is rows.rep:
                fit[base + 1] = False
            fronts = rows.tasks
            for inp in task.inputs:
                for machine_id in inp.locations:
                    if fronts[machine_id] is task:
                        fit[base, machine_id] = False
            self.moved.add(base >> 1)
        self.open = None


class RoundTable:
    """Stage blocks in canonical order plus the per-row round constants.

    ``remaining`` holds the per-row SRTF scores (the same doubles the
    scalar path collects); ``barrier`` is the per-row barrier flag;
    ``stage_row`` maps a stage to its block's base row.  Views
    reference these directly and never mutate them.

    Two further pieces of cross-machine state live here:

    - each stage's queue-front representative (``any_candidate``) is
      machine-independent and round-stable except when a claim removes
      it, so it is resolved once for the whole round and invalidated per
      stage at the claim point (:meth:`invalidate_stage_rep`);
    - the scratch arrays backing :class:`MachineView`'s per-row numpy
      state.  Views within a round are built and consumed strictly one
      at a time, so they share one allocation — building a new view from
      this table invalidates the arrays of the previous one.
    """

    __slots__ = (
        "stages",
        "remaining",
        "barrier",
        "stage_row",
        "num_rows",
        "_any_rep",
        "_scratch",
    )

    def __init__(
        self, blocks: List[Tuple[Stage, float]], barrier_stages: Set[int]
    ) -> None:
        self.stages: List[Stage] = [stage for stage, _ in blocks]
        # SRTF scores as a float64 array: the fill loop gathers the kept
        # rows with one fancy index instead of a per-row list walk.  The
        # values are the exact Python floats the scalar path collects —
        # float64 round-trips them losslessly.
        self.remaining: np.ndarray = np.fromiter(
            (remaining for _, remaining in blocks for _ in (0, 1)),
            dtype=np.float64,
            count=2 * len(blocks),
        )
        self.barrier = np.fromiter(
            (
                stage.stage_id in barrier_stages
                for stage, _ in blocks
                for _ in (0, 1)
            ),
            dtype=bool,
            count=2 * len(blocks),
        )
        self.stage_row: Dict[int, int] = {
            stage.stage_id: 2 * si for si, (stage, _) in enumerate(blocks)
        }
        self.num_rows = 2 * len(blocks)
        self._any_rep: List[object] = [_UNSET] * len(blocks)
        self._scratch: Optional[Tuple[np.ndarray, ...]] = None

    def any_rep_for(self, si: int, stage: Stage, stage_index):
        """Stage ``si``'s queue-front representative, resolved at most
        once per round between claims on that stage."""
        rep = self._any_rep[si]
        if rep is _UNSET:
            rep = self._any_rep[si] = stage_index.any_candidate(stage)
        return rep

    def invalidate_stage_rep(self, stage_id: int) -> None:
        """A claim removed a task from ``stage_id``'s queue: its cached
        front is stale for every machine not yet visited this round."""
        base = self.stage_row.get(stage_id)
        if base is not None:
            self._any_rep[base >> 1] = _UNSET

    def scratch(self, num_dims: int) -> Tuple[np.ndarray, ...]:
        """The shared (booked, norm, remote) arrays for this round's
        views — valid for one view at a time."""
        s = self._scratch
        if s is None:
            s = self._scratch = (
                np.zeros((self.num_rows, num_dims)),
                np.zeros((self.num_rows, num_dims)),
                np.zeros(self.num_rows, dtype=bool),
            )
        return s


class MachineView:
    """Fixed two-slot-per-stage candidate arrays for one fill loop.

    Row ``2*si`` holds stage ``si``'s locality-preferred representative,
    row ``2*si + 1`` the stage-queue front when distinct; inactive slots
    are masked out.  Active rows in ascending order reproduce exactly
    the scalar gather order (jobs, then stages, local before any), so
    scores — and the argmax — match the reference bit for bit.
    """

    __slots__ = (
        "index",
        "table",
        "machine_id",
        "tasks",
        "booked",
        "booked_mat",
        "norm_mat",
        "remaining",
        "remote",
        "barrier",
        "active",
    )

    def __init__(
        self,
        index: CandidateIndex,
        table: RoundTable,
        machine_id: int,
        num_dims: int,
    ) -> None:
        n = table.num_rows
        self.index = index
        self.table = table
        self.machine_id = machine_id
        self.tasks: List[Optional[Task]] = [None] * n
        self.booked: List[Optional[ResourceVector]] = [None] * n
        # per-row numpy state borrowed from the table's scratch buffers
        # (views are strictly sequential within a round); stale rows are
        # never read because ``active`` is fresh and every activation
        # rewrites its row first
        self.booked_mat, self.norm_mat, self.remote = table.scratch(num_dims)
        # round constants, shared (read-only) with every other view
        self.remaining = table.remaining
        self.barrier = table.barrier
        self.active = np.zeros(n, dtype=bool)

    def fill_packed(
        self,
        rows: Sequence[int],
        slot_tasks: Sequence[Optional[Task]],
        packs: Sequence[PackEntry],
    ) -> None:
        """Write the already-resolved packs for ``rows`` in two stacked
        numpy assignments."""
        self.booked_mat[rows] = np.stack([p[0].data for p in packs])
        self.norm_mat[rows] = np.stack([p[1] for p in packs])
        self.remote[rows] = np.fromiter(
            (p[2] for p in packs), dtype=bool, count=len(rows)
        )
        self.active[rows] = True
        tasks = self.tasks
        booked = self.booked
        for i, p in zip(rows, packs):
            tasks[i] = slot_tasks[i]
            booked[i] = p[0]

    def set_slot(self, row: int, task: Optional[Task]) -> None:
        if task is None:
            self.active[row] = False
            self.tasks[row] = None
            self.booked[row] = None
            return
        booked, norm, remote = self.index.pack(task, self.machine_id)
        self.tasks[row] = task
        self.booked[row] = booked
        self.booked_mat[row] = booked.data
        self.norm_mat[row] = norm
        self.remote[row] = remote
        self.active[row] = True

    def active_rows(self) -> np.ndarray:
        return np.nonzero(self.active)[0]

    def refresh_stage(self, stage_index, stage: Stage) -> None:
        """Re-resolve one stage's representatives after a placement
        claimed the previous ones; every other block is untouched.  The
        table's cached queue-front for the stage is dropped first (the
        claim made it stale for every machine) and re-resolved here."""
        base = self.table.stage_row.get(stage.stage_id)
        if base is None:
            return
        self.table.invalidate_stage_rep(stage.stage_id)
        local = stage_index.local_candidate(stage, self.machine_id)
        other = self.table.any_rep_for(base >> 1, stage, stage_index)
        if other is local:
            other = None
        self.set_slot(base, local)
        self.set_slot(base + 1, other)
