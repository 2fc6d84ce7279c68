"""Tetris: multi-resource packing + shortest-remaining-work + fairness knob.

The decision procedure (Section 3):

1. **Fairness knob** ``f`` (§3.4) — sort the runnable jobs by how far they
   are below fair share (any :class:`FairnessPolicy`); only tasks of the
   first ``ceil((1 - f) * |J|)`` jobs are candidates.  ``f = 0`` is the
   most efficient schedule, ``f -> 1`` strictly fair.
2. **Barrier knob** ``b`` (§3.5) — if a candidate stage has finished more
   than a ``b`` fraction of its tasks, its stragglers get strict
   preference (they gate a barrier, so finishing them is cheap and
   valuable).
3. **Packing score** (§3.2) — for each candidate task that *fits* the
   machine on every considered dimension (peak demands satisfiable, so
   over-allocation is impossible), compute the alignment between its
   placement-adjusted demand vector and the machine's free vector, both
   normalized by capacity.  Tasks reading remote input are penalized by
   ``remote_penalty`` and their remote sources are checked for disk/NIC
   headroom.
4. **SRTF term** (§3.3) — combine alignment ``a`` with the job's
   remaining-work score ``p`` as ``a - m * (ā/p̄) * p``, where the bars are
   averages over the current candidates.  (The paper writes the combined
   score as a weighted sum of the alignment and remaining-work terms with
   ``ε = ā/p̄``; since lower ``p`` must win, the remaining-work term enters
   with a negative sign.)  ``ε`` is computed once over the *full*
   candidate set, before any barrier filtering, so the SRTF weight does
   not silently change when barrier stragglers exist.  Place the argmax;
   repeat until nothing fits.

Two execution strategies produce **identical placements**:

- the *scalar* path (``vectorized=False``) scores one candidate at a
  time through :class:`ResourceVector` objects — the reference oracle;
- the *vectorized* path (default) reads the per-stage candidate rows of
  :mod:`repro.schedulers.candidates`: every stage's locality-pool front
  and stage-queue front, booked on every machine and kept across rounds
  by dirty entries.  A round drops the machines on which no row fits
  (:class:`PlaceabilityPlane`); a visit gathers its machine's rows of
  every round stage in one fancy index, and each iteration fit-checks
  them in one numpy comparison.  A lone row that fits wins unscored;
  the few that fit otherwise (usually two) are scored in Python floats;
  above ``_FLOAT_ROWS`` kept rows numpy's flat per-call cost wins and
  the iteration scores them in numpy passes.  Both give the same
  doubles.  A placement refreshes only the claimed stage's rows.  Rows
  are dropped when estimates can move (task completions under a
  learning estimator) and when a stage's shuffle inputs resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.resources import EPSILON, ResourceVector, ordered_sum
from repro.schedulers.alignment import (
    AlignmentScorer,
    get_scorer,
)
from repro.schedulers.base import Placement, Scheduler
from repro.schedulers.candidates import (
    CandidateIndex,
    PlaceabilityPlane,
    RoundTable,
)
from repro.schedulers.fairness_policy import DRFFairnessPolicy, FairnessPolicy
from repro.schedulers.stage_index import StageIndex
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry
    from repro.profiling import Profiler

__all__ = ["TetrisConfig", "TetrisScheduler"]

#: a round judges its machines before visiting them only from this many
#: on: below it the visits cost less than the placeability plane
_PLANE_MIN_VISITS = 8

#: a fill-loop iteration scores its kept rows in Python floats up to this
#: many rows, above it in numpy passes: numpy's per-call cost is flat, the
#: floats' grows per row, and the two cross at about nine rows
#: (docs/performance.md, "The float path")
_FLOAT_ROWS = 8


def _normalized(
    row: List[float], divisors: List[Optional[float]]
) -> List[float]:
    """``row`` masked and divided by capacity: ``row[j] / divisors[j]``,
    0.0 where the divisor is None (dimension not considered, or no
    capacity), as ``_masked(v).normalized_by(capacity)`` computes it."""
    return [d / c if c is not None else 0.0 for d, c in zip(row, divisors)]


@dataclass(frozen=True)
class TetrisConfig:
    """Tetris's knobs, with the paper's defaults.

    - ``fairness_knob`` f in [0, 1): 0.25 achieves most of the efficiency
      with negligible unfairness (Figure 8);
    - ``barrier_knob`` b in [0, 1): 0.9 for the Facebook workload
      (Figure 10); b = 0 disables barrier preference, matching the
      paper's plots where b = 0 means no tasks are treated
      preferentially;
    - ``remote_penalty``: multiplicative alignment penalty for remote
      reads, flat between ~5% and 30% (Section 5.3.3);
    - ``srtf_multiplier`` m: weight of the remaining-work term, m = 1 is
      the recommended ``ε = ā/p̄`` (Section 5.3.3);
    - ``alignment_weight``: weight of the packing term (0 gives the
      SRTF-only ablation);
    - ``considered_dims``: restrict packing checks to a subset (the
      CPU+memory-only ablation of Section 5.3.1); None means all;
    - ``starvation_timeout``: the paper's Section 3.5 *future work* —
      reserve machine resources for starved tasks.  When a stage with
      runnable tasks has placed nothing for this many seconds, its
      largest waiting task gets a machine reserved: nothing else is
      scheduled there until the task fits.  ``None`` (default) disables
      it, matching the published system;
    - ``progress_aware_srtf``: Section 3.5's *future demands* note ("each
      job manager can estimate when an assigned task will finish").
      When on, a job's remaining-work score credits running tasks for
      the progress they have already made, so a job whose last wave is
      almost done looks as short as it really is.  Off by default,
      matching the published system;
    - ``vectorized``: use the batched packing engine (candidate rows
      kept across rounds, one numpy fit check per fill-loop iteration,
      the kept rows scored in floats or, above ``_FLOAT_ROWS`` rows,
      in numpy passes).  Placements are identical to the scalar path;
      flip off to run the scalar reference oracle.
    """

    fairness_knob: float = 0.25
    barrier_knob: float = 0.9
    remote_penalty: float = 0.1
    srtf_multiplier: float = 1.0
    alignment_weight: float = 1.0
    scorer: str = "cosine"
    considered_dims: Optional[Tuple[str, ...]] = None
    starvation_timeout: Optional[float] = None
    progress_aware_srtf: bool = False
    vectorized: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.fairness_knob < 1.0:
            raise ValueError(f"fairness knob must be in [0,1): {self.fairness_knob}")
        if not 0.0 <= self.barrier_knob < 1.0:
            raise ValueError(f"barrier knob must be in [0,1): {self.barrier_knob}")
        if not 0.0 <= self.remote_penalty <= 1.0:
            raise ValueError(f"remote penalty must be in [0,1]: {self.remote_penalty}")
        if self.srtf_multiplier < 0 or self.alignment_weight < 0:
            raise ValueError("weights must be non-negative")
        if self.starvation_timeout is not None and self.starvation_timeout <= 0:
            raise ValueError("starvation_timeout must be positive or None")


class _Candidate:
    __slots__ = ("task", "booked", "alignment", "remaining_work")

    def __init__(self, task, booked, alignment, remaining_work):
        self.task = task
        self.booked = booked
        self.alignment = alignment
        self.remaining_work = remaining_work


class TetrisScheduler(Scheduler):
    """The paper's scheduler."""

    name = "tetris"

    def __init__(
        self,
        config: Optional[TetrisConfig] = None,
        fairness_policy: Optional[FairnessPolicy] = None,
        group_of=None,
    ):
        """``group_of`` optionally maps a job to a group/queue name;
        the fairness knob then restricts *groups* instead of jobs
        (Section 3.4: "the job (or group of jobs) that is currently
        furthest from fair share")."""
        super().__init__()
        self.config = config if config is not None else TetrisConfig()
        self.fairness_policy = (
            fairness_policy if fairness_policy is not None else DRFFairnessPolicy()
        )
        self.group_of = group_of
        self.scorer: AlignmentScorer = get_scorer(self.config.scorer)
        self.index = StageIndex()
        #: optional timing sink (repro.profiling.Profiler)
        self.profiler: Optional["Profiler"] = None
        #: cached SRTF scores: job_id -> remaining work, task_id -> its term
        self._job_work: Dict[int, float] = {}
        self._task_work: Dict[int, float] = {}
        #: work terms computed at stage time by :meth:`prewarm_job`,
        #: consumed (popped) by :meth:`on_job_arrival`
        self._prewarmed_work: Dict[int, float] = {}
        #: remote bandwidth granted at source machines: machine_id ->
        #: (diskr+netout) rate, and task_id -> [(machine_id, rate)] to undo.
        #: Tetris checks that remote reads have headroom at *every* machine
        #: holding task input (Section 3.2); that check is only meaningful
        #: if the scheduler remembers what it has already granted.
        self._remote_granted: Dict[int, float] = {}
        self._remote_by_task: Dict[int, List[Tuple[int, float]]] = {}
        #: bumped by every ledger mutation, so the fill loop's in-round
        #: remote-headroom verdicts are validated with one integer compare
        self._grant_gen = 0
        #: remote-read grants charged and starved-stage reservations made
        self.remote_grants = 0
        self.reservations_made = 0
        #: starvation prevention: per-stage last placement time and the
        #: current machine reservations (machine_id -> Stage), both keyed
        #: by the stable ``stage_id`` (object ids can be recycled by the
        #: allocator across back-to-back runs)
        self._stage_last_placement: Dict[int, float] = {}
        self._reservations: Dict[int, Stage] = {}
        #: every live stage's two candidate rows on every machine, kept
        #: across rounds; read by the vectorized path, dropped on
        #: estimate updates and shuffle-input resolution
        self.candidates = CandidateIndex()
        #: the current ``schedule()`` round's stages and their rows
        #: (None outside a round)
        self._round_table: Optional[RoundTable] = None
        self._dims_mask: Optional[np.ndarray] = None
        self._mask_all = True
        self._divisors: List[List[Optional[float]]] = []
        self._masked_names: Tuple[str, ...] = ()
        self._use_vectorized = self.config.vectorized
        self._i_netout = 0
        self._i_diskr = 0
        #: grant-independent remote-transfer plans:
        #: task_id -> machine_id -> ((locations, rate), ...)
        self._remote_plans: Dict[int, Dict[int, tuple]] = {}
        #: opt-out for the round's placeability plane: ``False`` visits
        #: every machine.  Its only caller is the reference side of the
        #: plane-identity tests (``tests/test_soa_identity.py``), which
        #: hold the skipping rounds bit-identical to the unskipped ones.
        self.prefilter_machines = True
        #: cumulative tallies: machines rounds were asked to look at,
        #: machines filled (the rest were dropped as provably unplaceable),
        #: fills that placed something; planes built, stage rows judged
        self.visit_stats: Dict[str, int] = {
            "machines_considered": 0,
            "machines_visited": 0,
            "visits_productive": 0,
            "plane_rounds": 0,
            "plane_stage_rows": 0,
        }

    def declare_metrics(self, registry: "Registry") -> None:
        """The scheduler's families, read from its plain tallies."""
        self.candidates.declare_metrics(registry)
        registry.counter(
            "repro_tetris_remote_grants_total",
            "Remote-read bandwidth grants charged to source machines",
            lambda: self.remote_grants,
        )
        registry.gauge(
            "repro_tetris_remote_ledger_machines",
            "Machines with outstanding remote-read grants",
            lambda: len(self._remote_granted),
        )
        registry.counter(
            "repro_tetris_reservations_total",
            "Machines reserved for starved stages",
            lambda: self.reservations_made,
        )
        registry.counter(
            "repro_tetris_machine_visits_total",
            "Machines offered to a Tetris round by outcome: skipped as "
            "provably unplaceable, filled but placed nothing (empty), "
            "or placed at least one task (productive)",
            self._visits_by_outcome,
            labelnames=("outcome",),
        )
        registry.counter(
            "repro_tetris_placeability_rows_total",
            "Stage rows of the round placeability plane computed or "
            "recomputed (the plane's own work, next to the visits it "
            "saved)",
            lambda: self.visit_stats["plane_stage_rows"],
        )

    def _visits_by_outcome(self) -> Dict[str, int]:
        stats = dict(self.visit_stats)  # one copy: a round's flush or none
        visited = stats["machines_visited"]
        return {
            "skipped": stats["machines_considered"] - visited,
            "empty": visited - stats["visits_productive"],
            "productive": stats["visits_productive"],
        }

    # -- wiring -----------------------------------------------------------------
    def bind(self, cluster, estimator=None, tracker=None) -> None:
        super().bind(cluster, estimator=estimator, tracker=tracker)
        self._dims_mask = cluster.model.mask(self.config.considered_dims)
        self._mask_all = bool(self._dims_mask.all())
        # the float path's normalization, per machine (capacities are
        # fixed): a considered dimension with non-zero capacity is
        # divided by it, every other one reads 0.0
        dims_on = self._dims_mask.tolist()
        self._divisors = [
            [
                c if on and c > EPSILON else None
                for c, on in zip(m.capacity.data.tolist(), dims_on)
            ]
            for m in cluster.machines
        ]
        self.candidates.bind(
            self.estimated_demands, self.index, cluster, self._dims_mask
        )
        self._masked_names = tuple(
            name
            for name, on in zip(cluster.model.names, self._dims_mask)
            if on
        )
        # the candidate index has required both dimensions already
        self._i_netout = cluster.model.index["netout"]
        self._i_diskr = cluster.model.index["diskr"]
        self._remote_plans.clear()

    # -- SRTF bookkeeping -------------------------------------------------------
    def _task_work_term(self, task: Task) -> float:
        """One task's contribution to the job's remaining-work score:
        capacity-normalized total demand x estimated duration (§3.3.1)."""
        capacity = self.cluster.machine_capacity()
        normalized = self.estimated_demands(task).normalized_by(capacity)
        return normalized.total() * task.nominal_duration()

    def prewarm_job(self, job: Job) -> None:
        """Stage-time candidate feeding: compute every task's SRTF work
        term (an estimator call plus vector arithmetic each) before the
        arrival event fires, so the arrival drain's ``on_job_arrival``
        is a cache pop instead of an O(tasks) derivation.  Only safe for
        stable estimators — an unstable one may revise estimates between
        staging and arrival, so the prewarm is skipped and the terms are
        computed on the drain as usual (bit-identical either way)."""
        if self.cluster is None or not self.estimator.stable_estimates:
            return
        for task in job.all_tasks():
            self._prewarmed_work[task.task_id] = self._task_work_term(task)

    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self.index.add_job(job)
        for stage in job.dag:
            if stage.is_released():
                self._stage_last_placement[stage.stage_id] = time
        total = 0.0
        prewarmed = self._prewarmed_work
        for task in job.all_tasks():
            term = prewarmed.pop(task.task_id, None)
            if term is None:
                term = self._task_work_term(task)
            self._task_work[task.task_id] = term
            total += term
        self._job_work[job.job_id] = total

    def on_stage_released(self, stage, time: float) -> None:
        super().on_stage_released(stage, time)
        self.index.add_stage(stage)
        self._stage_last_placement[stage.stage_id] = time
        # shuffle inputs were just pinned to source machines: the stage's
        # candidate rows (booked against the old inputs) and any
        # remote-transfer plans derived from the old locations are stale
        self.candidates.invalidate_stage(stage)
        for task in stage.tasks:
            self._remote_plans.pop(task.task_id, None)

    def on_task_failed(self, task: Task, time: float) -> None:
        super().on_task_failed(task, time)
        self._release_remote_grants(task.task_id)

    def on_task_finished(self, task: Task, time: float) -> None:
        super().on_task_finished(task, time)
        self.index.forget(task)
        self._release_remote_grants(task.task_id)
        self._remote_plans.pop(task.task_id, None)
        if self.estimator.stable_estimates:
            # the stage's rows stay valid for its surviving peers
            self.candidates.forget_task(task)
        else:
            # a completion can move every estimate (peer means, template
            # history): drop every stage's rows and transfer plans
            self.candidates.clear()
            self._remote_plans.clear()
        term = self._task_work.pop(task.task_id, 0.0)
        job_id = task.job.job_id
        if job_id in self._job_work:
            self._job_work[job_id] = max(0.0, self._job_work[job_id] - term)
            if task.job.is_finished:
                self._job_work.pop(job_id, None)
        if task.job.is_finished:
            for stage in task.job.dag:
                self._stage_last_placement.pop(stage.stage_id, None)

    # -- candidate job set (fairness knob) ------------------------------------
    def candidate_jobs(self) -> List[Job]:
        jobs = self.runnable_jobs()
        if not jobs:
            return []
        if self.group_of is not None:
            return self._candidate_jobs_by_group(jobs)
        jobs.sort(
            key=lambda j: (-self.fairness_policy.deficit(self, j), j.job_id)
        )
        keep = max(1, math.ceil((1.0 - self.config.fairness_knob) * len(jobs)))
        return jobs[:keep]

    def _candidate_jobs_by_group(self, jobs: List[Job]) -> List[Job]:
        """Fairness across groups: the most-deprived (1-f) fraction of
        groups contribute candidates; within a group, most-deprived
        jobs first."""
        groups: Dict[str, List[Job]] = {}
        for job in jobs:
            groups.setdefault(self.group_of(job), []).append(job)
        capacity = self.cluster.total_capacity()
        fair = 1.0 / max(len(groups), 1)

        def group_deficit(members: List[Job]) -> float:
            total = self.cluster.model.zeros()
            for job in members:
                alloc = self.job_alloc.get(job.job_id)
                if alloc is not None:
                    total.add_inplace(alloc)
            return fair - total.dominant_share(capacity)

        ordered = sorted(
            groups.items(),
            key=lambda kv: (-group_deficit(kv[1]), kv[0]),
        )
        keep = max(
            1, math.ceil((1.0 - self.config.fairness_knob) * len(ordered))
        )
        out: List[Job] = []
        for _, members in ordered[:keep]:
            members.sort(
                key=lambda j: (
                    -self.fairness_policy.deficit(self, j), j.job_id,
                )
            )
            out.extend(members)
        return out

    # -- packing checks -----------------------------------------------------------
    def _fits(self, booked: ResourceVector, free: ResourceVector) -> bool:
        dims = self.config.considered_dims
        if dims is None:
            return booked.fits_in(free)
        return all(booked.get(d) <= free.get(d) + EPSILON for d in dims)

    def _masked(self, vec: ResourceVector) -> ResourceVector:
        dims = self.config.considered_dims
        if dims is None:
            return vec
        masked = ResourceVector.zeros_like(vec)
        for d in dims:
            masked.set(d, vec.get(d))
        return masked

    def _pick_remote_source(self, locations: Sequence[int]) -> int:
        """The replica machine with the most remaining remote-read headroom.

        Charging every transfer to ``locations[0]`` would serialize all
        readers of a replicated block on one source; instead pick the
        holder whose min(netout, diskr) headroom — net of rates already
        granted to other remote readers — is largest.  Deterministic:
        ties keep the earliest listed replica.
        """
        if len(locations) == 1:
            return locations[0]
        best = locations[0]
        best_headroom = -math.inf
        i_netout, i_diskr = self._i_netout, self._i_diskr
        state = self.cluster.state
        granted = self._remote_granted
        for machine_id in locations:
            # row scalars off the maintained free matrix: same storage
            # free_clamped_view() refreshes, same floats
            row = state.free_clamped_row(machine_id)
            headroom = min(row[i_netout], row[i_diskr]) - granted.get(
                machine_id, 0.0
            )
            if headroom > best_headroom:
                best_headroom = headroom
                best = machine_id
        return best

    def _remote_transfer_plan(self, task: Task, machine_id: int) -> tuple:
        """The grant-independent half of :meth:`_remote_requirements`:
        ``(replica locations, transfer rate)`` per remote input.

        For a fixed (task, machine) pair this depends only on the
        demand estimate and the input pinning, both stable between the
        invalidation points (stage shuffle resolution, unstable-
        estimator flush), so it is memoized; only the *source choice*
        moves with the grant ledger and stays dynamic.
        """
        plans = self._remote_plans.get(task.task_id)
        if plans is None:
            plans = self._remote_plans[task.task_id] = {}
        plan = plans.get(machine_id)
        if plan is None and "*" in plans and not any(
            machine_id in inp.locations for inp in task.inputs
        ):
            return plans["*"]  # the interned all-remote plan, see below
        if plan is None:
            total_remote = task.remote_input_mb(machine_id)
            if total_remote <= 0:
                plan = ()
            else:
                # a machine holding no replica of any input sees the
                # all-remote plan, which is machine-independent (the
                # netin estimate is capped at the uniform machine
                # capacity): intern it under a shared key so every such
                # machine reuses one computed tuple
                generic = not any(
                    inp.is_local_to(machine_id) for inp in task.inputs
                )
                plan = plans.get("*") if generic else None
                if plan is None:
                    est_netin = min(
                        self.estimated_demands(task).get("netin"),
                        self.cluster.machine_capacity().get("netin"),
                    )
                    plan = tuple(
                        (
                            inp.locations,
                            est_netin * (inp.size_mb / total_remote),
                        )
                        for inp in task.inputs
                        if not inp.is_local_to(machine_id) and inp.locations
                    )
                    if generic:
                        plans["*"] = plan
            plans[machine_id] = plan
        return plan

    def _remote_requirements(
        self, task: Task, machine_id: int
    ) -> List[Tuple[int, float]]:
        """(source machine, transfer rate) pairs for the task's remote reads."""
        return [
            (self._pick_remote_source(locations), rate)
            for locations, rate in self._remote_transfer_plan(task, machine_id)
        ]

    def _remote_sources_ok(self, task: Task, machine_id: int) -> bool:
        """Remote reads also need disk-read and NIC-out headroom at every
        machine holding the task's input (Section 3.2), net of what has
        already been granted to other remote readers.

        A replica passes iff ``min(netout, diskr) - granted + ε >=
        required``, and :meth:`_pick_remote_source` picks the replica
        maximizing exactly that headroom — so *the picked source passes
        iff any replica passes*, and one fused max-headroom scan per
        input replaces the argmax pass plus the re-check of the winner.
        """
        plan = self._remote_transfer_plan(task, machine_id)
        if not plan:
            return True
        i_netout, i_diskr = self._i_netout, self._i_diskr
        state = self.cluster.state
        granted = self._remote_granted
        for locations, required in plan:
            best = -math.inf
            for source_id in locations:
                row = state.free_clamped_row(source_id)
                headroom = row[i_netout]
                d = row[i_diskr]
                if d < headroom:
                    headroom = d
                headroom -= granted.get(source_id, 0.0)
                if headroom > best:
                    best = headroom
            if best + EPSILON < required:
                return False
        return True

    def _grant_remote(self, task: Task, machine_id: int) -> None:
        grants = self._remote_requirements(task, machine_id)
        if grants:
            self._remote_by_task[task.task_id] = grants
            self._grant_gen += 1
            for source_id, rate in grants:
                self._remote_granted[source_id] = (
                    self._remote_granted.get(source_id, 0.0) + rate
                )
            self.remote_grants += len(grants)

    def _release_remote_grants(self, task_id: int) -> None:
        """Undo a task's grants, clamping float drift and purging empties.

        Repeated ``-= rate`` arithmetic can leave tiny residues (positive
        or negative); anything at or below EPSILON is treated as zero and
        the entry dropped, so a drained workload leaves an empty ledger.
        """
        grants = self._remote_by_task.pop(task_id, ())
        if grants:
            self._grant_gen += 1
        for machine_id, rate in grants:
            left = self._remote_granted.get(machine_id, 0.0) - rate
            if left <= EPSILON:
                self._remote_granted.pop(machine_id, None)
            else:
                self._remote_granted[machine_id] = left

    def check_remote_ledger(self) -> None:
        """Invariant: per-machine granted rate is non-negative and never
        exceeds the sum of the live per-task grants charged to it."""
        live: Dict[int, float] = {}
        for grants in self._remote_by_task.values():
            for machine_id, rate in grants:
                live[machine_id] = live.get(machine_id, 0.0) + rate
        for machine_id, granted in self._remote_granted.items():
            if granted < -EPSILON:
                raise AssertionError(
                    f"negative remote grant at machine {machine_id}: {granted}"
                )
            if granted > live.get(machine_id, 0.0) + 1e-6:
                raise AssertionError(
                    f"machine {machine_id} has {granted:.9f} MB/s granted "
                    f"but only {live.get(machine_id, 0.0):.9f} MB/s of live "
                    "task grants"
                )

    def _score_alignment(
        self,
        booked: ResourceVector,
        free: ResourceVector,
        remote: bool,
        machine_id: Optional[int] = None,
    ) -> float:
        """Alignment of a demand vector with a machine's free vector.

        Both vectors are normalized by *that machine's* capacity
        (Section 3.2), which keeps scores comparable on heterogeneous
        clusters.
        """
        if machine_id is None:
            capacity = self.cluster.machine_capacity()
        else:
            capacity = self.cluster.machine(machine_id).capacity
        demand_norm = self._masked(booked).normalized_by(capacity)
        free_norm = self._masked(free).normalized_by(capacity)
        score = self.scorer.score(
            demand_norm.data.tolist(), free_norm.data.tolist()
        )
        if remote:
            score *= 1.0 - self.config.remote_penalty
        return score

    # -- the decision loop ------------------------------------------------------
    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        prof = self.profiler
        start = perf_counter() if prof is not None else 0.0
        placements: List[Placement] = []
        jobs = self.candidate_jobs()
        if jobs:
            if self.trace is not None:
                runnable = self.runnable_jobs()
                kept_ids = {j.job_id for j in jobs}
                self.trace.emit(
                    "fairness_filter",
                    time=time,
                    total_jobs=len(runnable),
                    kept_jobs=len(jobs),
                    dropped=sorted(
                        j.name for j in runnable if j.job_id not in kept_ids
                    ),
                )
            machine_ids = self.consume_dirty_machines(machine_ids)
            if machine_ids is None or machine_ids:
                if self.config.starvation_timeout is not None:
                    self._update_reservations(jobs, time)
                barrier_stages = None
                if self._use_vectorized:
                    # the stages, their rows, SRTF scores and barrier
                    # flags of this round, shared by every machine visit
                    self._round_table = self.candidates.round_table(
                        jobs,
                        lambda job: self._remaining_work(job, time),
                        self._past_barrier,
                    )
                else:
                    barrier_stages = self._barrier_stages(jobs)
                visit = self.iter_machine_ids(machine_ids)
                # a machine on which no round stage can keep a row places
                # nothing and mutates nothing: the plane drops its visit.
                # Off on the oracle path, under a trace (a skipped visit
                # emits no events) and with a live reservation (its
                # machine must be visited even when nothing fits).
                plane = None
                visited = productive = 0
                try:
                    if (
                        self.prefilter_machines
                        and self._use_vectorized
                        and len(visit) >= _PLANE_MIN_VISITS
                        and self.trace is None
                        and not self._reservations
                    ):
                        plane = PlaceabilityPlane(
                            self._round_table,
                            self._free_matrix(),
                            self._remote_sources_ok,
                        )
                    for machine_id in visit:
                        if plane is not None and not plane.placeable(
                            machine_id
                        ):
                            continue
                        placed = self._fill_machine(
                            machine_id, jobs, barrier_stages, time
                        )
                        visited += 1
                        if plane is not None:
                            plane.note_visit([p.task for p in placed])
                        if placed:
                            productive += 1
                            placements.extend(placed)
                finally:
                    self._round_table = None
                # per-round flush of the visit tallies (nothing per
                # visit), in one dict.update so that a scrape copying
                # the dict sees all of a round's tallies or none
                stats = self.visit_stats
                stats.update(
                    machines_considered=stats["machines_considered"]
                    + len(visit),
                    machines_visited=stats["machines_visited"] + visited,
                    visits_productive=stats["visits_productive"]
                    + productive,
                )
                if plane is not None:
                    stats["plane_rounds"] += 1
                    stats["plane_stage_rows"] += plane.rows_computed
        if prof is not None:
            prof.record("tetris.schedule", perf_counter() - start)
        return placements

    # -- starvation prevention (Section 3.5 future work) ---------------------
    def _update_reservations(self, jobs: Sequence[Job], time: float) -> None:
        """Reserve a machine for each starved stage.

        A stage is starved when it has had runnable tasks for longer than
        ``starvation_timeout`` without a single placement.  It gets the
        machine with the most free capacity reserved: the machine stops
        accepting other tasks, so freed resources accumulate until the
        starved task fits.
        """
        timeout = self.config.starvation_timeout
        # drop stale reservations (stage drained or finished)
        for machine_id, stage in list(self._reservations.items()):
            if stage.is_finished() or not self.index.has_candidates(stage):
                del self._reservations[machine_id]
        reserved_stages = {s.stage_id for s in self._reservations.values()}
        for job in jobs:
            for stage in self.index.indexed_stages(job):
                if stage.stage_id in reserved_stages:
                    continue
                last = self._stage_last_placement.get(stage.stage_id)
                if last is None or time - last <= timeout:
                    continue
                machine_id = self._pick_reservation_machine()
                if machine_id is None:
                    return
                self._reservations[machine_id] = stage
                reserved_stages.add(stage.stage_id)
                self.reservations_made += 1
                if self.trace is not None:
                    self.trace.emit(
                        "reservation",
                        time=time,
                        job=job.name,
                        stage=stage.name,
                        machine=machine_id,
                    )

    def _pick_reservation_machine(self) -> Optional[int]:
        """The unreserved machine with the most normalized free capacity.

        One cluster-wide free matrix and a masked argmax replace the
        per-machine ``ResourceVector`` allocations; numpy's first-max
        argmax matches the scalar loop's strict-``>`` tie-break, and
        reserved machines are masked to ``-inf`` (free totals are never
        negative, so any unreserved machine still wins).
        """
        machines = self.cluster.machines
        if not machines:
            return None
        free = np.stack([m.free_clamped_view().data for m in machines])
        caps = np.stack([m.capacity.data for m in machines])
        nz = caps > EPSILON
        norm = np.zeros_like(free)
        norm[nz] = free[nz] / caps[nz]
        scores = norm.sum(axis=1)
        if self._reservations:
            reserved = np.fromiter(
                (m.machine_id in self._reservations for m in machines),
                dtype=bool,
                count=len(machines),
            )
            if reserved.all():
                return None
            scores[reserved] = -np.inf
        return machines[int(np.argmax(scores))].machine_id

    def _past_barrier(self, stage: Stage) -> bool:
        """Whether ``stage`` is past the barrier threshold: its
        stragglers get priority (§3.5)."""
        knob = self.config.barrier_knob
        return (
            knob > 0
            and not stage.is_finished()
            and stage.is_released()
            and stage.num_finished > 0
            and stage.finished_fraction >= knob
        )

    def _barrier_stages(self, jobs: Sequence[Job]) -> set:
        """Stages past the barrier threshold (their stragglers get priority)."""
        if self.config.barrier_knob <= 0:
            return set()
        return {
            stage.stage_id
            for job in jobs
            for stage in job.dag
            if self._past_barrier(stage)
        }

    def _fill_machine(
        self,
        machine_id: int,
        jobs: Sequence[Job],
        barrier_stages: set,
        time: float,
    ) -> List[Placement]:
        placements: List[Placement] = []
        free = self.machine_free(machine_id)
        reserved_stage = self._reservations.get(machine_id)
        if reserved_stage is not None:
            # a starved stage holds this machine: admit only its task,
            # and only once it finally fits
            task = self.index.any_candidate(reserved_stage)
            if task is None:
                del self._reservations[machine_id]
            else:
                booked = self.booked_demands(task, machine_id)
                if not self._fits(booked, free):
                    return placements  # keep holding resources free
                free = self._place_candidate(
                    task,
                    booked,
                    machine_id,
                    free,
                    time,
                    placements,
                    via="reservation",
                )
                del self._reservations[machine_id]
        if self._use_vectorized:
            fill = self._fill_loop_vectorized
        else:
            fill = self._fill_loop_scalar
        placements.extend(fill(machine_id, jobs, barrier_stages, free, time))
        return placements

    def _place_candidate(
        self,
        task: Task,
        booked: ResourceVector,
        machine_id: int,
        free: ResourceVector,
        time: float,
        placements: List[Placement],
        via: str = "pack",
        score_info: Optional[Dict[str, float]] = None,
    ) -> ResourceVector:
        """Claim + grant + record one placement; returns the updated free."""
        self.index.claim(task)
        if self._round_table is not None:
            # the claim moved the stage's fronts for every machine not
            # yet visited this round
            self._round_table.refresh(task.stage)
        self._grant_remote(task, machine_id)
        placements.append(Placement(task, machine_id, booked))
        self._stage_last_placement[task.stage.stage_id] = time
        if self.trace is not None:
            self.trace.emit(
                "placement",
                time=time,
                job=task.job.name,
                stage=task.stage.name,
                task=task.index,
                machine=machine_id,
                via=via,
                **(score_info or {}),
            )
        # ``(free - booked).clamp_nonnegative()`` without its temporaries
        return ResourceVector(free.model, np.maximum(free.data - booked.data, 0.0))

    def _fill_loop_scalar(
        self,
        machine_id: int,
        jobs: Sequence[Job],
        barrier_stages: set,
        free: ResourceVector,
        time: float,
    ) -> List[Placement]:
        """The reference decision loop: one candidate at a time."""
        placements: List[Placement] = []
        trace = self.trace
        cfg = self.config
        while True:
            entries: Optional[List[tuple]] = [] if trace is not None else None
            candidates = self._gather_candidates(
                machine_id, jobs, free, time, entries
            )
            if not candidates:
                if entries:
                    self._emit_decision_entries(entries, machine_id, time, 0.0)
                break
            # ε over the FULL candidate set (§3.3), before barrier filtering
            epsilon = self._epsilon(
                [c.alignment for c in candidates],
                [c.remaining_work for c in candidates],
            )
            if entries:
                self._emit_decision_entries(entries, machine_id, time, epsilon)
            barrier_cands = [
                c for c in candidates if c.task.stage.stage_id in barrier_stages
            ]
            pool = barrier_cands if barrier_cands else candidates
            if trace is not None and barrier_cands:
                trace.emit(
                    "barrier_filter",
                    time=time,
                    machine=machine_id,
                    barrier_candidates=len(barrier_cands),
                    candidates=len(candidates),
                )
            best = self._pick_best(pool, epsilon)
            score_info = None
            if trace is not None:
                # the full decomposition behind the argmax (what
                # ``repro explain`` reconstructs): every term is the
                # same plain-float arithmetic the vectorized path
                # reduces to, so the streams stay bit-identical
                srtf_weight = cfg.srtf_multiplier * epsilon
                best_score = (
                    cfg.alignment_weight * best.alignment
                    - srtf_weight * best.remaining_work
                )
                score_info = {
                    "alignment": best.alignment,
                    "remaining_work": best.remaining_work,
                    "combined": best_score,
                    "epsilon": epsilon,
                    "srtf_term": srtf_weight * best.remaining_work,
                    "remote": best.task.remote_input_mb(machine_id) > 0,
                    "pool": len(pool),
                }
                if len(pool) > 1:
                    runner_up = max(
                        cfg.alignment_weight * c.alignment
                        - srtf_weight * c.remaining_work
                        for c in pool
                        if c is not best
                    )
                    score_info["margin"] = best_score - runner_up
            free = self._place_candidate(
                best.task,
                best.booked,
                machine_id,
                free,
                time,
                placements,
                score_info=score_info,
            )
        return placements

    def _violating_dim(
        self, booked: ResourceVector, free: ResourceVector
    ) -> str:
        """The first considered dimension (model order) that overflows."""
        mask = self._dims_mask
        over = booked.data[mask] > free.data[mask] + EPSILON
        return self._masked_names[int(np.argmax(over))]

    def _fit_entry(
        self, task: Task, booked: ResourceVector, free: ResourceVector
    ) -> tuple:
        """A ``fit_reject`` entry carrying the overflow quantities.

        Both decision paths build their entries through this helper, so
        the emitted ``need``/``free`` floats agree bit-for-bit.
        """
        dim = self._violating_dim(booked, free)
        return ("fit", task, dim, float(booked.get(dim)), float(free.get(dim)))

    def _emit_decision_entries(
        self,
        entries: List[tuple],
        machine_id: int,
        time: float,
        epsilon: float,
    ) -> None:
        """Emit one gather round's rejections and scored candidates.

        Both decision paths funnel through here with identical entry
        tuples, so the emitted streams agree bit-for-bit: the combined
        score is recomputed as ``w*a - (m*ε)*p`` from plain floats, which
        matches the vectorized ``scores`` array elementwise.
        """
        trace = self.trace
        cfg = self.config
        srtf_weight = cfg.srtf_multiplier * epsilon
        for entry in entries:
            kind = entry[0]
            if kind == "cand":
                _, cand, remote = entry
                task = cand.task
                trace.emit(
                    "candidate",
                    time=time,
                    job=task.job.name,
                    stage=task.stage.name,
                    task=task.index,
                    machine=machine_id,
                    alignment=cand.alignment,
                    remaining_work=cand.remaining_work,
                    combined=cfg.alignment_weight * cand.alignment
                    - srtf_weight * cand.remaining_work,
                    remote=remote,
                )
            elif kind == "fit":
                _, task, dim, need, avail = entry
                trace.emit(
                    "fit_reject",
                    time=time,
                    job=task.job.name,
                    stage=task.stage.name,
                    task=task.index,
                    machine=machine_id,
                    dim=dim,
                    need=need,
                    free=avail,
                )
            else:
                task = entry[1]
                trace.emit(
                    "remote_reject",
                    time=time,
                    job=task.job.name,
                    stage=task.stage.name,
                    task=task.index,
                    machine=machine_id,
                )

    def _fill_loop_vectorized(
        self,
        machine_id: int,
        jobs: Sequence[Job],
        barrier_stages: set,
        free: ResourceVector,
        time: float,
    ) -> List[Placement]:
        """The batched decision loop over the round's candidate rows.

        A visit gathers the machine's two rows of every round stage
        (booked vectors, remote flags, active flags) from the stages'
        maintained :class:`StageRows`; the per-job SRTF scores and the
        barrier flags are round constants.  Each iteration fit-checks
        the live rows in one numpy comparison (the free vector shrinks
        every placement).  A lone kept row wins unscored (unless a
        trace wants its scores).  Up to ``_FLOAT_ROWS`` kept rows are
        scored in Python floats: the capacity normalization (the
        elementwise division of the scalar path), the scorer's
        :meth:`~AlignmentScorer.score`, the remote penalty, ε, the
        combined score, the barrier pool and a first-max argmax.  More
        kept rows take :meth:`_score_rows_numpy`'s numpy passes, with
        the same operations on the same doubles.  Rows needing a
        remote-headroom check are re-validated whenever the grant ledger
        moved since they last passed; rows without remote input skip
        the check, which is trivially true for them.  A placement
        re-gathers only the claimed stage's two rows.  Every
        floating-point operation mirrors the scalar path's (same values,
        same order), so the argmax — and therefore the placements — are
        identical.
        """
        if self._round_table is None:  # direct call outside a round
            self._round_table = self.candidates.round_table(
                jobs,
                lambda job: self._remaining_work(job, time),
                lambda stage: stage.stage_id in barrier_stages,
            )
            try:
                return self._fill_loop_vectorized(
                    machine_id, jobs, barrier_stages, free, time
                )
            finally:
                self._round_table = None
        cfg = self.config
        placements: List[Placement] = []
        model = self.cluster.model
        cap = self.cluster.machine(machine_id).capacity.data
        divisors = self._divisors[machine_id]
        mask = self._dims_mask
        mask_all = self._mask_all
        score = self.scorer.score
        penalty = 1.0 - cfg.remote_penalty
        trace = self.trace
        table = self._round_table
        stage_remaining = table.stage_remaining
        stage_barrier = table.stage_barrier
        index = self.candidates
        booked, remote, active = index.gather(table, machine_id)
        # remote verdicts: row -> the grant generation it passed at, or
        # False.  Inside a round source free rows do not move and the
        # grant ledger only grows, so a failure is final and a pass
        # holds until the next grant (or until a claim moves the row's
        # task).  A rep away from its input holders reads through one
        # plan on every such machine: its verdicts are the round's.
        verdicts: Dict[int, object] = {}
        shared = table.rep_verdicts
        while True:
            # ``np.logical_and.reduce`` is ``.all`` without its Python
            # wrapper, a microsecond per iteration
            if mask_all:
                fit = np.logical_and.reduce(
                    booked <= free.data + EPSILON, axis=1
                )
            else:
                fit = np.logical_and.reduce(
                    booked[:, mask] <= free.data[mask] + EPSILON, axis=1
                )
            fit &= active
            keep = fit.nonzero()[0]
            remote_flags = remote[keep]
            remote_rows = remote_flags.nonzero()[0]
            if remote_rows.size:
                gen = self._grant_gen
                bad = None
                for k in remote_rows.tolist():
                    i = int(keep[k])
                    memo = verdicts
                    if i & 1 and machine_id not in table.rows[i >> 1].holders:
                        memo = shared
                    seen = memo.get(i)
                    if seen is None or (seen is not False and seen != gen):
                        ok = self._remote_sources_ok(
                            table.task_at(i, machine_id), machine_id
                        )
                        seen = memo[i] = gen if ok else False
                    if seen is False:
                        if bad is None:
                            bad = []
                        bad.append(k)
                if bad is not None:
                    ok = np.ones(keep.size, dtype=bool)
                    ok[bad] = False
                    keep = keep[ok]
                    remote_flags = remote_flags[ok]
            if not keep.size:
                if trace is not None:
                    entries = [
                        ("remote", table.task_at(i, machine_id))
                        if fit[i]
                        else self._fit_entry(
                            table.task_at(i, machine_id),
                            ResourceVector(model, booked[i]),
                            free,
                        )
                        for i in active.nonzero()[0]
                    ]
                    self._emit_decision_entries(
                        entries, machine_id, time, 0.0
                    )
                break
            if trace is None and keep.size == 1:
                # a lone kept row wins whatever it scores
                best_k = 0
            elif keep.size <= _FLOAT_ROWS:
                # the few kept rows, in Python floats: every operation
                # is the numpy pass's below, on the same doubles
                rows = keep.tolist()
                flags = remote_flags.tolist()
                free_norm = _normalized(free.data.tolist(), divisors)
                align = []
                for i, flag in zip(rows, flags):
                    # a basic index per row: fancy ``booked[keep]`` costs
                    # more than the few views
                    a = score(_normalized(booked[i].tolist(), divisors), free_norm)
                    align.append(a * penalty if flag else a)
                kept_remaining = [stage_remaining[i >> 1] for i in rows]
                epsilon = self._epsilon(align, kept_remaining)
                srtf_weight = cfg.srtf_multiplier * epsilon
                weight = cfg.alignment_weight
                scores = [
                    weight * a - srtf_weight * p
                    for a, p in zip(align, kept_remaining)
                ]
                pool = [
                    k for k, i in enumerate(rows) if stage_barrier[i >> 1]
                ] or None
                # first max, like numpy's argmax
                best_k = max(
                    range(len(rows)) if pool is None else pool,
                    key=scores.__getitem__,
                )
            else:
                kept_remaining = table.remaining[keep]
                align, epsilon, scores, pool, best_k = self._score_rows_numpy(
                    booked[keep], free.data, cap, remote_flags,
                    kept_remaining, table.barrier[keep],
                )
                srtf_weight = cfg.srtf_multiplier * epsilon
            if trace is not None:
                pos = {int(i): k for k, i in enumerate(keep)}
                entries = []
                for i in active.nonzero()[0]:
                    task = table.task_at(i, machine_id)
                    kk = pos.get(int(i))
                    if kk is not None:
                        entries.append((
                            "cand",
                            _Candidate(
                                task,
                                None,
                                float(align[kk]),
                                float(kept_remaining[kk]),
                            ),
                            bool(remote_flags[kk]),
                        ))
                    elif not fit[i]:
                        entries.append(
                            self._fit_entry(
                                task, ResourceVector(model, booked[i]), free
                            )
                        )
                    else:
                        entries.append(("remote", task))
                self._emit_decision_entries(entries, machine_id, time, epsilon)
                if pool is not None:
                    trace.emit(
                        "barrier_filter",
                        time=time,
                        machine=machine_id,
                        barrier_candidates=len(pool),
                        candidates=len(keep),
                    )
            best_i = int(keep[best_k])
            best_task = table.task_at(best_i, machine_id)
            score_info = None
            if trace is not None:
                # mirror of the scalar path's decomposition; the entries
                # are the same doubles the scalar loop computes, so every
                # emitted term matches bit-for-bit
                pool_positions = (
                    [int(k) for k in pool]
                    if pool is not None
                    else list(range(len(keep)))
                )
                best_score = float(scores[best_k])
                score_info = {
                    "alignment": float(align[best_k]),
                    "remaining_work": float(kept_remaining[best_k]),
                    "combined": best_score,
                    "epsilon": epsilon,
                    "srtf_term": srtf_weight * float(kept_remaining[best_k]),
                    "remote": bool(remote_flags[best_k]),
                    "pool": len(pool_positions),
                }
                if len(pool_positions) > 1:
                    runner_up = max(
                        float(scores[k])
                        for k in pool_positions
                        if k != best_k
                    )
                    score_info["margin"] = best_score - runner_up
            free = self._place_candidate(
                best_task,
                ResourceVector(model, booked[best_i].copy()),
                machine_id,
                free,
                time,
                placements,
                score_info=score_info,
            )
            index.gather_stage(
                table, best_i >> 1, machine_id, booked, remote, active
            )
            base = best_i & ~1
            verdicts.pop(base, None)
            verdicts.pop(base + 1, None)
        return placements

    def _score_rows_numpy(
        self,
        demand: np.ndarray,
        free_row: np.ndarray,
        cap: np.ndarray,
        remote_flags: np.ndarray,
        kept_remaining: np.ndarray,
        barrier_flags: np.ndarray,
    ) -> tuple:
        """The fill loop's scoring of many kept rows, in numpy passes:
        ``(align, epsilon, scores, pool, best)`` with ``pool`` the
        barrier rows' positions (None without any) and ``best`` the
        winner's position."""
        cfg = self.config
        # masked, then divided by capacity where it is non-zero: the
        # elementwise ops of ``_masked(v).normalized_by(capacity)``
        if not self._mask_all:
            mask = self._dims_mask
            demand = np.where(mask, demand, 0.0)
            free_row = np.where(mask, free_row, 0.0)
        nz = cap > EPSILON
        if nz.all():
            demand = demand / cap
            free_row = free_row / cap
        else:
            demand = np.divide(demand, cap, out=np.zeros_like(demand), where=nz)
            free_row = np.divide(
                free_row, cap, out=np.zeros_like(free_row), where=nz
            )
        align = self.scorer.score_batch(demand, free_row)
        if remote_flags.any():
            align = np.where(
                remote_flags, align * (1.0 - cfg.remote_penalty), align
            )
        epsilon = self._epsilon(align.tolist(), kept_remaining.tolist())
        srtf_weight = cfg.srtf_multiplier * epsilon
        scores = cfg.alignment_weight * align - srtf_weight * kept_remaining
        if not barrier_flags.any():
            return align, epsilon, scores, None, int(np.argmax(scores))
        pool = np.nonzero(barrier_flags)[0]
        return align, epsilon, scores, pool, int(pool[np.argmax(scores[pool])])

    def _remaining_work(self, job: Job, time: float) -> float:
        """The job's SRTF score, optionally progress-aware (§3.5).

        The cached score counts every unfinished task at full weight;
        with ``progress_aware_srtf`` the estimated elapsed fraction of
        each *running* task is credited back — the job manager's
        estimate of when its assigned tasks will finish.
        """
        base = self._job_work.get(job.job_id, 0.0)
        if not self.config.progress_aware_srtf:
            return base
        credit = 0.0
        for task in job.running_tasks():
            nominal = task.nominal_duration()
            if nominal <= 0 or task.start_time is None:
                continue
            elapsed_fraction = min((time - task.start_time) / nominal, 1.0)
            credit += (
                self._task_work.get(task.task_id, 0.0) * elapsed_fraction
            )
        return max(base - credit, 0.0)

    def _gather_candidates(
        self,
        machine_id: int,
        jobs: Sequence[Job],
        free: ResourceVector,
        time: float = 0.0,
        event_log: Optional[List[tuple]] = None,
    ) -> List[_Candidate]:
        """Fit-checked, scored candidates for one machine.

        When ``event_log`` is given (tracing on), every considered task
        appends an entry — ``("fit", task, dim)``, ``("remote", task)``
        or ``("cand", candidate, remote)`` — in iteration order, for
        :meth:`_emit_decision_entries` once ε is known.
        """
        candidates: List[_Candidate] = []
        for job in jobs:
            remaining = self._remaining_work(job, time)
            for stage in self.index.indexed_stages(job):
                for task in self.index.representatives(stage, machine_id):
                    booked = self.booked_demands(task, machine_id)
                    if not self._fits(booked, free):
                        if event_log is not None:
                            event_log.append(
                                self._fit_entry(task, booked, free)
                            )
                        continue
                    if not self._remote_sources_ok(task, machine_id):
                        if event_log is not None:
                            event_log.append(("remote", task))
                        continue
                    remote = task.remote_input_mb(machine_id) > 0
                    alignment = self._score_alignment(
                        booked, free, remote, machine_id
                    )
                    cand = _Candidate(task, booked, alignment, remaining)
                    candidates.append(cand)
                    if event_log is not None:
                        event_log.append(("cand", cand, remote))
        return candidates

    @staticmethod
    def _epsilon(
        alignments: Sequence[float], works: Sequence[float]
    ) -> float:
        """The SRTF weight ε = ā/p̄ over the full candidate set (§3.3)."""
        n = len(alignments)
        if n == 0:
            return 0.0
        a_bar = ordered_sum(alignments) / n
        p_bar = ordered_sum(works) / n
        return (a_bar / p_bar) if p_bar > 0 else 0.0

    def _pick_best(
        self,
        candidates: Sequence[_Candidate],
        epsilon: Optional[float] = None,
    ) -> _Candidate:
        """Combined score: alignment minus the normalized SRTF term.

        ``epsilon`` must be the ā/p̄ weight computed over the *full*
        candidate set; recomputing it over a barrier-filtered pool would
        silently change the SRTF weight whenever stragglers exist.  It
        is derived from ``candidates`` only when omitted (callers that
        have no wider pool).
        """
        cfg = self.config
        if epsilon is None:
            epsilon = self._epsilon(
                [c.alignment for c in candidates],
                [c.remaining_work for c in candidates],
            )

        def combined(c: _Candidate) -> float:
            return (
                cfg.alignment_weight * c.alignment
                - cfg.srtf_multiplier * epsilon * c.remaining_work
            )

        return max(candidates, key=combined)
