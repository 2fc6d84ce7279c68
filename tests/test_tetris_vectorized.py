"""The batched packing engine and the scheduler-state bugfixes.

Covers:

- the equivalence bar for the vectorized path: on fixed seeds, end-to-end
  simulations under the scalar and vectorized Tetris produce *identical*
  placements (same task, same machine, same instant) across scorers,
  masked dimensions, knob settings, estimators, trackers and failure
  injection;
- stable ``stage_id`` keys: back-to-back runs never alias per-stage
  scheduler state the way recycled ``id(stage)`` values could;
- the remote-grant ledger: clamped at zero, empty once the workload
  drains, and consistent with the live per-task grants throughout a run
  (``check_remote_ledger`` after every grant and release);
- the replica choice for remote reads: the source with the most
  remaining headroom, not blindly ``locations[0]``;
- ε = ā/p̄ computed over the full candidate set, unchanged by barrier
  filtering (§3.3);
- the scheduler-side dirty-machine mirror.
"""

import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import NoisyEstimator, ProfilingEstimator
from repro.estimation.tracker import ResourceTracker
from repro.resources import DEFAULT_MODEL, EPSILON, FB_MACHINE_CAPACITY
from repro.schedulers import tetris as tetris_module
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine, EngineConfig
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import TaskInput
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

from conftest import make_simple_job, make_task


def _workload(num_jobs=10, seed=7, horizon=200.0):
    return generate_workload_suite(
        WorkloadSuiteConfig(
            num_jobs=num_jobs,
            task_scale=0.04,
            arrival_horizon=horizon,
            seed=seed,
        )
    )


def checking_ledger(scheduler):
    """Run the remote-grant ledger invariant check after every grant and
    every release of ``scheduler``."""
    for name in ("_grant_remote", "_release_remote_grants"):
        def checked(*args, _method=getattr(scheduler, name)):
            _method(*args)
            scheduler.check_remote_ledger()

        setattr(scheduler, name, checked)
    return scheduler


def _run_engine(
    trace,
    config,
    num_machines=8,
    seed=0,
    estimator=None,
    use_tracker=False,
    engine_config=None,
    decision_trace=None,
    machine_capacities=None,
    check_ledger=False,
):
    """One end-to-end run; returns (placement key list, scheduler)."""
    cluster = Cluster(
        num_machines, seed=seed, machine_capacities=machine_capacities
    )
    jobs = materialize_trace(trace, cluster, seed=seed)
    tracker = ResourceTracker(cluster) if use_tracker else None
    scheduler = TetrisScheduler(config)
    if check_ledger:
        checking_ledger(scheduler)
    engine = Engine(
        cluster,
        scheduler,
        jobs,
        estimator=estimator,
        tracker=tracker,
        config=(
            engine_config if engine_config is not None else EngineConfig(seed=seed)
        ),
        decision_trace=decision_trace,
    )
    engine.run()
    key = [
        (task.job.name, task.stage.name, task.index, machine_id, time)
        for (task, machine_id, time, _booked) in engine.placement_log
    ]
    return key, scheduler


def _assert_equivalent(config, **run_kwargs):
    """Scalar and vectorized runs of the same workload place identically."""
    trace = _workload(seed=run_kwargs.pop("trace_seed", 7))
    scalar_cfg = TetrisConfig(
        **{**_cfg_dict(config), "vectorized": False}
    )
    vector_cfg = TetrisConfig(
        **{**_cfg_dict(config), "vectorized": True}
    )
    scalar, scalar_sched = _run_engine(trace, scalar_cfg, **run_kwargs)
    assert not scalar_sched._use_vectorized
    # fresh estimator/tracker per run: the kwargs hold factories
    vector, vector_sched = _run_engine(trace, vector_cfg, **run_kwargs)
    assert len(scalar) > 0
    assert scalar == vector
    return scalar_sched, vector_sched


def _cfg_dict(config):
    from dataclasses import asdict

    return asdict(config)


def _mixed_capacities(num_machines=8):
    """Three capacity classes: the default machine, one with half its
    bandwidths and one with twice its cores and memory."""
    base = FB_MACHINE_CAPACITY
    slow = base.copy()
    for dim in ("diskr", "diskw", "netin", "netout"):
        slow.set(dim, base.get(dim) / 2.0)
    big = base.copy()
    for dim in ("cpu", "mem"):
        big.set(dim, base.get(dim) * 2.0)
    return [(base, slow, big)[m % 3] for m in range(num_machines)]


class TestPlacementEquivalence:
    """The tentpole's equivalence bar: identical placements on fixed seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_config(self, seed):
        trace = _workload(seed=3 + seed)
        scalar, _ = _run_engine(
            trace, TetrisConfig(vectorized=False), seed=seed
        )
        vector, sched = _run_engine(
            trace, TetrisConfig(vectorized=True), seed=seed
        )
        assert sched._use_vectorized
        assert len(scalar) > 0
        assert scalar == vector

    @pytest.mark.parametrize(
        "scorer", ["cosine", "l2norm-diff", "l2norm-ratio", "ffd-prod", "ffd-sum"]
    )
    def test_every_scorer(self, scorer):
        _assert_equivalent(TetrisConfig(scorer=scorer))

    def test_masked_dimensions(self):
        _assert_equivalent(TetrisConfig(considered_dims=("cpu", "mem")))

    @pytest.mark.parametrize("num_machines", [8, 12])
    def test_heterogeneous_capacities(self, num_machines):
        """Per-class rep rows; from 8 machines on the placeability
        plane judges the rounds too."""
        _, vector_sched = _assert_equivalent(
            TetrisConfig(),
            num_machines=num_machines,
            machine_capacities=_mixed_capacities(num_machines),
        )
        assert vector_sched.visit_stats["plane_rounds"] > 0

    @pytest.mark.parametrize("barrier", [0.0, 0.5])
    def test_barrier_knob(self, barrier):
        _assert_equivalent(TetrisConfig(barrier_knob=barrier))

    def test_no_fairness_heavy_remote_penalty(self):
        _assert_equivalent(
            TetrisConfig(fairness_knob=0.0, remote_penalty=0.3)
        )

    def test_starvation_reservations(self):
        _assert_equivalent(TetrisConfig(starvation_timeout=30.0))

    def test_progress_aware_srtf(self):
        _assert_equivalent(TetrisConfig(progress_aware_srtf=True))

    def test_noisy_estimator(self):
        trace = _workload(seed=5)
        scalar, _ = _run_engine(
            trace,
            TetrisConfig(vectorized=False),
            estimator=NoisyEstimator(sigma=0.3, seed=4),
        )
        vector, _ = _run_engine(
            trace,
            TetrisConfig(vectorized=True),
            estimator=NoisyEstimator(sigma=0.3, seed=4),
        )
        assert len(scalar) > 0
        assert scalar == vector

    def test_profiling_estimator_invalidates_cache(self):
        """Unstable estimates force cache rebuilds; placements must still
        match the scalar path exactly."""
        trace = _workload(seed=9)
        scalar, _ = _run_engine(
            trace,
            TetrisConfig(vectorized=False),
            estimator=ProfilingEstimator(),
            use_tracker=True,
        )
        vector, _ = _run_engine(
            trace,
            TetrisConfig(vectorized=True),
            estimator=ProfilingEstimator(),
            use_tracker=True,
        )
        assert len(scalar) > 0
        assert scalar == vector

    def test_failure_injection(self):
        trace = _workload(seed=13)
        engine_config = EngineConfig(task_failure_prob=0.1, seed=13)
        scalar, _ = _run_engine(
            trace,
            TetrisConfig(vectorized=False),
            engine_config=engine_config,
            check_ledger=True,
        )
        vector, _ = _run_engine(
            trace,
            TetrisConfig(vectorized=True),
            engine_config=engine_config,
            check_ledger=True,
        )
        assert len(scalar) > 0
        assert scalar == vector


class TestEventStreamEquivalence:
    """PR 2 extends the equivalence bar: the vectorized path must emit
    the *same decision events* as the scalar oracle — every candidate
    score, rejection, filter and placement, in the same order, with
    bit-identical floats.

    A fill-loop iteration scores its kept rows in Python floats up to
    ``_FLOAT_ROWS`` rows and in numpy passes above.  Every trace here
    also runs with each iteration forced onto one side (``_FLOAT_ROWS``
    at 0 and at a huge value); both runs' placement logs and decision
    streams must be byte-equal to the oracle's, signed zeros included.
    """

    def _streams(
        self, config_kwargs, trace_seed=7, estimator_factory=None, **run_kwargs
    ):
        from repro.obs import DecisionTrace, validate_event

        trace = _workload(seed=trace_seed)

        def run(vectorized):
            sink = DecisionTrace(max_events=1_000_000)
            placed, sched = _run_engine(
                trace,
                TetrisConfig(vectorized=vectorized, **config_kwargs),
                decision_trace=sink,
                estimator=(
                    estimator_factory() if estimator_factory else None
                ),
                **run_kwargs,
            )
            assert sched._use_vectorized == vectorized
            events = sink.events()
            for event in events:
                validate_event(event)
            return placed, events

        scalar = run(False)
        oracle_bytes = json.dumps(scalar).encode()
        for float_rows in (0, 10**9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tetris_module, "_FLOAT_ROWS", float_rows)
                forced = run(True)
            assert json.dumps(forced).encode() == oracle_bytes, float_rows
        return scalar[1], run(True)[1]

    def test_default_config(self):
        scalar, vector = self._streams({})
        assert len(scalar) > 0
        assert scalar == vector
        types = {e["type"] for e in scalar}
        assert {"candidate", "fit_reject", "placement"} <= types

    @pytest.mark.parametrize(
        "scorer", ["cosine", "l2norm-diff", "l2norm-ratio", "ffd-prod", "ffd-sum"]
    )
    def test_every_batchable_scorer(self, scorer):
        scalar, vector = self._streams({"scorer": scorer})
        assert len(scalar) > 0
        assert scalar == vector

    def test_barrier_knob(self):
        scalar, vector = self._streams({"barrier_knob": 0.5})
        assert scalar == vector
        assert any(e["type"] == "barrier_filter" for e in scalar)

    def test_masked_dimensions(self):
        scalar, vector = self._streams(
            {"considered_dims": ("cpu", "mem")}
        )
        assert scalar == vector
        # fit rejections name only considered dimensions
        dims = {e["dim"] for e in scalar if e["type"] == "fit_reject"}
        assert dims <= {"cpu", "mem"}

    def test_starvation_reservations(self):
        scalar, vector = self._streams({"starvation_timeout": 30.0})
        assert scalar == vector

    def test_remote_penalty_and_no_fairness(self):
        scalar, vector = self._streams(
            {"fairness_knob": 0.0, "remote_penalty": 0.3}
        )
        assert scalar == vector
        assert any(
            e["type"] == "candidate" and e["remote"] for e in scalar
        )

    def test_heterogeneous_capacities(self):
        scalar, vector = self._streams(
            {"remote_penalty": 0.3},
            machine_capacities=_mixed_capacities(),
        )
        assert len(scalar) > 0
        assert scalar == vector

    def test_unstable_estimator_with_tracker(self):
        scalar, vector = self._streams(
            {},
            trace_seed=9,
            estimator_factory=ProfilingEstimator,
            use_tracker=True,
        )
        assert len(scalar) > 0
        assert scalar == vector


class TestStageIdStability:
    def test_stage_ids_unique_under_gc_pressure(self):
        """CPython recycles object ids after collection; stage_id must not."""
        seen = set()
        for _ in range(50):
            job = make_simple_job(num_tasks=1)
            for stage in job.dag:
                assert stage.stage_id not in seen
                seen.add(stage.stage_id)
            del job
            gc.collect()

    def test_back_to_back_runs_never_alias_stage_state(self):
        """Two engine runs over fresh materializations of the same trace:
        the second run's stages must not inherit per-stage scheduler state
        from the first (the old ``id(stage)`` keying could, when the
        allocator reused addresses)."""
        trace = _workload(num_jobs=4, seed=21)
        first_ids = set()
        for attempt in range(2):
            cluster = Cluster(4, seed=0)
            jobs = materialize_trace(trace, cluster, seed=0)
            stage_ids = {
                stage.stage_id for job in jobs for stage in job.dag
            }
            if attempt == 0:
                first_ids = stage_ids
            else:
                assert stage_ids.isdisjoint(first_ids)
            scheduler = TetrisScheduler(
                TetrisConfig(starvation_timeout=30.0)
            )
            Engine(cluster, scheduler, jobs).run()
            # per-stage state holds only this run's stages
            assert set(scheduler._stage_last_placement) <= stage_ids
            del jobs, cluster
            gc.collect()


class TestRemoteLedger:
    def _drained_scheduler(self, vectorized):
        trace = _workload(num_jobs=6, seed=17)
        _, scheduler = _run_engine(
            trace,
            TetrisConfig(vectorized=vectorized),
            use_tracker=True,
            check_ledger=True,
        )
        return scheduler

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_ledger_empty_after_drain(self, vectorized):
        """Every grant is released when its task finishes; float drift is
        clamped so the drained ledger is literally empty."""
        scheduler = self._drained_scheduler(vectorized)
        assert scheduler._remote_granted == {}
        assert scheduler._remote_by_task == {}

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_no_per_stage_or_per_task_state_after_drain(self, vectorized):
        """A drained run leaves no per-stage or per-task entry behind in
        any scheduler-side map (a serve daemon runs for days): every
        dict/set hanging off the scheduler, its candidate index and its
        stage index is empty, bar the cumulative counters."""
        scheduler = self._drained_scheduler(vectorized)
        counters = {"invalidations", "visit_stats"}
        checked = 0
        for owner in (scheduler, scheduler.candidates, scheduler.index):
            for name, value in vars(owner).items():
                if isinstance(value, (dict, set)) and name not in counters:
                    assert not value, f"{type(owner).__name__}.{name}"
                    checked += 1
        assert checked >= 15  # the walk really saw the caches
        for name in ("_stage_last_placement", "_task_work"):
            assert name in vars(scheduler)
        assert "_stage_rows" in vars(scheduler.candidates)
        assert scheduler.active_jobs == []

    def test_release_clamps_drift(self):
        scheduler = TetrisScheduler()
        # grants whose floats do not sum back exactly: 0.1 * 3 != 0.3
        scheduler._remote_granted = {5: 0.1 + 0.1 + 0.1}
        scheduler._remote_by_task = {1: [(5, 0.3)]}
        scheduler._release_remote_grants(1)
        assert scheduler._remote_granted == {}
        assert scheduler._remote_by_task == {}

    def test_invariant_catches_over_grant(self):
        scheduler = TetrisScheduler()
        scheduler._remote_granted = {2: 50.0}
        scheduler._remote_by_task = {1: [(2, 10.0)]}
        with pytest.raises(AssertionError, match="live"):
            scheduler.check_remote_ledger()

    def test_invariant_catches_negative(self):
        scheduler = TetrisScheduler()
        scheduler._remote_granted = {2: -1.0}
        with pytest.raises(AssertionError, match="negative"):
            scheduler.check_remote_ledger()


class TestRemoteVerdict:
    """The fused remote-headroom verdict (``_remote_sources_ok``) equals
    checking the source :meth:`_pick_remote_source` charges, read off
    each machine's free vector, after every mutation that can move it."""

    _i = st.integers(0, 3)  # a machine, reader or filler index
    _ops = st.one_of(
        st.tuples(st.sampled_from(["grant", "place"]), _i, _i),
        st.tuples(st.sampled_from(["release", "remove"]), _i),
        # shuffle resolution re-pins a reader's input
        st.tuples(
            st.just("repin"), _i,
            st.lists(_i, min_size=1, max_size=2, unique=True),
        ),
    )

    @given(ops=st.lists(_ops, max_size=40))
    @settings(deadline=None, max_examples=60)
    def test_verdict_equals_picked_source_check_under_interleavings(
        self, ops
    ):
        cluster = Cluster(4, seed=0)
        scheduler = checking_ledger(TetrisScheduler())
        scheduler.bind(cluster)
        # a source has 125 MB/s netout: two 60 MB/s grants or one filler
        # exhaust it, so verdicts really flip
        readers = [
            make_task(netin=60.0, inputs=[TaskInput(100.0, (i % 2, 2))])
            for i in range(4)
        ]
        stage = Stage("read", readers)
        scheduler.on_job_arrival(Job([stage]), 0.0)
        fillers = [make_task(diskr=150.0, netout=70.0) for _ in range(4)]
        placed = {}

        def headroom(source_id):
            free = cluster.machine(source_id).free_clamped_view()
            return min(
                free.get("netout"), free.get("diskr")
            ) - scheduler._remote_granted.get(source_id, 0.0)

        def check():
            for task in readers:
                for machine_id in range(4):
                    expected = all(
                        headroom(source_id) + EPSILON >= required
                        for source_id, required in (
                            scheduler._remote_requirements(task, machine_id)
                        )
                    )
                    assert scheduler._remote_sources_ok(
                        task, machine_id
                    ) == expected, (task.index, machine_id)

        for kind, *args in [("check",)] + ops:
            if kind == "grant":
                task = readers[args[0]]
                if task.task_id not in scheduler._remote_by_task:
                    scheduler._grant_remote(task, args[1])
            elif kind == "release":
                scheduler._release_remote_grants(readers[args[0]].task_id)
            elif kind == "place" and args[0] not in placed:
                task = fillers[args[0]]
                cluster.machine(args[1]).place(task, task.demands)
                placed[args[0]] = args[1]
            elif kind == "remove" and args[0] in placed:
                cluster.machine(placed.pop(args[0])).remove(fillers[args[0]])
            elif kind == "repin":
                readers[args[0]].inputs = [TaskInput(100.0, tuple(args[1]))]
                scheduler.on_stage_released(stage, 0.0)
            check()
        for task in readers:  # drain: nothing per-task survives
            task.mark_running(0, 0.0)
            task.mark_finished(1.0)
            scheduler.on_task_finished(task, 1.0)
        assert not (scheduler._remote_granted or scheduler._remote_by_task)


class TestRemoteSourceChoice:
    def test_picks_replica_with_most_headroom(self):
        cluster = Cluster(3, seed=0)
        scheduler = TetrisScheduler()
        scheduler.bind(cluster)
        # machine 1's outbound headroom is mostly granted away already
        scheduler._remote_granted = {1: 100.0}
        assert scheduler._pick_remote_source((1, 2)) == 2

    def test_single_replica_short_circuits(self):
        cluster = Cluster(3, seed=0)
        scheduler = TetrisScheduler()
        scheduler.bind(cluster)
        scheduler._remote_granted = {1: 1000.0}
        assert scheduler._pick_remote_source((1,)) == 1

    def test_tie_keeps_first_listed(self):
        cluster = Cluster(4, seed=0)
        scheduler = TetrisScheduler()
        scheduler.bind(cluster)
        assert scheduler._pick_remote_source((3, 2, 1)) == 3


class TestEpsilonSemantics:
    def _arrive(self, scheduler, *jobs):
        for job in jobs:
            job.arrive()
            scheduler.on_job_arrival(job, 0.0)

    def test_epsilon_over_full_pool_despite_barrier(self, monkeypatch):
        """§3.3: ε = ā/p̄ over *all* candidates.  Barrier filtering narrows
        the pool handed to the argmax, but must not move ε."""
        scheduler = TetrisScheduler(
            TetrisConfig(
                fairness_knob=0.0, barrier_knob=0.5, vectorized=False
            )
        )
        cluster = Cluster(2, seed=0)
        scheduler.bind(cluster)
        barrier_job = make_simple_job(num_tasks=4, cpu=1, mem=1)
        other_job = make_simple_job(num_tasks=2, cpu=2, mem=4)
        self._arrive(scheduler, barrier_job, other_job)
        # push barrier_job's stage past the threshold
        stage = barrier_job.dag.roots()[0]
        for task in stage.tasks[:3]:
            task.mark_running(0, 0.0)
            task.mark_finished(1.0)
        scheduler.index.forget(stage.tasks[0])
        scheduler.index.forget(stage.tasks[1])
        scheduler.index.forget(stage.tasks[2])
        assert scheduler._barrier_stages([barrier_job, other_job])

        seen_epsilons = []
        real_pick = TetrisScheduler._pick_best

        def spy(self, candidates, epsilon=None):
            seen_epsilons.append(epsilon)
            return real_pick(self, candidates, epsilon)

        monkeypatch.setattr(TetrisScheduler, "_pick_best", spy)
        scheduler.schedule(0.0, machine_ids=[1])
        assert seen_epsilons, "no scheduling round ran"

        # the expected ε comes from the FULL candidate pool on a fresh,
        # identically-configured scheduler (same jobs, same free vector)
        fresh = TetrisScheduler(
            TetrisConfig(fairness_knob=0.0, barrier_knob=0.5, vectorized=False)
        )
        fresh.bind(cluster)
        self._arrive(fresh, barrier_job, other_job)
        for finished in stage.tasks[:3]:
            fresh.index.forget(finished)
        candidates = fresh._gather_candidates(
            1, fresh.candidate_jobs(), fresh.machine_free(1), 0.0
        )
        assert len(candidates) >= 2
        full_eps = fresh._epsilon(
            [c.alignment for c in candidates],
            [c.remaining_work for c in candidates],
        )
        barrier_only = [
            c
            for c in candidates
            if c.task.stage.stage_id
            in fresh._barrier_stages([barrier_job, other_job])
        ]
        narrow_eps = fresh._epsilon(
            [c.alignment for c in barrier_only],
            [c.remaining_work for c in barrier_only],
        )
        assert narrow_eps != full_eps  # the bug would have been invisible
        assert seen_epsilons[0] == pytest.approx(full_eps, abs=0.0)

    def test_pick_best_backcompat_derives_epsilon(self):
        """Callers with no wider pool still get the old behavior."""
        scheduler = TetrisScheduler()
        cluster = Cluster(1, seed=0)
        scheduler.bind(cluster)
        t1 = make_task(cpu=2, mem=4)
        t2 = make_task(cpu=1, mem=2)
        from repro.schedulers.tetris import _Candidate

        c1 = _Candidate(t1, None, alignment=0.8, remaining_work=10.0)
        c2 = _Candidate(t2, None, alignment=0.5, remaining_work=1.0)
        assert scheduler._pick_best([c1, c2]) is c2


class TestDirtyMachineMirror:
    def test_bind_marks_all_dirty(self):
        scheduler = TetrisScheduler()
        scheduler.bind(Cluster(4, seed=0))
        assert scheduler.consume_dirty_machines(None) is None
        # consumed: nothing left until something changes
        assert scheduler.consume_dirty_machines(None) == []

    def test_task_finish_dirties_only_its_machine(self):
        scheduler = TetrisScheduler()
        scheduler.bind(Cluster(4, seed=0))
        job = make_simple_job(num_tasks=2)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        assert scheduler.consume_dirty_machines(None) is None
        task = job.all_tasks()[0]
        task.mark_running(2, 0.0)
        task.mark_finished(1.0)
        scheduler.on_task_finished(task, 1.0)
        assert scheduler.consume_dirty_machines(None) == [2]

    def test_explicit_machine_ids_stay_authoritative(self):
        scheduler = TetrisScheduler()
        scheduler.bind(Cluster(4, seed=0))
        scheduler.consume_dirty_machines(None)  # drain the bind mark
        scheduler.mark_machine_dirty(1)
        scheduler.mark_machine_dirty(3)
        # the engine's own dirty set wins, and retires mirrored entries
        assert scheduler.consume_dirty_machines([1]) == [1]
        assert scheduler.consume_dirty_machines(None) == [3]

    def test_schedule_skips_clean_rounds(self):
        """With no dirty machines and no explicit ids, schedule() visits
        nothing (the dirty contract in action)."""
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.0))
        cluster = Cluster(2, seed=0)
        scheduler.bind(cluster)
        # memory is rigid (never capped at capacity), so this never fits
        job = make_simple_job(num_tasks=1, mem=10_000.0)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        assert scheduler.schedule(0.0) == []  # consumes the all-dirty mark
        visited = []
        original = TetrisScheduler._fill_machine

        def spy(self, machine_id, jobs, barrier, time):
            visited.append(machine_id)
            return original(self, machine_id, jobs, barrier, time)

        TetrisScheduler._fill_machine = spy
        try:
            scheduler.schedule(1.0)
        finally:
            TetrisScheduler._fill_machine = original
        assert visited == []


class TestProfilerPlumbing:
    def test_engine_hands_profiler_to_scheduler(self):
        from repro.profiling import Profiler

        trace = _workload(num_jobs=3, seed=31)
        cluster = Cluster(4, seed=0)
        jobs = materialize_trace(trace, cluster, seed=0)
        prof = Profiler()
        scheduler = TetrisScheduler()
        Engine(cluster, scheduler, jobs, profiler=prof).run()
        assert scheduler.profiler is prof
        assert prof.stats("engine.scheduler_round").count > 0
        assert prof.stats("tetris.schedule").count > 0
        # the scheduler's own time is contained in the engine's round
        assert (
            prof.stats("tetris.schedule").total
            <= prof.stats("engine.scheduler_round").total
        )
        assert "engine.scheduler_round" in prof.labels()


class TestStageRowsInvalidation:
    @staticmethod
    def _arrived(num_tasks=2, estimator=None, **job_kwargs):
        scheduler = TetrisScheduler()
        scheduler.bind(Cluster(2, seed=0), estimator=estimator)
        job = make_simple_job(num_tasks=num_tasks, **job_kwargs)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        return scheduler, job

    def test_stable_finish_keeps_stage_rows(self):
        """Under a stable estimator a completion keeps the stage's rows
        for the surviving peers."""
        scheduler, job = self._arrived()
        stage = next(iter(job.dag))
        first, second = job.all_tasks()
        rows = scheduler.candidates.stage_rows(stage)
        assert rows.rep is first
        first.mark_running(0, 0.0)
        first.mark_finished(1.0)
        scheduler.on_task_finished(first, 1.0)
        assert scheduler.candidates.stage_rows(stage) is rows
        assert rows.rep is second
        assert scheduler.candidates.invalidations == {"full": 0, "shuffle": 0}

    def test_stage_drain_drops_stage_rows(self):
        scheduler, job = self._arrived()
        stage = next(iter(job.dag))
        for task in job.all_tasks():
            scheduler.candidates.stage_rows(stage)
            task.mark_running(0, 0.0)
            task.mark_finished(1.0)
            scheduler.on_task_finished(task, 1.0)
        assert scheduler.candidates._stage_rows == {}

    def test_unstable_estimator_clears_whole_cache(self):
        scheduler, job = self._arrived(3, estimator=ProfilingEstimator())
        stage = next(iter(job.dag))
        tasks = job.all_tasks()
        rows = scheduler.candidates.stage_rows(stage)
        tasks[0].mark_running(0, 0.0)
        tasks[0].mark_finished(1.0)
        scheduler.on_task_finished(tasks[0], 1.0)
        assert scheduler.candidates._stage_rows == {}
        assert scheduler.candidates.invalidations["full"] >= 1
        assert scheduler.candidates.stage_rows(stage) is not rows

    def test_rows_equal_masked_scalar_booking(self):
        """Rows hold the booked vector unmasked: the considered-dims
        mask applies where rows are compared and normalized."""
        scheduler = TetrisScheduler(
            TetrisConfig(considered_dims=("cpu", "mem"))
        )
        scheduler.bind(Cluster(2, seed=0))
        job = make_simple_job(num_tasks=1, cpu=2, mem=8)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        task = job.all_tasks()[0]
        rows = scheduler.candidates.stage_rows(next(iter(job.dag)))
        for m in (0, 1):
            assert rows.active[1, m]
            booked = scheduler.booked_demands(task, m)
            assert rows.booked[1, m].tobytes() == booked.data.tobytes()
            assert bool(rows.remote[1, m]) == (task.remote_input_mb(m) > 0)


class TestEpsilonConstant:
    def test_fits_uses_shared_epsilon(self):
        """The considered-dims fit check tolerates exactly EPSILON slack."""
        from repro.resources import EPSILON

        scheduler = TetrisScheduler(
            TetrisConfig(considered_dims=("cpu",))
        )
        scheduler.bind(Cluster(1, seed=0))
        free = DEFAULT_MODEL.vector(cpu=1.0)
        just_over = DEFAULT_MODEL.vector(cpu=1.0 + EPSILON / 2)
        way_over = DEFAULT_MODEL.vector(cpu=1.0 + 1e-6)
        assert scheduler._fits(just_over, free)
        assert not scheduler._fits(way_over, free)
