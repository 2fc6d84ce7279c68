"""The structure-of-arrays core's identity bar.

Property tests pinning the central invariant: the batched fill loop
(``TetrisConfig(vectorized=True)``, the default) and every SoA fast
path produce *bit-identical* decisions to the pure-python scalar oracle
(``vectorized=False``) —

- end-to-end placements and decision-event streams match the oracle on
  generated workloads, with and without a tracker;
- under the tracker, the round-level placeability plane (reading the
  availability plane) places exactly like visiting every machine and
  like the scalar oracle — and does drop visits;
- the placeability plane on a cluster big enough to have one: plane ≡
  visit-all ≡ scalar oracle across replication factors, shuffle-pinned
  multi-input stages, task failures, an unstable estimator, trackers,
  non-job activity and the streaming daemon; every machine it drops
  would have placed nothing and mutated nothing; and it drops most of
  the fruitless visits (a count, no clock);
- the sparse fluid rate updates equal the dense ``reference_rates``
  oracle exactly;
- ``TaskTable`` recycles slots, so the arrays track the live population;
- the batched ``fill_packed`` view write is coherent with the
  per-slot ``set_slot`` path (placements identical either way).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.obs.trace import DecisionTrace
from repro.resources import DEFAULT_MODEL
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine, EngineConfig
from repro.sim.fluid import FlowSpec, FlowTable
from repro.workload.table import TaskTable
from repro.workload.task import Task, TaskWork
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

from conftest import make_simple_job


def _workload(seed, num_jobs=6, horizon=120.0):
    return generate_workload_suite(
        WorkloadSuiteConfig(
            num_jobs=num_jobs,
            task_scale=0.04,
            arrival_horizon=horizon,
            seed=seed,
        )
    )


def _run(trace, config, seed=0, num_machines=4, use_tracker=False,
         decision_trace=None, estimator=None, activities=(), skip=True,
         stats=None, metrics=None, replication=3, failure_prob=0.0):
    """Run the trace under Tetris; returns the placement keys.

    ``skip=False`` visits every machine (the ``prefilter_machines``
    opt-out), ``stats`` (a dict) receives the scheduler's ``visit_stats``
    and ``metrics`` (a registry) its obs counters.
    """
    from repro.estimation.tracker import ResourceTracker

    cluster = Cluster(num_machines, seed=seed, replication=replication)
    jobs = materialize_trace(trace, cluster, seed=seed)
    tracker = ResourceTracker(cluster) if use_tracker else None
    scheduler = TetrisScheduler(config)
    scheduler.prefilter_machines = skip
    engine = Engine(
        cluster,
        scheduler,
        jobs,
        activities=activities,
        estimator=estimator,
        tracker=tracker,
        config=EngineConfig(seed=seed, task_failure_prob=failure_prob),
        decision_trace=decision_trace,
        metrics=metrics,
    )
    engine.run()
    assert all(job.is_finished for job in jobs)
    if stats is not None:
        stats.update(scheduler.visit_stats)
    return [
        (task.job.name, task.stage.name, task.index, machine_id, time)
        for (task, machine_id, time, _booked) in engine.placement_log
    ]


# -- end-to-end placement / trace identity ---------------------------------

class TestBackendPlacementIdentity:
    """The batched fill loop lands every task on the same machine at the
    same instant as the scalar object-path oracle."""

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=5)
    def test_placements_match_oracle(self, seed):
        trace = _workload(seed=seed % 997)
        oracle = _run(trace, TetrisConfig(vectorized=False), seed=seed % 31)
        assert len(oracle) > 0
        got = _run(trace, TetrisConfig(vectorized=True), seed=seed % 31)
        assert got == oracle

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=3)
    def test_placements_match_with_tracker(self, seed):
        trace = _workload(seed=seed % 991)
        oracle = _run(
            trace, TetrisConfig(vectorized=False), use_tracker=True
        )
        assert len(oracle) > 0
        got = _run(trace, TetrisConfig(vectorized=True), use_tracker=True)
        assert got == oracle

    # the batched path is the numpy one; the id keeps this node's name
    @pytest.mark.parametrize(
        "config", [pytest.param(TetrisConfig(vectorized=True), id="numpy")]
    )
    def test_decision_stream_matches_oracle(self, config):
        """With a trace attached, the batched loop emits the *same
        decision events* — every candidate considered, every score,
        every decline — as the scalar reference."""
        trace = _workload(seed=23)
        with DecisionTrace() as ref_sink:
            _run(trace, TetrisConfig(vectorized=False),
                 decision_trace=ref_sink)
            want = ref_sink.events()
        with DecisionTrace() as got_sink:
            _run(trace, config, decision_trace=got_sink)
            got = got_sink.events()
        assert len(want) > 0
        assert got == want

    def test_scalar_backend_runs_reference_loop(self):
        assert TetrisScheduler(TetrisConfig())._use_vectorized
        assert not TetrisScheduler(
            TetrisConfig(vectorized=False)
        )._use_vectorized


# -- the placeability skip under the tracker -----------------------------------

class TestTrackerSkipIdentity:
    """Tracker-on rounds run the same skip as tracker-off rounds: it
    reads the tracker's availability plane, and dropping the visits it
    proves fruitless changes no placement."""

    FAST = TetrisConfig()

    def _three_ways(self, trace, seed=0, **kwargs):
        """(skip stats, placements) after checking skip == visit-all ==
        scalar oracle."""
        stats = {}
        kwargs.update(seed=seed, num_machines=8, use_tracker=True)
        make = kwargs.pop("make_estimator", lambda: None)
        oracle = _run(
            trace, TetrisConfig(vectorized=False), estimator=make(), **kwargs
        )
        visit_all = _run(
            trace, self.FAST, estimator=make(), skip=False, **kwargs
        )
        skipping = _run(
            trace, self.FAST, estimator=make(), stats=stats, **kwargs
        )
        assert len(oracle) > 0
        assert visit_all == oracle
        assert skipping == oracle
        return stats, skipping

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_skip_matches_visit_all_and_oracle(self, seed):
        stats, _ = self._three_ways(
            _workload(seed=11 + seed, num_jobs=10, horizon=200.0), seed=seed
        )
        # the skip is live under the tracker: it cannot silently re-gate
        assert stats["machines_visited"] < stats["machines_considered"]
        assert 0 < stats["visits_productive"] <= stats["machines_visited"]

    def test_unstable_estimator(self):
        from repro.estimation.estimator import ProfilingEstimator

        assert not ProfilingEstimator.stable_estimates
        stats, _ = self._three_ways(
            _workload(seed=5, num_jobs=10, horizon=200.0),
            make_estimator=ProfilingEstimator,
        )
        assert stats["machines_visited"] < stats["machines_considered"]

    def test_with_ingestion_activity(self):
        """Non-job load only the tracker can see: the plane folds it in,
        and the skip must agree with the fill loop about what it left."""
        from repro.activity.ingestion import ingestion

        trace = _workload(seed=17, num_jobs=10, horizon=200.0)
        activities = [
            ingestion(m, start, size_mb=6000.0, rate_mbps=150.0)
            for m, start in ((0, 5.0), (3, 20.0), (5, 60.0))
        ]
        stats, with_load = self._three_ways(trace, activities=activities)
        assert stats["machines_visited"] < stats["machines_considered"]
        _, without = self._three_ways(trace)
        assert with_load != without  # the activity really steered Tetris

    def test_skipped_visits_reach_the_metrics(self):
        from repro.obs.registry import Registry

        registry, stats = Registry(), {}
        _run(
            _workload(seed=11, num_jobs=10, horizon=200.0), self.FAST,
            num_machines=8, use_tracker=True, stats=stats, metrics=registry,
        )
        by_outcome = registry.get("repro_tetris_machine_visits_total").read()
        assert by_outcome["skipped"] == (
            stats["machines_considered"] - stats["machines_visited"]
        ) > 0
        assert by_outcome["productive"] == stats["visits_productive"]
        assert sum(by_outcome.values()) == stats["machines_considered"]
        rows = registry.get("repro_tetris_placeability_rows_total")
        assert rows.read() == stats["plane_stage_rows"] > 0

    def test_inspect_reports_useful_visit_ratio(self, tmp_path, capsys):
        """``repro inspect --metrics`` reads the plane's tightness and
        its own work off the exposition an untraced run wrote."""
        from repro.cli import _print_cache_effectiveness
        from repro.obs.registry import Registry

        registry, stats = Registry(), {}
        _run(
            _workload(seed=11, num_jobs=10, horizon=200.0), self.FAST,
            num_machines=8, use_tracker=True, stats=stats, metrics=registry,
        )
        path = tmp_path / "metrics.prom"
        path.write_text(registry.render())
        _print_cache_effectiveness(str(path))
        text = capsys.readouterr().out
        ratio = stats["visits_productive"] / stats["machines_visited"]
        assert f"{stats['visits_productive']} productive, {ratio:.1%} of visits" in text
        assert f"{stats['plane_stage_rows']} stage rows judged" in text


# -- the placeability plane ----------------------------------------------------

def _backlog(seed, num_jobs=10, horizon=40.0, max_map_tasks=24):
    """A small Facebook-profile burst: map stages on replicated blocks,
    reduce stages reading three shuffle partitions pinned when the
    barrier lifts — enough jobs at once that rounds hold a backlog."""
    from repro.workload.tracegen import (
        FacebookTraceConfig,
        generate_facebook_trace,
    )

    return generate_facebook_trace(
        FacebookTraceConfig(
            num_jobs=num_jobs,
            arrival_horizon=horizon,
            max_map_tasks=max_map_tasks,
            seed=seed,
        )
    )


class TestPlaceabilityPlaneIdentity:
    """On clusters past the plane's minimum visit list the default path
    judges every machine before visiting it.  Dropping a machine must
    change nothing: placements (keys and times) equal the visit-all
    path and the scalar oracle whatever the run is made of."""

    FAST = TetrisConfig()

    def _three_ways(self, trace, **kwargs):
        from repro.estimation.estimator import ProfilingEstimator

        stats = {}
        make = ProfilingEstimator if kwargs.pop("profiling", False) else (
            lambda: None
        )
        oracle = _run(
            trace, TetrisConfig(vectorized=False), estimator=make(), **kwargs
        )
        visit_all = _run(
            trace, self.FAST, estimator=make(), skip=False, **kwargs
        )
        plane = _run(trace, self.FAST, estimator=make(), stats=stats, **kwargs)
        assert len(oracle) > 0
        assert visit_all == oracle
        assert plane == oracle
        assert stats["plane_rounds"] > 0
        assert stats["plane_stage_rows"] >= stats["plane_rounds"]
        assert stats["machines_visited"] < stats["machines_considered"]
        return plane

    @given(
        seed=st.integers(0, 10_000),
        num_machines=st.integers(12, 20),
        replication=st.integers(1, 3),
        use_tracker=st.booleans(),
        failure_prob=st.sampled_from([0.0, 0.15]),
        profiling=st.booleans(),
        ingest=st.booleans(),
    )
    @settings(deadline=None, max_examples=8)
    def test_plane_matches_visit_all_and_oracle(
        self, seed, num_machines, replication, use_tracker, failure_prob,
        profiling, ingest,
    ):
        from repro.activity.ingestion import ingestion

        activities = [
            ingestion(m, start, size_mb=6000.0, rate_mbps=150.0)
            for m, start in ((0, 5.0), (num_machines - 1, 20.0))
        ] if ingest else ()
        self._three_ways(
            _backlog(seed % 97),
            seed=seed % 31,
            num_machines=num_machines,
            replication=replication,
            use_tracker=use_tracker,
            failure_prob=failure_prob,
            profiling=profiling,
            activities=activities,
        )

    @pytest.mark.parametrize("use_tracker", [False, True])
    def test_same_trace_through_the_daemon(self, use_tracker):
        """Unpaced serve ≡ batch with the plane live in both."""
        import asyncio

        from repro.estimation.tracker import ResourceTracker
        from repro.serve import (
            AdmissionConfig,
            AdmissionController,
            SchedulerService,
            ServeConfig,
            TraceReplaySource,
        )

        trace = _backlog(5)
        batch = self._three_ways(
            trace, seed=3, num_machines=14, use_tracker=use_tracker
        )
        cluster = Cluster(14, seed=3)
        jobs = materialize_trace(trace, cluster, seed=3)
        scheduler = TetrisScheduler(self.FAST)
        engine = Engine(
            cluster, scheduler, [],
            tracker=ResourceTracker(cluster) if use_tracker else None,
            config=EngineConfig(seed=3),
        )
        service = SchedulerService(
            engine,
            TraceReplaySource(jobs),
            AdmissionController(AdmissionConfig(queue_cap=10_000)),
            ServeConfig(max_batch=4),
        )
        report = asyncio.run(service.serve())
        assert report.invariant_violations == 0
        assert scheduler.visit_stats["plane_rounds"] > 0
        served = [
            (task.job.name, task.stage.name, task.index, machine_id)
            for (task, machine_id, _time, _booked) in engine.placement_log
        ]
        # the daemon's clock starts at the first arrival: keys, not times
        assert served == [key[:4] for key in batch]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=1, num_machines=12, replication=1),
            dict(seed=2, num_machines=16, use_tracker=True),
            dict(seed=3, num_machines=12, failure_prob=0.2, replication=2),
            dict(seed=4, num_machines=14, profiling=True, use_tracker=True),
        ],
        ids=["replication-1", "tracker", "failures", "profiling"],
    )
    def test_dropped_machines_place_nothing_and_mutate_nothing(
        self, kwargs, monkeypatch
    ):
        """The superset property: run the fill loop on every machine the
        plane drops.  It must return no placement and leave the claim
        set and the grant ledger as they were — and the run, which now
        visits every machine after all, still places like the oracle."""
        import repro.schedulers.tetris as tetris

        dropped = []

        class CheckingPlane(tetris.PlaceabilityPlane):
            __slots__ = ()

            def placeable(self, machine_id):
                if super().placeable(machine_id):
                    return True
                scheduler = self.remote_ok.__self__
                before = (
                    set(scheduler.index._claimed),
                    dict(scheduler._remote_granted),
                    scheduler._grant_gen,
                )
                assert scheduler._fill_machine(machine_id, (), set(), 0.0) == []
                assert before == (
                    scheduler.index._claimed,
                    scheduler._remote_granted,
                    scheduler._grant_gen,
                )
                dropped.append(machine_id)
                return False

        monkeypatch.setattr(tetris, "PlaceabilityPlane", CheckingPlane)
        self._three_ways(_backlog(kwargs["seed"] + 40), **kwargs)
        assert len(dropped) > 0

    def test_most_fruitless_visits_are_dropped(self):
        """The count pin (no clock): on a fixed backlog the plane leaves
        at most one fruitless visit per productive one — before it,
        13.7 visits per productive one on the benchmark's backlog."""
        stats = {}
        _run(
            _backlog(11, num_jobs=40, horizon=60.0, max_map_tasks=40),
            self.FAST, seed=0, num_machines=40, stats=stats,
        )
        assert stats["visits_productive"] > 0
        assert stats["machines_visited"] <= 2 * stats["visits_productive"]
        assert stats["machines_considered"] > stats["machines_visited"]

    def test_short_visit_lists_build_no_plane(self):
        """A heartbeat from one machine (Table 7's case) is cheaper to
        visit than to judge."""
        from repro.schedulers.tetris import _PLANE_MIN_VISITS

        for num_visited, planes in (
            (_PLANE_MIN_VISITS - 1, 0), (_PLANE_MIN_VISITS, 1)
        ):
            cluster = Cluster(12, seed=0)
            jobs = materialize_trace(_backlog(3), cluster, seed=0)
            scheduler = TetrisScheduler(self.FAST)
            scheduler.bind(cluster)
            for job in jobs:
                job.arrive()
                scheduler.on_job_arrival(job, 0.0)
            assert scheduler.schedule(0.0, list(range(num_visited)))
            assert scheduler.visit_stats["plane_rounds"] == planes


# -- fluid rates ------------------------------------------------------------

class TestFluidRateIdentity:
    def _table(self, num_machines=3):
        caps = [
            DEFAULT_MODEL.vector(
                cpu=16, mem=48, diskr=200, diskw=200, netin=125, netout=125
            ).data
            for _ in range(num_machines)
        ]
        return FlowTable(DEFAULT_MODEL, caps)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
                st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
                st.integers(0, 2),
                st.sampled_from(["diskr", "diskw", "netin", "netout"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(deadline=None, max_examples=30)
    def test_sparse_rates_equal_reference_bitwise(self, specs):
        """After any mix of adds, removes and advances, the sparse
        per-flow rates equal the dense oracle recomputation exactly."""
        table = self._table()
        live = []
        for i, (work, rate, machine, dim) in enumerate(specs):
            fid = table.add_flow(
                FlowSpec(
                    work=work,
                    nominal_rate=rate,
                    slots=((machine, dim),),
                )
            )
            live.append(fid)
            if i % 3 == 2 and live:
                table.remove_flow(live.pop(0))
            if i % 4 == 3:
                dt = table.time_to_next_completion()
                if dt != float("inf"):
                    done = set(table.advance(dt))
                    live = [f for f in live if f not in done]
            table._recompute_rates()  # flush the dirty-slot set
            oracle = table.reference_rates()
            for fid in live:
                assert table._rate[fid] == oracle[fid]


# -- task table slot reuse --------------------------------------------------

class TestTaskTableSlotReuse:
    def _task(self):
        return Task(DEFAULT_MODEL.vector(cpu=1, mem=1), TaskWork(10))

    def test_released_slot_is_recycled(self):
        table = TaskTable(DEFAULT_MODEL, capacity=2)
        a, b = self._task(), self._task()
        slot_a = table.register(a)
        slot_b = table.register(b)
        assert {slot_a, slot_b} == {0, 1}
        table.release(a)
        assert table.num_live == 1
        assert table.task_at(slot_a) is None
        c = self._task()
        assert table.register(c) == slot_a  # freed slot comes back first
        assert table.task_at(slot_a) is c
        assert table.demands[slot_a] == pytest.approx(c.demands.data)
        assert table.num_live == 2
        assert table.capacity == 2  # no growth while slots recycle

    def test_register_is_idempotent(self):
        table = TaskTable(DEFAULT_MODEL, capacity=2)
        task = self._task()
        assert table.register(task) == table.register(task)
        assert table.num_live == 1

    def test_growth_preserves_rows(self):
        table = TaskTable(DEFAULT_MODEL, capacity=1)
        tasks = [self._task() for _ in range(5)]
        slots = [table.register(t) for t in tasks]
        assert len(set(slots)) == 5
        for task, slot in zip(tasks, slots):
            assert table.task_at(slot) is task
            assert np.array_equal(table.demands[slot], task.demands.data)

    def test_engine_recycles_slots_across_waves(self):
        """Streamed jobs with disjoint lifetimes share slots: the table
        stays sized to the live population, not the stream total."""
        cluster = Cluster(4, machines_per_rack=2, seed=1)
        first = make_simple_job(num_tasks=8, cpu_work=4.0,
                                arrival_time=0.0)
        engine = Engine(cluster, TetrisScheduler(), [first],
                        config=EngineConfig(seed=1))
        engine.open_stream()
        jobs = [first]
        for i in range(1, 12):
            # drain wave i-1 completely before committing wave i, so its
            # released slots are free for reuse at registration time
            engine.run_until(100.0 * i - 50.0)
            job = make_simple_job(num_tasks=8, cpu_work=4.0,
                                  arrival_time=100.0 * i)
            engine.add_job(job)
            jobs.append(job)
        engine.close_stream()
        while not engine._finished():
            engine.run_until(float("inf"))
        engine.finalize()
        assert all(j.is_finished for j in jobs)
        assert engine.task_table.num_live == 0  # all released
        # 96 tasks flowed through, but only one wave was ever live
        assert engine.task_table.capacity == 64  # initial, never grown


# -- gathered rows ------------------------------------------------------------

class TestGatherCoherence:
    """What a visit gathers from the stages' rows is what the scalar
    path would compute for the same tasks on the same machine."""

    def test_gathered_rows_match_scalar_booking(self, monkeypatch):
        """Intercept every gather of a run: each active row's task is
        the stage's locality-pool front (slot 0) or its distinct
        queue front (slot 1), its booked vector equals
        ``booked_demands`` byte for byte and its remote flag equals
        ``remote_input_mb > 0``."""
        import repro.schedulers.candidates as cand

        checked = {"rows": 0}
        orig = cand.CandidateIndex.gather

        def checking(self, table, machine_id):
            booked, remote, active = orig(self, table, machine_id)
            stage_index = self._stage_index
            scheduler = self._estimate.__self__
            for si, rows in enumerate(table.rows):
                stage = rows.stage
                local = stage_index.local_candidate(stage, machine_id)
                other = stage_index.any_candidate(stage)
                want = (local, None if other is local else other)
                for slot, task in enumerate(want):
                    i = 2 * si + slot
                    assert bool(active[i]) == (task is not None)
                    if task is None:
                        continue
                    assert table.task_at(i, machine_id) is task
                    expect = scheduler.booked_demands(task, machine_id)
                    assert booked[i].tobytes() == expect.data.tobytes()
                    assert bool(remote[i]) == (
                        task.remote_input_mb(machine_id) > 0
                    )
                    checked["rows"] += 1
            return booked, remote, active

        monkeypatch.setattr(cand.CandidateIndex, "gather", checking)
        placements = _run(
            _workload(seed=41, num_jobs=10),
            TetrisConfig(vectorized=True),
            seed=3,
            num_machines=6,
        )
        assert len(placements) > 0
        assert checked["rows"] > 0
