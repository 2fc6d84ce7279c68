"""Tests for the streaming scheduler service (repro.serve).

The load-bearing property: a no-drop, unpaced daemon replay produces a
placement log *bit-identical* to the batch engine on the same
materialized trace — same tasks, same machines, same times, same booked
vectors, in the same order.  Everything else (admission shedding,
backpressure, shutdown draining) is explicit, accounted deviation from
that baseline.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker
from repro.obs import Registry
from repro.schedulers.tetris import TetrisScheduler
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    Arrival,
    JobSource,
    SchedulerService,
    ServeConfig,
    StagingError,
    TraceReplaySource,
    verify_free_vectors,
)
from repro.serve.service import LIVENESS_DEADLINE
from repro.resources import DEFAULT_MODEL
from repro.sim.engine import Engine, EngineConfig
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskWork
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite


def _trace(num_jobs=10, seed=3, horizon=150.0):
    return generate_workload_suite(
        WorkloadSuiteConfig(
            num_jobs=num_jobs,
            task_scale=0.03,
            arrival_horizon=horizon,
            seed=seed,
        )
    )


def _stream(num_jobs, tasks_per_job=10, interarrival=1.0):
    """Replay ``num_jobs`` single-stage compute jobs, one every
    ``interarrival`` simulated seconds (no inputs, so building one
    touches no cluster state)."""
    jobs = [
        Job(
            [Stage("work", [
                Task(
                    DEFAULT_MODEL.vector(cpu=2.0, mem=4.0),
                    TaskWork(cpu_core_seconds=6.0),
                )
                for _ in range(tasks_per_job)
            ])],
            arrival_time=index * interarrival,
            name=f"gen-{index}",
        )
        for index in range(num_jobs)
    ]
    return TraceReplaySource(jobs)


def _build(trace, num_machines=6, seed=3, use_tracker=False):
    cluster = Cluster(num_machines, seed=seed)
    jobs = materialize_trace(trace, cluster, seed=seed)
    tracker = ResourceTracker(cluster) if use_tracker else None
    return cluster, jobs, tracker


def _placements(engine):
    return [
        (task.job.name, task.stage.name, task.index,
         machine_id, time, tuple(booked.data))
        for task, machine_id, time, booked in engine.placement_log
    ]


def _batch_run(trace, seed=3, num_machines=6, use_tracker=False):
    cluster, jobs, tracker = _build(trace, num_machines, seed, use_tracker)
    engine = Engine(
        cluster, TetrisScheduler(), jobs,
        tracker=tracker, config=EngineConfig(seed=seed),
    )
    engine.run()
    return engine


def _serve_run(
    trace, seed=3, num_machines=6, use_tracker=False,
    max_batch=8, admission=None, registry=None,
    serve_config=None,
):
    cluster, jobs, tracker = _build(trace, num_machines, seed, use_tracker)
    engine = Engine(
        cluster, TetrisScheduler(), [],
        tracker=tracker,
        config=EngineConfig(seed=seed),
        metrics=registry,
    )
    service = SchedulerService(
        engine,
        TraceReplaySource(jobs),
        admission if admission is not None
        else AdmissionController(AdmissionConfig(queue_cap=10_000)),
        serve_config if serve_config is not None
        else ServeConfig(max_batch=max_batch),
        registry=registry,
    )
    report = asyncio.run(service.serve())
    return engine, report


# ---------------------------------------------------------------------------
# the bit-identity property
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("max_batch", [1, 8, 64])
    def test_streamed_replay_matches_batch(self, seed, max_batch):
        trace = _trace(num_jobs=12, seed=seed)
        batch = _batch_run(trace, seed=seed)
        streamed, report = _serve_run(
            trace, seed=seed, max_batch=max_batch
        )
        assert _placements(streamed) == _placements(batch)
        assert report.jobs_committed == len(trace)
        assert report.jobs_finished == len(trace)
        assert report.invariant_violations == 0

    def test_streamed_replay_matches_batch_with_tracker(self):
        # the tracker's report chain must survive idle stream gaps
        # exactly as it does in a batch run
        trace = _trace(num_jobs=10, seed=11)
        batch = _batch_run(trace, seed=11, use_tracker=True)
        streamed, report = _serve_run(
            trace, seed=11, use_tracker=True, max_batch=3
        )
        assert _placements(streamed) == _placements(batch)
        assert report.invariant_violations == 0

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_batch=st.integers(min_value=1, max_value=32),
    )
    def test_streamed_replay_matches_batch_property(self, seed, max_batch):
        trace = _trace(num_jobs=6, seed=seed, horizon=80.0)
        batch = _batch_run(trace, seed=seed, num_machines=4)
        streamed, _ = _serve_run(
            trace, seed=seed, num_machines=4, max_batch=max_batch
        )
        assert _placements(streamed) == _placements(batch)

    def test_block_policy_is_lossless(self):
        # backpressure instead of shedding: a tiny queue with "block"
        # still commits every job and stays bit-identical
        trace = _trace(num_jobs=8, seed=5)
        batch = _batch_run(trace, seed=5)
        streamed, report = _serve_run(
            trace, seed=5, max_batch=1,
            admission=AdmissionController(
                AdmissionConfig(queue_cap=2, policy="block")
            ),
        )
        assert _placements(streamed) == _placements(batch)
        assert report.jobs_committed == len(trace)
        assert report.admission["rejected"] == 0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_queue_full_rejects_and_accounts(self):
        async def scenario():
            ctl = AdmissionController(
                AdmissionConfig(queue_cap=2, policy="reject")
            )
            src = _stream(5)
            arrivals = [a async for a in src.arrivals()]
            outcomes = [await ctl.offer(a) for a in arrivals]
            return ctl, outcomes

        ctl, outcomes = asyncio.run(scenario())
        assert outcomes == [True, True, False, False, False]
        assert ctl.stats.admitted == 2
        assert ctl.stats.rejected_queue_full == 3
        assert ctl.stats.rejected == 3
        assert ctl.stats.peak_depth == 2

    def test_rate_limit_rejects_beyond_burst(self):
        clock = [0.0]

        async def scenario():
            ctl = AdmissionController(
                AdmissionConfig(rate=1.0, burst=2.0, queue_cap=100),
                clock=lambda: clock[0],
            )
            src = _stream(4)
            arrivals = [a async for a in src.arrivals()]
            burst = [await ctl.offer(a) for a in arrivals[:3]]
            clock[0] = 1.0  # one token refilled
            late = await ctl.offer(arrivals[3])
            return ctl, burst, late

        ctl, burst, late = asyncio.run(scenario())
        assert burst == [True, True, False]
        assert late is True
        assert ctl.stats.rejected_rate == 1

    def test_closed_controller_rejects(self):
        async def scenario():
            ctl = AdmissionController()
            await ctl.close()
            src = _stream(1)
            arrivals = [a async for a in src.arrivals()]
            return ctl, await ctl.offer(arrivals[0])

        ctl, admitted = asyncio.run(scenario())
        assert admitted is False
        assert ctl.stats.rejected_closed == 1

    def test_service_sheds_overflow_but_serves_the_rest(self):
        cluster = Cluster(4, seed=0)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=0)
        )
        # a queue of 1 with an eager producer forces queue-full rejects
        service = SchedulerService(
            engine,
            _stream(30, tasks_per_job=3),
            AdmissionController(AdmissionConfig(queue_cap=1)),
            ServeConfig(max_batch=1),
        )
        report = asyncio.run(service.serve())
        adm = report.admission
        assert adm["offered"] == 30
        assert adm["admitted"] + adm["rejected"] == 30
        assert report.jobs_committed == adm["admitted"]
        # every committed job ran to completion despite the shedding
        assert report.jobs_finished == report.jobs_committed
        assert report.invariant_violations == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(rate=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(queue_cap=0)
        with pytest.raises(ValueError):
            AdmissionConfig(policy="drop-newest")
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(duration=0.0)


# ---------------------------------------------------------------------------
# shutdown and failure paths
# ---------------------------------------------------------------------------

class TestShutdown:
    def test_in_flight_arrivals_drain_as_dropped(self):
        cluster = Cluster(4, seed=1)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=1)
        )
        admission = AdmissionController(AdmissionConfig(queue_cap=100))
        service = SchedulerService(
            engine,
            _stream(0),
            admission,
            ServeConfig(),
        )

        async def scenario():
            # arrivals already admitted (in flight) when shutdown lands
            src = _stream(4, tasks_per_job=2)
            async for arrival in src.arrivals():
                assert await admission.offer(arrival)
            service.request_shutdown("test")
            return await service.serve()

        report = asyncio.run(scenario())
        assert report.shutdown_reason == "test"
        assert report.jobs_dropped_on_shutdown == 4
        assert report.jobs_committed == 0
        assert report.placements == 0
        assert report.invariant_violations == 0

    def test_committed_jobs_finish_after_midstream_shutdown(self):
        cluster = Cluster(4, seed=2)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=2)
        )
        service_box = []

        class ShutdownMidway(JobSource):
            async def arrivals(self):
                src = _stream(10, tasks_per_job=2)
                count = 0
                async for arrival in src.arrivals():
                    yield arrival
                    count += 1
                    if count == 5:
                        service_box[0].request_shutdown("midway")

        service = SchedulerService(
            engine, ShutdownMidway(), AdmissionController(), ServeConfig()
        )
        service_box.append(service)
        report = asyncio.run(service.serve())
        assert report.shutdown_reason == "midway"
        adm = report.admission
        assert (report.jobs_committed + report.jobs_dropped_on_shutdown
                == adm["admitted"])
        # whatever was committed before the shutdown ran to completion
        assert report.jobs_finished == report.jobs_committed
        assert report.invariant_violations == 0

    def test_out_of_order_batch_aborts_without_commit(self):
        class OutOfOrder(JobSource):
            async def arrivals(self):
                src = _stream(2, interarrival=10.0)
                jobs = [a async for a in src.arrivals()]
                yield jobs[1]  # t=10 first
                yield jobs[0]  # then t=0: violates the ordering contract

        cluster = Cluster(4, seed=3)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=3)
        )
        service = SchedulerService(
            engine, OutOfOrder(), AdmissionController(), ServeConfig()
        )
        report = asyncio.run(service.serve())
        # tentative state only: the bad batch left nothing behind
        assert report.batches_aborted == 1
        assert report.jobs_aborted == 2
        assert report.jobs_committed == 0
        assert report.placements == 0
        assert report.staging_errors
        assert "event-time violation" in report.staging_errors[0]

    def test_mismatched_arrival_record_aborts(self):
        class Mismatched(JobSource):
            async def arrivals(self):
                src = _stream(1)
                async for arrival in src.arrivals():
                    yield Arrival(arrival.job, arrival.time + 5.0)

        cluster = Cluster(4, seed=4)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=4)
        )
        service = SchedulerService(
            engine, Mismatched(), AdmissionController(), ServeConfig()
        )
        report = asyncio.run(service.serve())
        assert report.batches_aborted == 1
        assert report.jobs_committed == 0

    def test_engine_rejects_stale_arrival(self):
        cluster = Cluster(4, seed=5)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=5)
        )
        engine.open_stream()
        engine.start()

        async def scenario():
            src = _stream(2, interarrival=50.0)
            return [a async for a in src.arrivals()]

        first, second = asyncio.run(scenario())
        engine.add_job(second.job)  # t=50
        engine.run_until(50.0, inclusive=True)
        with pytest.raises(ValueError, match="event-time violation"):
            engine.add_job(first.job)  # t=0, behind the clock

    def test_preloaded_engine_rejected(self):
        trace = _trace(num_jobs=2)
        cluster, jobs, _ = _build(trace)
        engine = Engine(
            cluster, TetrisScheduler(), jobs, config=EngineConfig(seed=3)
        )
        with pytest.raises(ValueError, match="streaming engine"):
            SchedulerService(
                engine, TraceReplaySource([]), AdmissionController()
            )


# ---------------------------------------------------------------------------
# the free-vector invariant
# ---------------------------------------------------------------------------

class TestInvariants:
    def test_clean_run_has_no_violations(self):
        _, report = _serve_run(_trace(num_jobs=6))
        assert report.invariant_checks > 0
        assert report.invariant_violations == 0

    def test_corrupted_allocation_is_detected(self):
        engine, _ = _serve_run(_trace(num_jobs=4))
        assert verify_free_vectors(engine.cluster) == []
        machine = engine.cluster.machines[0]
        machine.allocated.data[0] += 1.5  # simulated double-deduction
        issues = verify_free_vectors(engine.cluster)
        assert issues
        assert "machine 0" in issues[0]


# ---------------------------------------------------------------------------
# reporting and metrics
# ---------------------------------------------------------------------------

class TestReporting:
    def test_report_is_json_serializable(self):
        _, report = _serve_run(_trace(num_jobs=5))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["jobs"]["committed"] == 5
        assert payload["placements"] > 0
        assert payload["placements_per_sec"] > 0
        assert payload["invariants"]["violations"] == 0

    def test_registry_gauges_populate(self):
        registry = Registry()
        _, report = _serve_run(_trace(num_jobs=5), registry=registry)
        snap = registry.snapshot()
        assert snap["repro_serve_jobs_committed_total"]["values"][""] == 5
        decisions = snap["repro_serve_admission_total"]["values"]
        assert decisions.get("decision=admitted") == 5
        batches = snap["repro_serve_batches_total"]["values"]
        assert sum(batches.values()) == report.batches_committed
        latency = snap["repro_serve_placement_latency_seconds"]["values"][""]
        assert latency["count"] == 5  # one first-placement per job
        assert snap["repro_serve_placements_per_sec"]["values"][""] > 0

    def test_throughput_is_reported(self):
        _, report = _serve_run(_trace(num_jobs=5))
        assert report.drive_seconds > 0
        assert report.wall_seconds >= report.drive_seconds
        assert report.placements_per_sec == pytest.approx(
            report.placements / report.drive_seconds
        )


# ---------------------------------------------------------------------------
# the re-entrant engine stepping API
# ---------------------------------------------------------------------------

class TestEngineStepping:
    def test_run_until_infinity_equals_run(self):
        trace = _trace(num_jobs=6, seed=9)
        batch = _batch_run(trace, seed=9)
        cluster, jobs, _ = _build(trace, seed=9)
        engine = Engine(
            cluster, TetrisScheduler(), jobs, config=EngineConfig(seed=9)
        )
        engine.start()
        engine.run_until(float("inf"))
        engine.finalize()
        assert _placements(engine) == _placements(batch)
        assert engine.now == batch.now

    def test_run_until_is_resumable_in_slices(self):
        trace = _trace(num_jobs=6, seed=10)
        batch = _batch_run(trace, seed=10)
        cluster, jobs, _ = _build(trace, seed=10)
        engine = Engine(
            cluster, TetrisScheduler(), jobs, config=EngineConfig(seed=10)
        )
        engine.start()
        while engine.run_until(float("inf"), max_steps=3) == 3:
            pass
        engine.finalize()
        assert _placements(engine) == _placements(batch)

    def test_exclusive_limit_stops_before_boundary(self):
        async def scenario():
            src = _stream(3, interarrival=10.0)
            return [a async for a in src.arrivals()]

        arrivals = asyncio.run(scenario())
        cluster = Cluster(2, seed=0)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=0)
        )
        engine.open_stream()
        engine.start()
        for arrival in arrivals:
            engine.add_job(arrival.job)
        engine.run_until(10.0, inclusive=False)
        assert engine.now < 10.0
        engine.run_until(10.0, inclusive=True)
        assert engine.now >= 10.0

    def test_open_stream_survives_event_drought(self):
        # with the stream open and nothing queued, run_until returns
        # instead of raising the stuck-simulation error
        cluster = Cluster(2, seed=0)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=0)
        )
        engine.open_stream()
        engine.start()
        steps = engine.run_until(float("inf"))
        assert steps == 0


# ---------------------------------------------------------------------------
# the telemetry surfaces (/healthz, /status, rolling windows, latency scan)
# ---------------------------------------------------------------------------

def _make_service(
    trace, seed=3, num_machines=6, serve_config=None, registry=None,
):
    cluster, jobs, _ = _build(trace, num_machines, seed)
    engine = Engine(
        cluster, TetrisScheduler(), [],
        config=EngineConfig(seed=seed),
        metrics=registry,
    )
    service = SchedulerService(
        engine,
        TraceReplaySource(jobs),
        AdmissionController(AdmissionConfig(queue_cap=10_000)),
        serve_config if serve_config is not None else ServeConfig(),
        registry=registry,
    )
    return engine, service


class TestPlacementLatencyScan:
    def test_uncapped_log_yields_full_coverage(self):
        import warnings

        engine, service = _make_service(_trace(num_jobs=6))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = asyncio.run(service.serve())
        assert report.placement_latency["count"] == 6


class TestRollingWindowTelemetry:
    def test_window_gauges_populate(self):
        registry = Registry()
        _, service = _make_service(
            _trace(num_jobs=6),
            serve_config=ServeConfig(window_seconds=60.0),
            registry=registry,
        )
        asyncio.run(service.serve())
        snap = registry.snapshot()
        assert snap["repro_serve_window_placements_per_sec"]["values"][""] >= 0
        latency = snap["repro_serve_window_placement_latency_seconds"]["values"]
        assert set(latency) == {
            "quantile=0.5", "quantile=0.95", "quantile=0.99"
        }
        assert latency["quantile=0.5"] <= latency["quantile=0.99"]
        assert snap["repro_serve_window_admission_reject_rate"]["values"][""] == 0.0

    def test_windows_off_by_default(self):
        registry = Registry()
        _, service = _make_service(_trace(num_jobs=4), registry=registry)
        asyncio.run(service.serve())
        snap = registry.snapshot()
        assert "repro_serve_window_placements_per_sec" not in snap
        assert service.window_snapshot() is None

    def test_window_snapshot_shape(self):
        _, service = _make_service(
            _trace(num_jobs=6),
            serve_config=ServeConfig(window_seconds=45.0),
        )
        asyncio.run(service.serve())
        snap = service.window_snapshot()
        assert snap["seconds"] == 45.0
        assert snap["placements_per_sec"] >= 0.0
        # quantiles are either real floats or None, never NaN
        for key in ("latency_p50", "latency_p95", "latency_p99"):
            value = snap[key]
            assert value is None or value == value
        assert snap["admission_reject_rate"] == 0.0
        json.dumps(snap)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window_seconds"):
            ServeConfig(window_seconds=0.0)


class TestHealthAndStatus:
    def test_health_after_clean_run(self):
        _, service = _make_service(_trace(num_jobs=5))
        asyncio.run(service.serve())
        health = service.health()
        assert health["healthy"] is True
        assert health["status"] == "ok"
        assert health["phase"] == "done"
        assert health["queue_depth"] == 0
        assert health["watermark"]["lag_seconds"] == 0.0
        assert health["invariant_violations"] == 0
        json.dumps(health)

    def test_health_before_serve_is_idle_and_healthy(self):
        _, service = _make_service(_trace(num_jobs=3))
        health = service.health()
        assert health["healthy"] is True
        assert health["phase"] == "init"
        assert health["uptime_seconds"] == 0.0

    def test_stalled_consumer_reports_unhealthy(self):
        clock = [0.0]
        cluster, jobs, _ = _build(_trace(num_jobs=3), 6, 3)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=3)
        )
        service = SchedulerService(
            engine,
            TraceReplaySource(jobs),
            AdmissionController(AdmissionConfig(queue_cap=100)),
            ServeConfig(),
            clock=lambda: clock[0],
        )
        # simulate a wedged active consumer: phase active, no progress
        service._phase = "active"
        service._last_progress = 0.0
        clock[0] = LIVENESS_DEADLINE + 10.0
        health = service.health()
        assert health["healthy"] is False
        assert health["status"] == "stalled"
        assert health["liveness"] == {
            "last_progress_age_seconds": LIVENESS_DEADLINE + 10.0,
            "deadline_seconds": LIVENESS_DEADLINE,
        }

    def test_idle_waiting_never_counts_as_stalled(self):
        clock = [0.0]
        cluster, jobs, _ = _build(_trace(num_jobs=3), 6, 3)
        engine = Engine(
            cluster, TetrisScheduler(), [], config=EngineConfig(seed=3)
        )
        service = SchedulerService(
            engine,
            TraceReplaySource(jobs),
            AdmissionController(AdmissionConfig(queue_cap=100)),
            ServeConfig(),
            clock=lambda: clock[0],
        )
        service._phase = "waiting"
        service._last_progress = 0.0
        clock[0] = 1000.0
        assert service.health()["healthy"] is True

    def test_invariant_violation_is_unhealthy(self):
        _, service = _make_service(_trace(num_jobs=3))
        asyncio.run(service.serve())
        service.report.invariant_violations = 1
        health = service.health()
        assert health["healthy"] is False
        assert health["status"] == "invariant-violation"

    def test_status_snapshot_shape_and_liveness(self):
        _, service = _make_service(
            _trace(num_jobs=5),
            serve_config=ServeConfig(window_seconds=60.0),
        )
        asyncio.run(service.serve())
        snap = service.status_snapshot()
        assert snap["phase"] == "done"
        assert snap["jobs"]["offered"] == 5
        assert snap["jobs"]["admitted"] == 5
        assert snap["jobs"]["finished"] == 5
        assert snap["placements"] > 0
        assert snap["queue_depth"] == 0
        assert snap["window"]["seconds"] == 60.0
        assert snap["placement_latency"]["count"] == 5
        json.dumps(snap)

    def test_status_snapshot_before_serve(self):
        _, service = _make_service(_trace(num_jobs=3))
        snap = service.status_snapshot()
        assert snap["phase"] == "init"
        assert snap["placements"] == 0
        assert snap["wall_seconds"] == 0.0
        json.dumps(snap)


class TestLiveProfile:
    """The /debug/profile payload source (SchedulerService.profile_snapshot)."""

    def _run_with_profiler(self, window_seconds=None):
        from repro.profiling import Profiler

        trace = _trace(num_jobs=6)
        cluster, jobs, tracker = _build(trace)
        engine = Engine(
            cluster, TetrisScheduler(), [],
            config=EngineConfig(seed=3),
            profiler=Profiler(),
        )
        service = SchedulerService(
            engine,
            TraceReplaySource(jobs),
            AdmissionController(AdmissionConfig(queue_cap=10_000)),
            ServeConfig(max_batch=8, window_seconds=window_seconds),
        )
        asyncio.run(service.serve())
        return service

    def test_no_profiler_reports_disabled(self):
        trace = _trace(num_jobs=4)
        cluster, jobs, _ = _build(trace)
        engine = Engine(cluster, TetrisScheduler(), [],
                        config=EngineConfig(seed=3))
        service = SchedulerService(
            engine,
            TraceReplaySource(jobs),
            AdmissionController(AdmissionConfig(queue_cap=10_000)),
            ServeConfig(max_batch=8),
        )
        snap = service.profile_snapshot()
        assert snap["enabled"] is False
        assert snap["phases"] == {}
        assert "without a profiler" in snap["note"]

    def test_phases_surface_with_self_time(self):
        service = self._run_with_profiler(window_seconds=60.0)
        snap = service.profile_snapshot()
        assert snap["enabled"] is True
        assert "engine.scheduler_round" in snap["phases"]
        entry = snap["phases"]["engine.scheduler_round"]
        assert entry["count"] > 0
        assert 0.0 < entry["self_seconds"] <= entry["total_seconds"]
        assert entry["mean_ms"] > 0.0
        # the payload must be JSON-serializable as-is (it goes over HTTP)
        json.dumps(snap)

    def test_rolling_checkpoints_only_with_window(self):
        without = self._run_with_profiler(window_seconds=None)
        assert without.profile_snapshot()["checkpoints"] == 0
        with_window = self._run_with_profiler(window_seconds=60.0)
        assert with_window.profile_snapshot()["checkpoints"] > 0

    def test_window_rates_appear_once_span_elapses(self):
        service = self._run_with_profiler(window_seconds=60.0)
        snap = service.profile_snapshot()
        entry = snap["phases"]["engine.scheduler_round"]
        window = entry.get("window")
        if window is not None:  # needs a checkpoint older than "now"
            assert window["rate_per_sec"] >= 0.0
            assert window["busy_fraction"] >= 0.0
            assert window["seconds"] > 0.0
