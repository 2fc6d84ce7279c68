"""The program hooks the benchmarks measure through.

``pytest benchmarks/`` and the ``BENCHMARK.json`` command read a run's
wall clock and placement count off ``RunResult``, its phase timings off
the :class:`~repro.profiling.Profiler`, its counters off the metric
registry, fan runs out over the process pool, and write JSON through
the CLI's strict writer; the packing microbenchmark times one
``schedule()`` call on a partially loaded cluster.  These tests pin each
of them at smoke size.
"""

import json

import pytest

from repro.cli import _dump_json
from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker
from repro.exec import ProcessPoolBackend, RunSpec, SerialBackend, run_specs
from repro.experiments.harness import ExperimentConfig, run_trace
from repro.obs import Registry
from repro.profiling import Profiler
from repro.resources import DEFAULT_MODEL
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskWork
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

#: a tiny end-to-end run: six jobs on six machines, seconds to simulate
SMOKE_TRACE = WorkloadSuiteConfig(
    num_jobs=6, task_scale=0.02, arrival_horizon=100, seed=3
)
SMOKE_CONFIG = ExperimentConfig(num_machines=6, seed=3)


def _instrumented_run(trace, config):
    """Run Tetris on an engine carrying a profiler and a metric registry,
    built the way the repository benchmark builds its engines."""
    profiler, registry = Profiler(), Registry()
    cluster = config.make_cluster()
    jobs = materialize_trace(trace, cluster, seed=config.seed)
    Engine(
        cluster,
        TetrisScheduler(),
        jobs,
        tracker=ResourceTracker(cluster) if config.use_tracker else None,
        config=config.make_engine_config(),
        profiler=profiler,
        metrics=registry,
    ).run()
    return profiler, registry


def _fidelity(result):
    """The simulated outcome of a run: identical on every repeat."""
    return {
        "mean_jct": result.mean_jct,
        "makespan": result.makespan,
        "num_placements": result.num_placements,
        "completions": result.completion_by_name(),
    }


def _packing_state(vectorized, num_machines=8, num_jobs=10, tasks_per_job=4):
    """``benchmarks/test_microbench.py``'s mid-simulation state at toy
    size: every machine partially loaded by one long filler task, every
    job with pending work."""
    cluster = Cluster(num_machines, seed=0)
    scheduler = TetrisScheduler(TetrisConfig(vectorized=vectorized))
    scheduler.bind(cluster)
    for j in range(num_jobs):
        tasks = [
            Task(
                DEFAULT_MODEL.vector(
                    cpu=4 + (j % 3), mem=12, diskr=40, diskw=10
                ),
                TaskWork(cpu_core_seconds=60.0 + 5 * (j % 7)),
            )
            for _ in range(tasks_per_job)
        ]
        job = Job([Stage("work", tasks)], arrival_time=0.0, name=f"job-{j}")
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    for machine in cluster.machines:
        filler = Task(
            DEFAULT_MODEL.vector(cpu=8, mem=24, diskr=100),
            TaskWork(cpu_core_seconds=1e6),
        )
        filler.mark_runnable()
        machine.place(filler, filler.demands)
    return scheduler


class TestScenarios:
    def test_packing_state_has_pending_work(self):
        """The loaded machines still fit tasks, so a timed packing round
        places work, and both engines place the same tasks."""
        placed = {}
        for vectorized in (False, True):
            scheduler = _packing_state(vectorized)
            placements = scheduler.schedule(0.0, list(range(8)))
            assert len(placements) > 0
            placed[vectorized] = len(placements)
        assert placed[False] == placed[True]


class TestCapture:
    @pytest.fixture(scope="class")
    def smoke_run(self):
        trace = generate_workload_suite(SMOKE_TRACE)
        result = run_trace(trace, TetrisScheduler(), SMOKE_CONFIG)
        profiler, registry = _instrumented_run(trace, SMOKE_CONFIG)
        return result, profiler, registry

    def test_metric_records(self, smoke_run):
        result, _, _ = smoke_run
        assert result.wall_seconds > 0
        assert result.num_placements > 0
        assert result.mean_jct > 0
        assert result.makespan >= result.mean_jct

    def test_phase_metrics_present_and_attributable(self, smoke_run):
        _, profiler, _ = smoke_run
        assert "tetris.schedule" in profiler.labels()
        assert "engine.scheduler_round" in profiler.labels()
        # every engine round times one Tetris schedule() call inside it,
        # so a slow round is attributable to the packing phase
        schedule = profiler.stats("tetris.schedule")
        round_stats = profiler.stats("engine.scheduler_round")
        assert schedule.count == round_stats.count > 0
        assert 0 < schedule.total <= round_stats.total

    def test_registry_snapshot_embedded(self, smoke_run, tmp_path):
        _, _, registry = smoke_run
        target = tmp_path / "run.json"
        _dump_json({"registry": registry.snapshot()}, target)
        embedded = json.loads(target.read_text())["registry"]
        assert embedded["repro_engine_rounds_total"]["values"][""] > 0

    def test_clean_rerun_compares_stable(self, smoke_run):
        result, _, _ = smoke_run
        again = run_trace(
            generate_workload_suite(SMOKE_TRACE), TetrisScheduler(),
            SMOKE_CONFIG,
        )
        assert _fidelity(again) == _fidelity(result)


class TestSerialization:
    def test_dump_json_strict_and_atomic(self, tmp_path):
        target = tmp_path / "sub" / "out.json"
        _dump_json({"a": 1.5}, target)  # creates the parent directory
        assert json.loads(target.read_text()) == {"a": 1.5}
        assert not list(tmp_path.glob("**/*.tmp"))
        with pytest.raises(ValueError):
            _dump_json({"bad": float("nan")}, tmp_path / "nan.json")


class TestHarnessBenchHooks:
    def test_run_trace_reports_wall_and_placements(self):
        trace = generate_workload_suite(
            WorkloadSuiteConfig(num_jobs=3, task_scale=0.02,
                                arrival_horizon=50, seed=2)
        )
        config = ExperimentConfig(num_machines=4, seed=2)
        result = run_trace(trace, TetrisScheduler(), config)
        profiler, registry = _instrumented_run(trace, config)
        assert result.wall_seconds > 0
        assert result.num_placements > 0
        # the benchmarks' throughput: placements per wall second
        assert result.num_placements / result.wall_seconds > 0
        assert "tetris.schedule" in profiler.labels()
        assert registry.snapshot()["repro_engine_rounds_total"]["values"][""] > 0


class TestParallelCapture:
    """Runs through the process pool: identical simulated outcomes."""

    def test_trace_capture_workers_parity(self):
        spec = RunSpec(
            trace=generate_workload_suite(SMOKE_TRACE),
            scheduler="tetris",
            config=SMOKE_CONFIG,
        )
        serial = run_specs([spec, spec], SerialBackend())
        parallel = run_specs([spec, spec], ProcessPoolBackend(workers=2))
        assert all(o.ok for o in serial + parallel)
        # simulated outcomes are bit-identical across backends; wall
        # clock legitimately differs
        for s, p in zip(serial, parallel):
            assert _fidelity(p.result) == _fidelity(s.result)
            assert p.wall_seconds > 0
