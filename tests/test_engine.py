"""End-to-end engine tests on small controlled workloads."""

import pytest

from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim import engine as engine_module
from repro.sim.engine import MIN_TASK_DURATION, Engine, EngineConfig
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskInput, TaskState, TaskWork

from conftest import make_simple_job, make_task, make_two_stage_job


def run_jobs(jobs, num_machines=4, scheduler=None, **engine_kw):
    cluster = Cluster(num_machines, machines_per_rack=2, seed=1)
    scheduler = scheduler if scheduler is not None else FifoScheduler()
    engine = Engine(cluster, scheduler, jobs,
                    config=EngineConfig(**engine_kw))
    collector = engine.run()
    return engine, collector


class TestBasicExecution:
    def test_single_job_completes(self):
        job = make_simple_job(num_tasks=4, cpu=2, cpu_work=20)
        engine, collector = run_jobs([job])
        assert job.is_finished
        assert job.completion_time == pytest.approx(10.0, rel=1e-6)
        assert collector.mean_jct() == pytest.approx(10.0, rel=1e-6)

    def test_cpu_task_duration_is_work_over_cores(self):
        job = make_simple_job(num_tasks=1, cpu=4, cpu_work=40)
        run_jobs([job])
        assert job.all_tasks()[0].duration == pytest.approx(10.0, rel=1e-6)

    def test_arrival_time_respected(self):
        job = make_simple_job(num_tasks=1, arrival_time=100.0, cpu_work=10)
        engine, collector = run_jobs([job])
        task = job.all_tasks()[0]
        assert task.start_time >= 100.0
        assert collector.makespan() == pytest.approx(10.0, rel=1e-6)

    def test_zero_work_task_charged_min_duration(self):
        task = Task(DEFAULT_MODEL.vector(cpu=1, mem=1), TaskWork())
        job = Job([Stage("s", [task])])
        run_jobs([job])
        assert task.duration == pytest.approx(MIN_TASK_DURATION)

    def test_two_stage_barrier_ordering(self):
        job = make_two_stage_job(num_map=3, num_reduce=2)
        run_jobs([job])
        map_finish = max(
            t.finish_time for t in job.dag.roots()[0].tasks
        )
        reduce_start = min(
            t.start_time for t in job.dag.leaves()[0].tasks
        )
        assert reduce_start >= map_finish

    def test_shuffle_inputs_resolved_to_parent_machines(self):
        job = make_two_stage_job(num_map=3, num_reduce=2)
        run_jobs([job])
        parent_machines = {
            t.machine_id for t in job.dag.roots()[0].tasks
        }
        for task in job.dag.leaves()[0].tasks:
            for inp in task.inputs:
                assert len(inp.locations) == 1
                assert inp.locations[0] in parent_machines

    def test_multiple_jobs(self):
        jobs = [make_simple_job(num_tasks=2, arrival_time=i * 5.0)
                for i in range(3)]
        engine, collector = run_jobs(jobs)
        assert all(j.is_finished for j in jobs)
        assert len(collector.jobs) == 3


class TestDeterminism:
    def _signature(self, seed):
        jobs = [make_two_stage_job(num_map=4, num_reduce=2,
                                   arrival_time=i * 3.0)
                for i in range(3)]
        cluster = Cluster(4, machines_per_rack=2, seed=seed)
        engine = Engine(cluster, TetrisScheduler(), jobs,
                        config=EngineConfig(seed=seed))
        engine.run()
        return [
            (t.machine_id, round(t.start_time, 9), round(t.finish_time, 9))
            for j in jobs
            for t in j.all_tasks()
        ]

    def test_same_seed_same_schedule(self):
        assert self._signature(5) == self._signature(5)


class TestInvariants:
    def test_memory_never_over_allocated_with_tetris(self):
        """Tetris checks every dimension, so booked allocations never
        exceed capacity at any machine."""
        jobs = [make_simple_job(num_tasks=6, cpu=4, mem=20, cpu_work=10,
                                arrival_time=i)
                for i in range(4)]
        cluster = Cluster(2, machines_per_rack=2)
        engine = Engine(cluster, TetrisScheduler(), jobs)

        # wrap placement to check the invariant at every instant
        original = engine._start_task

        def checked(placement):
            original(placement)
            machine = cluster.machine(placement.machine_id)
            assert machine.allocated.fits_in(machine.capacity)

        engine._start_task = checked
        engine.run()
        assert all(j.is_finished for j in jobs)

    def test_machines_empty_after_run(self):
        jobs = [make_two_stage_job() for _ in range(2)]
        engine, _ = run_jobs(jobs)
        for machine in engine.cluster.machines:
            assert machine.num_running == 0
            assert machine.allocated.is_zero()

    def test_all_flows_drained(self):
        jobs = [make_two_stage_job()]
        engine, _ = run_jobs(jobs)
        assert engine.flows.num_active == 0


class TestBoundedLogs:
    def test_logs_unbounded_by_default(self):
        """Both logs keep every entry: the auditor, the Perfetto export
        and the round-placements histogram read them whole."""
        jobs = [make_simple_job(num_tasks=6)]
        engine, _ = run_jobs(jobs)
        assert isinstance(engine.placement_log, list)
        assert len(engine.placement_log) == 6
        assert isinstance(engine.round_log, list)
        assert sum(entry[2] for entry in engine.round_log) == 6


class TestStuckDetection:
    def test_unplaceable_task_raises(self):
        giant = Task(
            DEFAULT_MODEL.vector(cpu=64, mem=500), TaskWork(10)
        )
        job = Job([Stage("s", [giant])])
        with pytest.raises(RuntimeError, match="stuck"):
            run_jobs([job], scheduler=TetrisScheduler())

    def test_max_time_guard(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_TIME", 10.0)
        job = make_simple_job(num_tasks=1, cpu=1, cpu_work=1000.0)
        with pytest.raises(RuntimeError, match="max_time"):
            run_jobs([job])


class TestContentionEndToEnd:
    def test_over_allocation_stretches_tasks(self):
        """A FIFO scheduler that only checks CPU+memory lets two
        disk-saturating writers share one machine's disk; both take about
        twice (plus penalty) their nominal duration."""
        tasks = [
            make_task(cpu=1, mem=1, diskw=200, write_mb=2000, cpu_work=1)
            for _ in range(2)
        ]
        job = Job([Stage("s", tasks)])
        run_jobs([job], num_machines=1)
        nominal = 10.0  # 2000 MB at 200 MB/s
        for task in tasks:
            assert task.duration > 2 * nominal  # sharing + incast penalty

    def test_tetris_avoids_the_contention(self):
        tasks = [
            make_task(cpu=1, mem=1, diskw=200, write_mb=2000, cpu_work=1)
            for _ in range(2)
        ]
        job = Job([Stage("s", tasks)])
        run_jobs([job], num_machines=2, scheduler=TetrisScheduler())
        for task in tasks:
            assert task.duration == pytest.approx(10.0, rel=1e-6)
        assert len({t.machine_id for t in tasks}) == 2
