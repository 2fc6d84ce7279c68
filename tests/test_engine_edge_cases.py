"""Engine edge cases: empty workloads, simultaneous events, evacuation."""

import pytest

from repro.activity.ingestion import evacuation, ingestion
from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker, TrackerConfig
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine, EngineConfig

from conftest import make_simple_job, make_task


class TestEmptyAndTrivial:
    def test_no_jobs_no_activities(self):
        engine = Engine(Cluster(2, machines_per_rack=2), FifoScheduler(), [])
        collector = engine.run()
        assert collector.makespan() == 0.0
        assert len(collector.jobs) == 0

    def test_activities_only(self):
        act = ingestion(0, start_time=2.0, size_mb=100, rate_mbps=50)
        engine = Engine(
            Cluster(1), FifoScheduler(), [], activities=[act]
        )
        engine.run()
        assert act.finish_time == pytest.approx(4.0)

    def test_job_with_empty_stage_raises_nothing(self):
        from repro.workload.job import Job
        from repro.workload.stage import Stage

        job = Job([Stage("empty", []),])
        engine = Engine(Cluster(1), FifoScheduler(), [job])
        engine.run()
        assert job.is_finished or job.num_tasks == 0


class TestSimultaneity:
    def test_simultaneous_arrivals(self):
        jobs = [make_simple_job(num_tasks=2, arrival_time=10.0,
                                name=f"j{i}") for i in range(4)]
        engine = Engine(Cluster(2, machines_per_rack=2),
                        FifoScheduler(), jobs)
        engine.run()
        assert all(j.is_finished for j in jobs)

    def test_identical_tasks_finish_together(self):
        job = make_simple_job(num_tasks=4, cpu=2, cpu_work=20)
        engine = Engine(Cluster(4, machines_per_rack=2),
                        FifoScheduler(), [job])
        engine.run()
        finishes = {round(t.finish_time, 9) for t in job.all_tasks()}
        assert len(finishes) == 1


class TestEvacuationEndToEnd:
    def test_evacuation_completes_and_contends(self):
        """Evacuation drains diskr+netout; a co-located disk reader
        slows it down and vice versa."""
        cluster = Cluster(1)
        act = evacuation(0, start_time=0.0, size_mb=1000, rate_mbps=100)
        engine = Engine(cluster, FifoScheduler(), [], activities=[act])
        engine.run()
        assert act.finish_time == pytest.approx(10.0)

    def test_tracker_sees_evacuation(self):
        cluster = Cluster(2, machines_per_rack=2)
        tracker = ResourceTracker(
            cluster, TrackerConfig(ramp_seconds=0.0)
        )
        act = evacuation(0, start_time=0.0, size_mb=50_000, rate_mbps=120)
        from repro.workload.job import Job
        from repro.workload.stage import Stage
        from repro.workload.task import TaskInput

        # disk-read-heavy tasks with input pinned on both machines
        tasks = []
        for _ in range(4):
            block = cluster.blockstore.add_block(500.0, primary=0)
            tasks.append(
                make_task(cpu=1, mem=1, diskr=120, netin=60, cpu_work=1,
                          inputs=[TaskInput(500.0, (0, 1))])
            )
        job = Job([Stage("read", tasks)], arrival_time=5.0)
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.0))
        engine = Engine(
            cluster, scheduler, [job], activities=[act], tracker=tracker,
            config=EngineConfig(tracker_period=1.0),
        )
        engine.run()
        # evacuation holds machine 0's disk; the readers go to machine 1
        placed_late = [
            t for t in tasks if t.start_time and t.start_time > 5.0
        ]
        assert placed_late
        assert all(t.machine_id == 1 for t in placed_late)


class TestSamplePeriod:
    def test_sampling_respects_period(self):
        job = make_simple_job(num_tasks=2, cpu=1, cpu_work=100)
        engine = Engine(
            Cluster(1), FifoScheduler(), [job],
        )
        collector = engine.run()
        times = [p.time for p in collector.timeline]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 0 for g in gaps)
        # ~100s run with 25s period: a handful of samples, not hundreds
        assert len(times) < 20
