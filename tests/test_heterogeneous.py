"""Heterogeneous-cluster tests: per-machine capacities end to end."""

import pytest

from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine
from repro.analysis.model import audit_engine

from conftest import make_simple_job, make_task


def big_and_small_cluster():
    """Two beefy machines and two small ones."""
    big = DEFAULT_MODEL.vector(cpu=32, mem=96, diskr=400, diskw=400,
                               netin=250, netout=250)
    small = DEFAULT_MODEL.vector(cpu=4, mem=8, diskr=50, diskw=50,
                                 netin=30, netout=30)
    return Cluster(
        4, machines_per_rack=2,
        machine_capacities=[big, big, small, small],
    )


class TestClusterConstruction:
    def test_capacity_list_length_checked(self):
        with pytest.raises(ValueError):
            Cluster(3, machine_capacities=[DEFAULT_MODEL.vector(cpu=1)])

    def test_per_machine_capacities(self):
        cluster = big_and_small_cluster()
        assert cluster.machine(0).capacity.get("cpu") == 32
        assert cluster.machine(3).capacity.get("cpu") == 4
        assert cluster.total_capacity().get("cpu") == 72


class TestSchedulingOnHeterogeneous:
    def test_large_task_lands_on_large_machine(self):
        cluster = big_and_small_cluster()
        job = make_simple_job(num_tasks=2, cpu=16, mem=32, cpu_work=32)
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.0))
        engine = Engine(cluster, scheduler, [job])
        engine.run()
        for task in job.all_tasks():
            assert task.machine_id in (0, 1)

    def test_small_machines_still_used(self):
        cluster = big_and_small_cluster()
        jobs = [make_simple_job(num_tasks=40, cpu=2, mem=2, cpu_work=20)]
        engine = Engine(cluster, TetrisScheduler(), jobs)
        engine.run()
        machines_used = {t.machine_id for t in jobs[0].all_tasks()}
        assert machines_used & {2, 3}

    def test_run_is_feasible(self):
        cluster = big_and_small_cluster()
        jobs = [
            make_simple_job(num_tasks=10, cpu=2, mem=4, cpu_work=10,
                            arrival_time=float(i))
            for i in range(3)
        ]
        engine = Engine(cluster, TetrisScheduler(), jobs)
        engine.run()
        report = audit_engine(engine)
        assert report.ok, report.violations[:3]

    def test_slot_counts_follow_machine_memory(self):
        cluster = big_and_small_cluster()
        scheduler = SlotFairScheduler(slot_mem_gb=2.0)
        scheduler.bind(cluster)
        assert scheduler.slots_of(cluster.machine(0)) == 48
        assert scheduler.slots_of(cluster.machine(2)) == 4
        assert scheduler.total_slots() == 48 + 48 + 4 + 4

    def test_slot_fair_runs_end_to_end(self):
        cluster = big_and_small_cluster()
        jobs = [make_simple_job(num_tasks=12, cpu=1, mem=2, cpu_work=5)]
        Engine(cluster, SlotFairScheduler(), jobs).run()
        assert jobs[0].is_finished

    def test_fluid_contention_respects_small_machine(self):
        """A disk flow on a small machine is limited by *its* 50 MB/s."""
        cluster = big_and_small_cluster()
        task = make_task(cpu=1, mem=1, diskw=50, write_mb=500, cpu_work=1)
        from repro.workload.job import Job
        from repro.workload.stage import Stage

        job = Job([Stage("w", [task])])
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.0))
        engine = Engine(cluster, scheduler, [job])
        engine.run()
        if task.machine_id in (2, 3):
            assert task.duration >= 10.0 - 1e-6  # 500 MB at <= 50 MB/s
