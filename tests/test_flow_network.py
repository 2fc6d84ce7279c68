"""Quincy-style min-cost-flow scheduler tests."""

import pytest

pytest.importorskip("networkx")  # the `flow` extra

from repro.cluster.cluster import Cluster
from repro.schedulers.flow_network import FlowNetworkScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import TaskInput

from conftest import make_simple_job, make_task, make_two_stage_job


def schedule_once(scheduler, jobs, num_machines=2):
    cluster = Cluster(num_machines, machines_per_rack=2)
    scheduler.bind(cluster)
    for job in jobs:
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    return cluster, scheduler.schedule(0.0)


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FlowNetworkScheduler(slot_mem_gb=0)
        with pytest.raises(ValueError):
            FlowNetworkScheduler(max_tasks_per_round=0)

    def test_network_shape(self):
        scheduler = FlowNetworkScheduler()
        cluster = Cluster(4, machines_per_rack=2)
        scheduler.bind(cluster)
        job = make_simple_job(num_tasks=3)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        graph = scheduler.build_network(scheduler._runnable_tasks())
        assert "sink" in graph and "unsched" in graph and "cluster" in graph
        assert sum(1 for n in graph if str(n).startswith("m")) == 4
        assert sum(1 for n in graph if str(n).startswith("t")) == 3
        assert sum(1 for n in graph if str(n).startswith("rack")) == 2


class TestAssignment:
    def test_everything_placed_when_room(self):
        job = make_simple_job(num_tasks=6, mem=2)
        cluster, placements = schedule_once(FlowNetworkScheduler(), [job])
        assert len(placements) == 6

    def test_data_locality_preferred(self):
        cluster = Cluster(4, machines_per_rack=2)
        scheduler = FlowNetworkScheduler()
        scheduler.bind(cluster)
        tasks = [
            make_task(cpu=1, mem=2, diskr=40, netin=40, cpu_work=5,
                      inputs=[TaskInput(100.0, (2,))])
            for _ in range(3)
        ]
        job = Job([Stage("map", tasks)])
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        placements = scheduler.schedule(0.0)
        # machine 2 holds all the data and has plenty of slots
        assert all(p.machine_id == 2 for p in placements)

    def test_capacity_respected(self):
        scheduler = FlowNetworkScheduler(slot_mem_gb=2.0)
        job = make_simple_job(num_tasks=100, mem=2)
        cluster, placements = schedule_once(scheduler, [job],
                                            num_machines=1)
        assert len(placements) == 24  # 48 GB / 2 GB slots

    def test_round_cap(self):
        scheduler = FlowNetworkScheduler(max_tasks_per_round=5)
        job = make_simple_job(num_tasks=50, mem=2)
        cluster, placements = schedule_once(scheduler, [job])
        assert len(placements) <= 5


class TestEndToEnd:
    def test_simple_workload_completes(self):
        jobs = [make_simple_job(num_tasks=4, cpu=2, cpu_work=10,
                                arrival_time=float(i)) for i in range(3)]
        cluster = Cluster(2, machines_per_rack=2)
        Engine(cluster, FlowNetworkScheduler(), jobs).run()
        assert all(j.is_finished for j in jobs)

    def test_barriered_workload_completes(self):
        jobs = [make_two_stage_job(num_map=4, num_reduce=2)]
        cluster = Cluster(2, machines_per_rack=2)
        Engine(cluster, FlowNetworkScheduler(), jobs).run()
        assert jobs[0].is_finished

    def test_slots_restored(self):
        jobs = [make_simple_job(num_tasks=6, mem=2, cpu_work=5)]
        cluster = Cluster(2, machines_per_rack=2)
        scheduler = FlowNetworkScheduler()
        Engine(cluster, scheduler, jobs).run()
        assert all(
            scheduler._slots_free[m.machine_id] == 24
            for m in cluster.machines
        )
