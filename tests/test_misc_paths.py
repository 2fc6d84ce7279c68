"""Targeted tests for less-travelled paths."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker
from repro.metrics.collector import MetricsCollector
from repro.schedulers.flow_network import FlowNetworkScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.engine import Engine, EngineConfig
from repro.sim.fluid import FlowTable
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import TaskInput

from conftest import make_simple_job, make_task


class TestFlowNetworkAggregatedRoute:
    @pytest.fixture(autouse=True)
    def _needs_networkx(self):
        pytest.importorskip("networkx")  # the `flow` extra

    def test_tasks_without_locality_still_placed(self):
        """Tasks with no replica preference route through the cluster
        aggregator and land wherever slots exist."""
        scheduler = FlowNetworkScheduler()
        cluster = Cluster(3, machines_per_rack=2)
        scheduler.bind(cluster)
        job = make_simple_job(num_tasks=5, mem=2)  # no inputs at all
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        placements = scheduler.schedule(0.0)
        assert len(placements) == 5

    def test_overflow_from_full_preferred_machine(self):
        """When the data's host is out of slots, flow routes elsewhere."""
        scheduler = FlowNetworkScheduler(slot_mem_gb=2.0)
        cluster = Cluster(2, machines_per_rack=2)
        scheduler.bind(cluster)
        scheduler._slots_free[0] = 1  # data host nearly full
        tasks = [
            make_task(cpu=1, mem=2, cpu_work=5,
                      inputs=[TaskInput(50.0, (0,))])
            for _ in range(4)
        ]
        job = Job([Stage("map", tasks)])
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        placements = scheduler.schedule(0.0)
        assert len(placements) == 4
        machines = sorted(p.machine_id for p in placements)
        assert machines.count(0) == 1  # one local, rest overflowed
        assert machines.count(1) == 3


class TestMachineUsageSampling:
    def test_machine_usage_arrays(self):
        cluster = Cluster(2, machines_per_rack=2)
        collector = MetricsCollector(track_machine_usage=True)
        flows = FlowTable(
            cluster.model, [m.capacity.data for m in cluster.machines]
        )
        cluster.machine(0).place(make_task(mem=24))
        collector.sample(0.0, cluster, flows)
        collector.sample(1.0, cluster, flows)
        arrays = collector.machine_usage_arrays()
        assert arrays["mem"].shape == (2, 2)  # samples x machines
        assert arrays["mem"][0][0] == pytest.approx(0.5)
        assert arrays["mem"][0][1] == 0.0


class TestCliParser:
    @pytest.mark.parametrize("argv,command", [
        (["figures", "-o", "x"], "figures"),
        (["report", "-o", "y.md", "--seed", "7"], "report"),
        (["generate", "--kind", "bing", "-o", "z.json"], "generate"),
    ])
    def test_subcommands_parse(self, argv, command):
        args = build_parser().parse_args(argv)
        assert args.command == command

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.output == "report.md"
        assert not args.full


class TestFailuresWithTracker:
    def test_combined_machinery_consistent(self):
        cluster = Cluster(2, machines_per_rack=2, seed=2)
        tracker = ResourceTracker(cluster)
        jobs = [make_simple_job(num_tasks=8, cpu=2, cpu_work=10,
                                arrival_time=float(i)) for i in range(3)]
        engine = Engine(
            cluster, TetrisScheduler(), jobs, tracker=tracker,
            config=EngineConfig(task_failure_prob=0.3, seed=2,
                                tracker_period=1.0),
        )
        engine.run()
        assert all(j.is_finished for j in jobs)
        assert engine.collector.task_failures > 0
        # tracker placement records all drained
        assert tracker._placements == {}
        for machine in cluster.machines:
            assert machine.allocated.is_zero()
