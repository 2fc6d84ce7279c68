"""Cluster-activity (ingestion/evacuation) tests, incl. the Figure 6
microbenchmark mechanism."""

import pytest

from repro.activity.ingestion import ClusterActivity, evacuation, ingestion
from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker, TrackerConfig
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine, EngineConfig
from repro.workload.job import Job
from repro.workload.stage import Stage

from conftest import make_task


class TestActivitySpecs:
    def test_ingestion_touches_netin_and_diskw(self):
        act = ingestion(0, start_time=10.0, size_mb=1000, rate_mbps=100)
        (spec,) = act.flow_specs()
        assert set(spec.slots) == {(0, "netin"), (0, "diskw")}

    def test_evacuation_touches_diskr_and_netout(self):
        act = evacuation(1, start_time=0.0, size_mb=500, rate_mbps=50)
        (spec,) = act.flow_specs()
        assert set(spec.slots) == {(1, "diskr"), (1, "netout")}

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ClusterActivity(0, 0.0, 10, 10, "demolition")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ingestion(0, 0.0, 0, 10)


class TestActivityExecution:
    def test_activity_completes_in_engine(self):
        cluster = Cluster(2, machines_per_rack=2)
        act = ingestion(0, start_time=5.0, size_mb=1000, rate_mbps=100)
        engine = Engine(cluster, FifoScheduler(), [], activities=[act])
        engine.run()
        assert act.finish_time == pytest.approx(15.0)

    def test_activity_contends_with_tasks(self):
        """A disk-writing task sharing the machine with ingestion slows
        both down (the Figure 6 pathology under CS)."""
        cluster = Cluster(1)
        task = make_task(cpu=1, mem=1, diskw=150, write_mb=1500, cpu_work=1)
        job = Job([Stage("s", [task])])
        act = ingestion(0, start_time=0.0, size_mb=1500, rate_mbps=150)
        engine = Engine(cluster, FifoScheduler(), [job], activities=[act])
        engine.run()
        # alone, each would take 10s; the 300/200 oversubscription plus
        # the incast penalty stretches both well past that
        assert task.duration > 13.0
        assert act.finish_time > 13.0


class TestTrackerSteersAroundIngestion:
    def test_tetris_avoids_loaded_machine(self):
        """With the tracker, Tetris stops scheduling disk-hungry tasks on
        a machine under heavy ingestion (Figure 6)."""
        cluster = Cluster(2, machines_per_rack=2)
        tracker = ResourceTracker(
            cluster, TrackerConfig(ramp_seconds=0.0)
        )
        # heavy ingestion on machine 0 for a long time
        act = ingestion(0, start_time=0.0, size_mb=50_000, rate_mbps=180)
        tasks = [
            make_task(cpu=1, mem=1, diskw=100, write_mb=500, cpu_work=1)
            for _ in range(4)
        ]
        job = Job([Stage("s", tasks)], arrival_time=5.0)
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.0))
        engine = Engine(
            cluster,
            scheduler,
            [job],
            activities=[act],
            tracker=tracker,
            config=EngineConfig(tracker_period=1.0),
        )
        engine.run()
        # machine 0's disk is ~fully used by ingestion; all tasks land on 1
        assert all(t.machine_id == 1 for t in tasks)
