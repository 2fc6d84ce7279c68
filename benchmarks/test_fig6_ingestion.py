"""Figure 6 / Section 5.2.1: the resource-tracker microbenchmark.

Paper: ingestion begins on one machine; Tetris's tracker observes the
rising disk usage and stops scheduling tasks there (tasks already
running drain out), while the Capacity Scheduler proceeds unaware and
the resulting contention slows both its tasks and the ingestion itself.
"""

from conftest import print_table

from repro.activity.ingestion import ingestion
from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker, TrackerConfig
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine, EngineConfig
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskWork
from repro.resources import DEFAULT_MODEL

NUM_MACHINES = 4
INGEST_MACHINE = 0


def _disk_job(num_tasks, arrival):
    tasks = [
        Task(
            DEFAULT_MODEL.vector(cpu=1, mem=2, diskw=100),
            TaskWork(cpu_core_seconds=2.0, write_mb=1000.0),
        )
        for _ in range(num_tasks)
    ]
    return Job([Stage("write", tasks)], arrival_time=arrival)


def _run(scheduler, use_tracker):
    cluster = Cluster(NUM_MACHINES, machines_per_rack=2, seed=3)
    tracker = None
    if use_tracker:
        tracker = ResourceTracker(
            cluster, TrackerConfig(ramp_seconds=2.0)
        )
    # ingestion loads machine 0's NIC and disk from t=50 on (120 MB/s:
    # nearly the full 125 MB/s NIC, leaving less disk headroom than one
    # task's 100 MB/s write demand)
    activity = ingestion(
        INGEST_MACHINE, start_time=50.0, size_mb=80_000, rate_mbps=120
    )
    jobs = [_disk_job(6, arrival=10.0 * i) for i in range(12)]
    engine = Engine(
        cluster,
        scheduler,
        jobs,
        activities=[activity],
        tracker=tracker,
        config=EngineConfig(tracker_period=1.0, seed=3),
    )
    engine.run()
    tasks = [t for j in jobs for t in j.all_tasks()]
    started_after = [
        t for t in tasks
        if t.machine_id == INGEST_MACHINE and t.start_time > 55.0
    ]
    overlapping = [
        t for t in tasks
        if t.machine_id == INGEST_MACHINE
        and t.finish_time > 50.0
    ]
    mean_duration = sum(t.duration for t in tasks) / len(tasks)
    return {
        "started_on_loaded_after_ingest": len(started_after),
        "running_on_loaded_during_ingest": len(overlapping),
        "mean_task_duration": mean_duration,
        "ingest_duration": activity.finish_time - activity.start_time,
    }


def test_fig6_tracker_steers_around_ingestion(benchmark):
    def regenerate():
        tetris = _run(
            TetrisScheduler(TetrisConfig(fairness_knob=0.0)),
            use_tracker=True,
        )
        cs = _run(CapacityScheduler(), use_tracker=False)
        return tetris, cs

    tetris, cs = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    print_table(
        "Figure 6: behaviour under ingestion on one machine",
        ["metric", "Tetris+tracker", "Capacity"],
        [
            ("tasks started on loaded machine after ingest",
             float(tetris["started_on_loaded_after_ingest"]),
             float(cs["started_on_loaded_after_ingest"])),
            ("tasks contending with ingestion",
             float(tetris["running_on_loaded_during_ingest"]),
             float(cs["running_on_loaded_during_ingest"])),
            ("mean task duration (s)",
             tetris["mean_task_duration"], cs["mean_task_duration"]),
            ("ingestion duration (s)",
             tetris["ingest_duration"], cs["ingest_duration"]),
        ],
    )

    # Tetris stops scheduling on the loaded machine; its running tasks
    # drain out and nothing contends with ingestion for long
    assert tetris["started_on_loaded_after_ingest"] == 0
    # CS leaves tasks grinding against the ingestion stream: both the
    # tasks and the ingestion slow down dramatically (the Figure 6 story)
    assert cs["running_on_loaded_during_ingest"] > 0
    assert cs["mean_task_duration"] > 2 * tetris["mean_task_duration"]
    assert cs["ingest_duration"] > 1.2 * tetris["ingest_duration"]
