"""Steering around background cluster activity with the resource tracker.

Clusters ingest new data continuously (Facebook reported hundreds of TB
per day).  Ingestion never goes through the scheduler, so a scheduler
that only tracks its own allocations will happily pile tasks onto an
ingesting machine and grind both to a halt (the paper's Figure 6).

This example runs the same disk-heavy workload twice:
- Tetris with the resource tracker: per-node usage reports fold the
  ingestion into the scheduler's view of free resources;
- the Capacity Scheduler: unaware, it keeps the loaded machine's slots
  full and pays in contention.

Run:
    python examples/ingestion_aware.py
"""

from repro import (
    CapacityScheduler,
    Cluster,
    Engine,
    EngineConfig,
    Job,
    ResourceTracker,
    Stage,
    Task,
    TaskWork,
    TetrisConfig,
    TetrisScheduler,
    ingestion,
)
from repro.estimation.tracker import TrackerConfig
from repro.resources import DEFAULT_MODEL

NUM_MACHINES = 4
LOADED_MACHINE = 0


def make_jobs():
    """Disk-writing jobs arriving every 10 seconds."""
    jobs = []
    for i in range(12):
        tasks = [
            Task(
                DEFAULT_MODEL.vector(cpu=1, mem=2, diskw=100),
                TaskWork(cpu_core_seconds=2.0, write_mb=1000.0),
            )
            for _ in range(6)
        ]
        jobs.append(Job([Stage("write", tasks)], arrival_time=10.0 * i))
    return jobs


def run(scheduler, with_tracker):
    cluster = Cluster(NUM_MACHINES, machines_per_rack=2, seed=3)
    tracker = None
    if with_tracker:
        tracker = ResourceTracker(
            cluster, TrackerConfig(ramp_seconds=2.0)
        )
    # a long 120 MB/s ingestion stream lands on machine 0 at t=50
    activity = ingestion(LOADED_MACHINE, start_time=50.0,
                         size_mb=80_000, rate_mbps=120)
    jobs = make_jobs()
    engine = Engine(
        cluster, scheduler, jobs, activities=[activity], tracker=tracker,
        config=EngineConfig(tracker_period=1.0, seed=3),
    )
    engine.run()
    tasks = [t for j in jobs for t in j.all_tasks()]
    started_on_loaded = sum(
        1 for t in tasks
        if t.machine_id == LOADED_MACHINE and t.start_time > 55.0
    )
    mean_duration = sum(t.duration for t in tasks) / len(tasks)
    return started_on_loaded, mean_duration, activity


def main() -> None:
    tetris = run(TetrisScheduler(TetrisConfig(fairness_knob=0.0)),
                 with_tracker=True)
    cs = run(CapacityScheduler(), with_tracker=False)

    print(f"{'':<40}{'Tetris+tracker':>16}{'Capacity':>12}")
    print(f"{'tasks sent to the loaded machine':<40}"
          f"{tetris[0]:>16}{cs[0]:>12}")
    print(f"{'mean task duration (s)':<40}"
          f"{tetris[1]:>16.1f}{cs[1]:>12.1f}")
    print(f"{'ingestion duration (s)':<40}"
          f"{tetris[2].finish_time - 50.0:>16.1f}"
          f"{cs[2].finish_time - 50.0:>12.1f}")
    print(
        "\nThe tracker's usage reports let Tetris see load it never "
        "booked;\nthe Capacity Scheduler schedules into the hotspot and "
        "slows both\nits tasks and the ingestion."
    )


if __name__ == "__main__":
    main()
