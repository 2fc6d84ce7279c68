"""Table 7 / Section 5.2.2: scheduling overhead vs pending-task count.

Paper: Tetris's matching logic adds sub-millisecond cost per node
heartbeat even with 10K-50K pending tasks, scaling like default YARN.
Our analogue measures one Tetris scheduling decision for a single
machine (the per-NM-heartbeat work) as the number of pending tasks
grows — the cost must stay small and grow sublinearly in tasks (it is
stage-structured, not task-structured).
"""

from statistics import mean, median
from time import perf_counter

import pytest
from conftest import print_table

from repro.cluster.cluster import Cluster
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskWork
from repro.resources import DEFAULT_MODEL


#: heartbeats timed by hand when pytest-benchmark's timing is off
HEARTBEATS = 50


def _pending_state(num_jobs, tasks_per_job, num_machines=50,
                   vectorized=True):
    """A scheduler saturated with pending work; machines nearly full so
    heartbeat-time matching does real scoring but places little."""
    cluster = Cluster(num_machines, seed=0)
    scheduler = TetrisScheduler(
        TetrisConfig(fairness_knob=0.25, vectorized=vectorized)
    )
    scheduler.bind(cluster)
    for j in range(num_jobs):
        tasks = [
            Task(
                DEFAULT_MODEL.vector(cpu=2 + (j % 3), mem=4, diskr=30),
                TaskWork(cpu_core_seconds=60.0),
            )
            for _ in range(tasks_per_job)
        ]
        job = Job([Stage("work", tasks)], arrival_time=0.0)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    # fill most of every machine so little can be placed per heartbeat
    for machine in cluster.machines:
        filler = Task(
            DEFAULT_MODEL.vector(cpu=13, mem=40, diskr=150),
            TaskWork(cpu_core_seconds=1e6),
        )
        filler.mark_runnable()
        machine.place(filler, filler.demands)
    return scheduler


@pytest.mark.parametrize("vectorized", [False, True],
                         ids=["scalar", "vectorized"])
@pytest.mark.parametrize("pending", [10_000, 50_000])
def test_table7_heartbeat_matching_cost(benchmark, pending, vectorized):
    tasks_per_job = pending // 100
    scheduler = _pending_state(
        num_jobs=100, tasks_per_job=tasks_per_job, vectorized=vectorized
    )

    # one node-manager heartbeat = match tasks for one machine
    benchmark(scheduler.schedule, 0.0, [0])

    if benchmark.stats is not None:
        heartbeat_mean = benchmark.stats.stats.mean
        heartbeat_median = benchmark.stats.stats.median
    else:
        # under --benchmark-disable the fixture ran the heartbeat once,
        # untimed: time a fixed count of them here
        times = []
        for _ in range(HEARTBEATS):
            start = perf_counter()
            scheduler.schedule(0.0, [0])
            times.append(perf_counter() - start)
        heartbeat_mean = mean(times)
        heartbeat_median = median(times)
    path = "vectorized" if vectorized else "scalar"
    print_table(
        f"Table 7: NM-heartbeat matching cost ({path}), {pending} pending "
        "tasks (paper: <1 ms)",
        ["metric", "value"],
        [("mean (ms)", heartbeat_mean * 1e3),
         ("median (ms)", heartbeat_median * 1e3)],
    )
    # the decision must stay interactive: well under 50 ms even in
    # pure Python with 50K pending tasks
    assert heartbeat_mean < 0.05
