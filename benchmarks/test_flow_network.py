"""Why Tetris is greedy: decision latency vs a flow-network scheduler.

Section 5.2.2: "scalability was a key reason behind our choice to avoid
more complex solutions based on flow-networks and integer linear
programming".  This benchmark times one scheduling round of Tetris's
greedy matcher against a Quincy-style min-cost-flow solve on identical
pending-task state, at growing scale — the flow solve cost grows far
faster than the heartbeat-time greedy match.
"""

import time

import pytest

pytest.importorskip("networkx")  # the `flow` extra

from conftest import print_table

from repro.cluster.cluster import Cluster
from repro.schedulers.flow_network import FlowNetworkScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskWork
from repro.resources import DEFAULT_MODEL

SCALES = (200, 1000)
MACHINES = 50


def _pending_jobs(num_tasks):
    jobs = []
    per_job = 50
    for j in range(num_tasks // per_job):
        tasks = [
            Task(
                DEFAULT_MODEL.vector(cpu=2, mem=4, diskr=30),
                TaskWork(cpu_core_seconds=60.0),
            )
            for _ in range(per_job)
        ]
        jobs.append(Job([Stage("work", tasks)], arrival_time=0.0))
    return jobs


def _prepare(scheduler, num_tasks):
    """Pending backlog on a nearly-full cluster, as after a task finish:
    each heartbeat can place at most a task or two."""
    cluster = Cluster(MACHINES, seed=0)
    scheduler.bind(cluster)
    for job in _pending_jobs(num_tasks):
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    for machine in cluster.machines:
        filler = Task(
            DEFAULT_MODEL.vector(cpu=13, mem=40, diskr=150),
            TaskWork(cpu_core_seconds=1e6),
        )
        filler.mark_runnable()
        machine.place(filler, filler.demands)
        # keep the flow scheduler's slot books consistent with the fill
        if hasattr(scheduler, "_slots_free"):
            scheduler._slots_free[machine.machine_id] = 2
    return scheduler


def _time_round(scheduler, *args) -> float:
    start = time.perf_counter()
    scheduler.schedule(*args)
    return (time.perf_counter() - start) * 1e3


def test_flow_network_vs_greedy_latency(benchmark):
    def regenerate():
        rows = []
        for scale in SCALES:
            tetris = _prepare(
                TetrisScheduler(TetrisConfig(fairness_knob=0.0)), scale
            )
            # one NM heartbeat: match tasks for the machine that reported
            tetris_ms = _time_round(tetris, 0.0, [0])
            flow = _prepare(
                FlowNetworkScheduler(max_tasks_per_round=scale), scale
            )
            # a flow scheduler must re-solve the *global* problem to
            # react to the same single machine's freed resources
            flow_ms = _time_round(flow, 0.0)
            rows.append((scale, tetris_ms, flow_ms))
        return rows

    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    print_table(
        "Per-heartbeat cost (ms): Tetris greedy match vs global "
        "min-cost-flow re-solve (Section 5.2.2's scalability argument)",
        ["pending tasks", "Tetris greedy", "flow network"],
        [(s, t, f) for s, t, f in rows],
    )

    # reacting to one machine's heartbeat is far cheaper for the greedy
    # matcher than a global flow re-solve ...
    for scale, tetris_ms, flow_ms in rows:
        assert flow_ms > 2 * tetris_ms, (scale, tetris_ms, flow_ms)
    # ... and stays cheap as the backlog grows
    assert rows[-1][1] < 100.0, rows
