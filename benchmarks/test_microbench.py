"""Core-operation micro-benchmarks.

Not a paper figure — these time the hot paths that make the whole
reproduction tractable in pure Python: the vectorized fluid-rate
recomputation, flow advancement, the stage-index candidate lookup, and
the Tetris packing round (scalar reference vs the batched engine).
They guard against performance regressions as the library evolves.
"""

from time import perf_counter

import pytest
from conftest import print_table

from repro.cluster.cluster import Cluster
from repro.profiling import Profiler
from repro.resources import DEFAULT_MODEL
from repro.schedulers.stage_index import StageIndex
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.fluid import FlowSpec, FlowTable
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskInput, TaskWork


def loaded_flow_table(num_machines=100, flows_per_machine=8):
    table = FlowTable(
        DEFAULT_MODEL,
        [
            DEFAULT_MODEL.vector(cpu=16, mem=48, diskr=200, diskw=200,
                                 netin=125, netout=125).data
            for _ in range(num_machines)
        ],
    )
    for machine in range(num_machines):
        for k in range(flows_per_machine):
            dim = ("cpu", "diskr", "diskw", "netin")[k % 4]
            table.add_flow(
                FlowSpec(work=1e6, nominal_rate=30 + k,
                         slots=((machine, dim),))
            )
    return table


def test_fluid_rate_recomputation(benchmark):
    table = loaded_flow_table()

    def recompute():
        table._rates_dirty = True
        return table.time_to_next_completion()

    result = benchmark(recompute)
    assert result > 0


def test_fluid_advance(benchmark):
    table = loaded_flow_table()

    def advance():
        table._rates_dirty = True
        return table.advance(0.001)

    completed = benchmark(advance)
    assert completed == []


def test_slot_demand_observation(benchmark):
    table = loaded_flow_table()
    demand = benchmark(table.slot_demand)
    assert demand.shape[0] == 100


def test_stage_index_candidate_lookup(benchmark):
    cluster = Cluster(50, seed=0)
    tasks = []
    for i in range(5000):
        block = cluster.blockstore.add_block(64.0)
        tasks.append(
            Task(
                DEFAULT_MODEL.vector(cpu=1, mem=1),
                TaskWork(cpu_core_seconds=10.0),
                inputs=[TaskInput(64.0, block.replicas)],
            )
        )
    stage = Stage("big", tasks)
    Job([stage])
    index = StageIndex()
    index.add_stage(stage)

    def lookup():
        local = index.local_candidate(stage, 7)
        any_ = index.any_candidate(stage)
        return local, any_

    local, any_ = benchmark(lookup)
    assert any_ is not None


# ---------------------------------------------------------------------------
# Tetris packing round: scalar reference vs batched engine
# ---------------------------------------------------------------------------

def _packing_state(vectorized):
    """A 100-machine x 200-job scheduler mid-simulation: every machine
    partially loaded (one long-running filler task each), every job with
    20 pending tasks, so one ``schedule()`` call exercises candidate
    lookup, scoring and placement exactly as a heartbeat burst would."""
    cluster = Cluster(100, seed=0)
    scheduler = TetrisScheduler(TetrisConfig(vectorized=vectorized))
    scheduler.bind(cluster)
    for j in range(200):
        tasks = [
            Task(
                DEFAULT_MODEL.vector(
                    cpu=4 + (j % 3), mem=12, diskr=40, diskw=10
                ),
                TaskWork(cpu_core_seconds=60.0 + 5 * (j % 7)),
            )
            for _ in range(20)
        ]
        job = Job(
            [Stage("work", tasks)], arrival_time=0.0, name=f"job-{j}"
        )
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    for machine in cluster.machines:
        filler = Task(
            DEFAULT_MODEL.vector(cpu=8, mem=24, diskr=100),
            TaskWork(cpu_core_seconds=1e6),
        )
        filler.mark_runnable()
        machine.place(filler, filler.demands)
    return scheduler


def _round_time(scheduler, machine_ids, rounds=3, warmup=1):
    """Mean wall-clock of one full scheduling round over ``machine_ids``.

    Rounds are made repeatable by undoing the scheduler's tentative state
    (claims, remote grants) between passes; placements are returned so
    the caller can cross-check scalar vs vectorized decisions.
    """
    prof = Profiler()
    placements = None
    for i in range(warmup + rounds):
        scheduler.index.reset_claims()
        scheduler._remote_granted.clear()
        scheduler._remote_by_task.clear()
        start = perf_counter()
        out = scheduler.schedule(0.0, machine_ids)
        elapsed = perf_counter() - start
        if i >= warmup:
            prof.record("round", elapsed)
        placements = out
    return prof.stats("round").mean, placements


def test_packing_round_vectorized_speedup():
    """The tentpole acceptance bar: the batched packing engine is >= 3x
    faster per scheduling round than the scalar reference on a
    100-machine x 200-job workload — with identical decisions."""
    machine_ids = list(range(100))
    scalar = _packing_state(vectorized=False)
    vector = _packing_state(vectorized=True)
    scalar_mean, scalar_placed = _round_time(scalar, machine_ids)
    vector_mean, vector_placed = _round_time(vector, machine_ids)

    scalar_key = [
        (p.task.job.name, p.task.index, p.machine_id)
        for p in scalar_placed
    ]
    vector_key = [
        (p.task.job.name, p.task.index, p.machine_id)
        for p in vector_placed
    ]
    assert scalar_key == vector_key, "paths diverged"
    assert len(scalar_key) > 0

    speedup = scalar_mean / vector_mean
    print_table(
        "Packing round, 100 machines x 200 jobs (4000 pending tasks)",
        ["path", "mean round (ms)"],
        [("scalar", scalar_mean * 1e3),
         ("vectorized", vector_mean * 1e3),
         ("speedup (x)", speedup)],
    )
    assert speedup >= 3.0, f"only {speedup:.2f}x"


@pytest.mark.parametrize("vectorized", [False, True],
                         ids=["scalar", "vectorized"])
def test_packing_round_cost(benchmark, vectorized):
    """Absolute per-round cost of each path, for the record."""
    scheduler = _packing_state(vectorized=vectorized)
    machine_ids = list(range(100))

    def one_round():
        scheduler.index.reset_claims()
        scheduler._remote_granted.clear()
        scheduler._remote_by_task.clear()
        return scheduler.schedule(0.0, machine_ids)

    placements = benchmark.pedantic(one_round, rounds=3, warmup_rounds=1)
    assert len(placements) > 0
