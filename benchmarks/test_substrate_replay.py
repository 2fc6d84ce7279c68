"""Substrate replay: the event queue and the flow table, timed alone.

One small ``steady-batch``-shaped run (the Facebook generator settings
of ``benchmarks/e2e/workloads.py`` at a fifth of the jobs and horizon,
40 machines, tracker on) is recorded once per module: every call the
engine, the tracker and the metrics collector make on ``engine.events``
and on ``engine.flows``, with its arguments and its answer.  Each
benchmark replays one structure's call sequence on a fresh instance
and asserts that every answer equals the recorded one.

The replay times the substrate without the scheduler around it, so a
change to ``repro.sim.events`` or ``repro.sim.fluid`` can be sized by
running this file at the parent and at the change: the end-to-end
``wall_s`` pairs carry the scheduler's time and the host's speed
flips.  There is no wall-clock bound, and the file is not tier-1::

    PYTHONPATH=src python -m pytest benchmarks/test_substrate_replay.py
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np
import pytest

from repro.experiments.harness import ExperimentConfig, assemble_run
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.fluid import FlowTable
from repro.workload.tracegen import FacebookTraceConfig, generate_facebook_trace

#: ``steady-batch`` at a fifth of its jobs and arrival horizon
TRACE = FacebookTraceConfig(
    num_jobs=300,
    arrival_horizon=3000.0,
    max_map_tasks=40,
    size_mu=1.2,
    size_sigma=0.8,
    seed=21,
)
MACHINES = 40
#: replays timed per structure
ROUNDS = 10

#: the calls made on each structure during a run
QUEUE_CALLS = ("push", "pop_until", "peek_time", "has_pending")
TABLE_CALLS = (
    "add_flow",
    "remove_flow",
    "advance",
    "time_to_next_completion",
    "completed_tags",
    "slot_throughput",
    "slot_demand",
)

Call = Tuple[str, tuple, Any]


def _record(obj, names, log: List[Call]) -> None:
    """Log every call of ``names`` on ``obj`` as (name, args, answer)."""
    for name in names:
        method = getattr(obj, name)

        def recorded(*args, _name=name, _method=method):
            answer = _method(*args)
            log.append((_name, args, answer))
            return answer

        setattr(obj, name, recorded)


def _replay(obj, calls: List[Call]) -> List[Any]:
    return [getattr(obj, name)(*args) for name, args, _ in calls]


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if isinstance(want, float):
        return repr(got) == repr(want)
    return got == want


@pytest.fixture(scope="module")
def recording():
    config = ExperimentConfig(num_machines=MACHINES, seed=0, use_tracker=True)
    engine, _ = assemble_run(
        generate_facebook_trace(TRACE), TetrisScheduler(), config
    )
    queue_calls: List[Call] = []
    table_calls: List[Call] = []
    capacities = [m.capacity.data.copy() for m in engine.cluster.machines]
    _record(engine.events, QUEUE_CALLS, queue_calls)
    _record(engine.flows, TABLE_CALLS, table_calls)
    engine.run()
    return {
        "queue": (type(engine.events), queue_calls),
        "table": (engine.cluster.model, capacities, table_calls),
    }


def _check(answers, calls: List[Call]) -> None:
    assert len(answers) == len(calls)
    for got, (name, args, want) in zip(answers, calls):
        assert _same(got, want), (name, args, got, want)


def test_replay_event_queue(benchmark, recording):
    queue_type, calls = recording["queue"]
    answers = benchmark.pedantic(
        _replay,
        setup=lambda: ((queue_type(), calls), {}),
        rounds=ROUNDS,
    )
    _check(answers, calls)
    print(f"\nevent queue: {len(calls)} calls replayed")


def test_replay_flow_table(benchmark, recording):
    model, capacities, calls = recording["table"]
    answers = benchmark.pedantic(
        _replay,
        setup=lambda: ((FlowTable(model, capacities), calls), {}),
        rounds=ROUNDS,
    )
    _check(answers, calls)
    print(f"\nflow table: {len(calls)} calls replayed")
