"""Failure robustness: the paper's simulator replays per-task failure
probabilities; Tetris's gains should survive them.

Failures re-run tasks, adding load and breaking estimator assumptions
mid-flight.  This benchmark injects a 10% per-attempt failure rate into
both Tetris and the slot-fair baseline.
"""

from conftest import (
    DEPLOY_MACHINES,
    deploy_trace,
    print_table,
)

from repro.experiments.harness import ExperimentConfig, run_trace
from repro.metrics.comparison import improvement_percent
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.engine import EngineConfig

FAILURE_PROB = 0.1


def _config(prob):
    return ExperimentConfig(
        num_machines=DEPLOY_MACHINES,
        seed=1,
        use_tracker=True,
        engine_config=EngineConfig(task_failure_prob=prob),
    )


def test_gains_survive_task_failures(benchmark):
    trace = deploy_trace()

    def regenerate():
        out = {}
        for prob in (0.0, FAILURE_PROB):
            for name, factory in (
                ("tetris", TetrisScheduler),
                ("slot-fair", SlotFairScheduler),
            ):
                out[(name, prob)] = run_trace(
                    trace, factory(), _config(prob)
                )
        return out

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    rows = []
    for prob in (0.0, FAILURE_PROB):
        tetris = results[("tetris", prob)]
        fair = results[("slot-fair", prob)]
        gain = improvement_percent(fair.mean_jct, tetris.mean_jct)
        rows.append(
            (f"p={prob}", tetris.mean_jct, fair.mean_jct, gain,
             float(tetris.collector.task_failures))
        )
    print_table(
        "Failure robustness: Tetris vs slot-fair with task retries",
        ["failure prob", "tetris JCT", "fair JCT", "gain %",
         "tetris retries"],
        rows,
    )

    clean_gain = rows[0][3]
    flaky_gain = rows[1][3]
    # failures happened and were absorbed
    assert results[("tetris", FAILURE_PROB)].collector.task_failures > 0
    # every job still finished
    for result in results.values():
        assert len(result.collector.jobs) == len(trace)
    # the gain survives (within a broad band of the clean gain)
    assert flaky_gain > 0.5 * clean_gain, (clean_gain, flaky_gain)
