"""Figure 9 + relative integral unfairness / Section 5.3.2.

Paper: with f in [0.25, 0.5] only a few percent of jobs slow down and
only slightly; f = 0 (most efficient, most unfair) slows more jobs;
even f -> 1 slows some jobs (statistical noise + packing-driven task
order).  The relative-integral-unfairness check shows violations of
fair allocation are transient: ~7% of jobs net-negative, ~5% magnitude.
"""

from conftest import (
    DEPLOY_MACHINES,
    deploy_trace,
    print_table,
)

import numpy as np

from repro.experiments.harness import ExperimentConfig, run_comparison
from repro.metrics.fairness import (
    relative_integral_unfairness_summary,
    slowdown_summary,
)
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import EngineConfig

KNOBS = (0.0, 0.25, 0.5, 0.99)
#: ignore sub-5% jitters, as CDF eyeballing in the paper effectively does
SLOWDOWN_THRESHOLD = 0.05


def test_fig9_job_slowdown_vs_knob(benchmark):
    def regenerate():
        schedulers = {"slot-fair": SlotFairScheduler}
        for f in KNOBS:
            schedulers[f"f={f}"] = (
                lambda knob=f: TetrisScheduler(
                    TetrisConfig(fairness_knob=knob)
                )
            )
        return run_comparison(
            deploy_trace(),
            schedulers,
            ExperimentConfig(
                num_machines=DEPLOY_MACHINES, seed=1, use_tracker=True,
                engine_config=EngineConfig(track_fairness=True),
            ),
        )

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    fair_jcts = results["slot-fair"].completion_by_name()

    rows = []
    summaries = {}
    for f in KNOBS:
        summary = slowdown_summary(
            fair_jcts,
            results[f"f={f}"].completion_by_name(),
            threshold=SLOWDOWN_THRESHOLD,
        )
        summaries[f] = summary
        rows.append(
            (f, 100 * summary.fraction_slowed,
             100 * summary.mean_slowdown_of_slowed,
             100 * summary.max_slowdown)
        )
    print_table(
        "Figure 9: job slowdown vs fair scheduler by knob "
        "(paper: f in [0.25,0.5] slows only a few %, slightly)",
        ["knob f", "% jobs slowed", "mean slowdown %", "max slowdown %"],
        rows,
    )

    # the knob works: moving toward fairness never slows *more* jobs
    # than the most aggressive setting by a wide margin
    assert (
        summaries[0.25].fraction_slowed
        <= summaries[0.0].fraction_slowed + 0.10
    )
    # at the recommended setting the impact is limited
    assert summaries[0.25].fraction_slowed < 0.40

    # relative integral unfairness at the recommended knob
    r = results["f=0.25"]
    runtimes = {
        job.job_id: job.completion_time
        for job in r.jobs
        if job.completion_time
    }
    riu = relative_integral_unfairness_summary(
        r.collector.unfairness_integral, runtimes
    )
    print_table(
        "Relative integral unfairness at f=0.25 "
        "(paper: ~7% of jobs negative, ~5% average magnitude)",
        ["metric", "value"],
        sorted(riu.items()),
    )
    assert riu["fraction_negative"] < 0.75
