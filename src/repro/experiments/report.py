"""One-command replication report.

``generate_report(path)`` runs the core comparison and knob sweeps and
writes a self-contained Markdown report: headline scheduler comparison,
per-job improvement distribution, the fairness-knob trade-off, wastage
from over-allocation, and the §2.3 upper bound.  Exposed on the command
line as ``python -m repro report -o report.md``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import List

import numpy as np

from repro.analysis.wastage import excess_holding
from repro.experiments.harness import (
    ExperimentConfig,
    assemble_run,
    run_comparison,
)
from repro.metrics.comparison import (
    improvement_distribution,
    improvement_percent,
)
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.schedulers.upper_bound import aggregate_upper_bound
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

__all__ = ["generate_report"]

KNOBS = (0.0, 0.25, 0.5, 0.99)


def _md_table(header: List[str], rows: List[List]) -> List[str]:
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "---|" * len(header))
    for row in rows:
        cells = [
            f"{c:.1f}" if isinstance(c, float) else str(c) for c in row
        ]
        out.append("| " + " | ".join(cells) + " |")
    out.append("")
    return out


def generate_report(
    output_path,
    quick: bool = True,
    seed: int = 1,
) -> Path:
    """Run the experiments and write the Markdown report."""
    if quick:
        workload = WorkloadSuiteConfig(
            num_jobs=20, task_scale=0.04, arrival_horizon=600, seed=seed
        )
        machines = 12
    else:
        workload = WorkloadSuiteConfig(
            num_jobs=40, task_scale=0.05, arrival_horizon=1000, seed=seed
        )
        machines = 20
    trace = generate_workload_suite(workload)
    config = ExperimentConfig(num_machines=machines, seed=seed,
                              use_tracker=True)

    lines: List[str] = [
        "# Tetris reproduction report",
        "",
        f"Workload: {workload.num_jobs} jobs "
        f"({sum(s.num_tasks for j in trace for s in j.stages)} tasks), "
        f"{machines} machines, seed {seed}.",
        "",
        "## Scheduler comparison",
        "",
    ]

    results = run_comparison(
        trace,
        {
            "tetris": TetrisScheduler,
            "slot-fair": SlotFairScheduler,
            "capacity": CapacityScheduler,
            "drf": DRFScheduler,
        },
        config,
    )
    rows = []
    for name, result in results.items():
        jcts = list(result.collector.completion_times().values())
        rows.append([
            name,
            result.mean_jct,
            float(np.median(jcts)),
            result.makespan,
            result.collector.mean_task_duration(),
        ])
    lines += _md_table(
        ["scheduler", "mean JCT (s)", "median JCT (s)", "makespan (s)",
         "task duration (s)"],
        rows,
    )

    lines += ["## Tetris improvement per job", ""]
    tetris_jcts = results["tetris"].completion_by_name()
    rows = []
    for baseline in ("slot-fair", "capacity", "drf"):
        dist = improvement_distribution(
            results[baseline].completion_by_name(), tetris_jcts
        )
        rows.append([
            f"vs {baseline}",
            float(np.median(dist)),
            float(np.percentile(dist, 90)),
            100.0 * float(np.mean(np.array(dist) < 0)),
        ])
    lines += _md_table(
        ["baseline", "median gain (%)", "p90 gain (%)", "jobs slowed (%)"],
        rows,
    )

    lines += ["## Fairness knob", ""]
    fair = results["slot-fair"]
    rows = []
    for f in KNOBS:
        result = run_comparison(
            trace,
            {"t": lambda knob=f: TetrisScheduler(
                TetrisConfig(fairness_knob=knob))},
            config,
        )["t"]
        rows.append([
            f"{f:.2f}",
            improvement_percent(fair.mean_jct, result.mean_jct),
            improvement_percent(fair.makespan, result.makespan),
        ])
    lines += _md_table(
        ["knob f", "JCT gain (%)", "makespan gain (%)"], rows
    )

    lines += ["## Wastage from over-allocation", ""]
    rows = []
    # tracker off, as in Table 6: the wastage of the base heuristic, not
    # of the tracker's re-packing of reclaimed head-room
    untracked = replace(config, use_tracker=False)
    for name, factory in (
        ("tetris", TetrisScheduler),
        ("slot-fair", SlotFairScheduler),
    ):
        engine, _ = assemble_run(trace, factory(), untracked)
        engine.run()
        rows.append([
            name,
            excess_holding(engine.placement_log, "mem"),
            excess_holding(engine.placement_log, "cpu"),
        ])
    lines += _md_table(
        ["scheduler", "excess GB-seconds of memory held",
         "excess core-seconds held"],
        rows,
    )

    lines += ["## Upper bound (Section 2.3)", ""]
    cluster = config.make_cluster()
    jobs = materialize_trace(trace, cluster, seed=seed)
    ub = aggregate_upper_bound(
        jobs, cluster.total_capacity(), cluster.machine_capacity()
    )
    rows = [[
        "aggregated-bin relaxation", ub.mean_jct, ub.makespan,
    ]]
    rows.append([
        "tetris (achieved)",
        results["tetris"].mean_jct,
        results["tetris"].makespan,
    ])
    lines += _md_table(["schedule", "mean JCT (s)", "makespan (s)"], rows)

    path = Path(output_path)
    path.write_text("\n".join(lines))
    return path
