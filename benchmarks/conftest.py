"""Shared setup for the per-table/figure benchmark harness.

Every module in this directory regenerates one table or figure of the
paper.  Heavy simulations run once per module in cached fixtures; the
``benchmark`` fixture then times the core computation so that
``pytest benchmarks/ --benchmark-only`` both reproduces the numbers
(printed in the paper's layout) and reports timings.

Scale note: the paper's testbed had 250 machines and its simulations
replayed a multi-thousand-machine trace.  The default scale here (tens
of machines, a few thousand tasks) keeps a full regeneration under a few
minutes of pure Python while preserving every *relative* result — who
wins, by roughly what factor, and where the knob knees fall.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence

from repro.experiments.harness import ExperimentConfig, run_comparison
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.workload.tracegen import (
    FacebookTraceConfig,
    WorkloadSuiteConfig,
    generate_facebook_trace,
    generate_workload_suite,
)

#: the Section 5.2 deployment-style workload (Tetris vs CS vs DRF)
DEPLOY_SUITE = WorkloadSuiteConfig(
    num_jobs=40, task_scale=0.05, arrival_horizon=1000, seed=1
)
DEPLOY_MACHINES = 20

#: the Section 5.3 simulation workload (Facebook statistics)
FB_TRACE = FacebookTraceConfig(
    num_jobs=60, arrival_horizon=1500, max_map_tasks=150, seed=7
)
FB_MACHINES = 30


def deploy_trace():
    return generate_workload_suite(DEPLOY_SUITE)


def fb_trace():
    return generate_facebook_trace(FB_TRACE)


def standard_comparison(
    trace,
    num_machines: int,
    schedulers: Dict[str, Callable] = None,
    **config_kw,
):
    if schedulers is None:
        schedulers = {
            "tetris": TetrisScheduler,
            "capacity": CapacityScheduler,
            "slot-fair": SlotFairScheduler,
            "drf": DRFScheduler,
        }
    # the tracker is part of the Tetris system (Section 4.1); baselines
    # never consult it, so enabling it cluster-wide is harmless for them
    config_kw.setdefault("use_tracker", True)
    return run_comparison(
        trace,
        schedulers,
        ExperimentConfig(num_machines=num_machines, **config_kw),
    )


def print_table(title: str, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Print a paper-style table."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [
            f"{c:.2f}" if isinstance(c, float) else str(c) for c in row
        ]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))


def print_series(title: str, series: Dict[str, Sequence[float]]) -> None:
    print(f"\n=== {title} ===")
    for name, values in series.items():
        rendered = ", ".join(f"{v:.1f}" for v in values)
        print(f"{name}: {rendered}")
