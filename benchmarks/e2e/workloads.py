"""The four benchmark workloads and one measured repetition of each.

A repetition generates its inputs, builds cluster + jobs + engine through
the public API of ``repro`` exactly as ``repro.experiments.run_trace`` and
``repro serve`` do, runs to completion, and returns plain numbers.  With
``tracer=None`` nothing is instrumented: the only clock reads are the
harness's own around set-up and around the run.

Sizes: steady-batch, steady-serve and compare-sweep are the issue's
sizes with ``num_jobs`` and ``arrival_horizon`` halved (same offered
load), so that a 25-second run holds five repetitions of the slowest.
backlog-burst keeps the issue's size: it is here because ``schedulers``
is two thirds of its wall, and that share needs the backlog — at half
size it measures 0.59 against steady-batch's 0.56, at full size 0.68.
``size`` shrinks all four further for ``--smoke``.

Seeds: the *population* — templates, job sizes, arrival instants — is
fixed per workload by the ``seed`` in its ``gen``; ``--seed`` drives everything drawn
when that population is turned into program input (per-task demand and
partition-size jitter and block replica placement in
``materialize_trace``, cluster layout, the engine's own generator).  The
trace generators re-draw their twenty job templates from the seed, which
moves wall time and makespan by 3x between seeds; a benchmark whose
metrics must agree across seeds cannot put the seed there.
"""

from __future__ import annotations

import asyncio
import gc
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.estimation.tracker import ResourceTracker
from repro.experiments import ExperimentConfig
from repro.obs import Registry
from repro.schedulers.registry import build_scheduler
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    SchedulerService,
    ServeConfig,
    TraceReplaySource,
)
from repro.serve import service as serve_service
from repro.sim.engine import Engine
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import (
    FacebookTraceConfig,
    WorkloadSuiteConfig,
    generate_facebook_trace,
    generate_workload_suite,
)

from tracing import Tracer

__all__ = ["SMOKE_SIZE", "WORKLOADS", "Workload", "run_once"]

#: ``--smoke`` runs the committed sizes times this
SMOKE_SIZE = 0.2


@dataclass(frozen=True)
class Workload:
    """What to run; why it is here is in ``BENCHMARK.json``."""

    name: str
    generator: str  # "facebook" | "suite"
    gen: Tuple[Tuple[str, object], ...]  # generator config at size 1.0
    machines: int
    tracker: bool
    schedulers: Tuple[str, ...] = ("tetris",)
    serve: bool = False

    def gen_args(self, size: float = 1.0) -> Dict[str, object]:
        """The generator arguments at ``size``: job count and arrival
        horizon shrink together, so offered load stays the same."""
        gen = dict(self.gen)
        gen["num_jobs"] = max(2, int(round(gen["num_jobs"] * size)))
        gen["arrival_horizon"] = gen["arrival_horizon"] * size
        return gen

    def sizes(self, size: float = 1.0) -> Dict[str, object]:
        """Everything that fixes the input, for the results file."""
        return {
            "generator": self.generator,
            **self.gen_args(size),
            "machines": self.machines,
            "tracker": self.tracker,
            "schedulers": list(self.schedulers),
            "mode": "serve" if self.serve else "batch",
        }


_STEADY_GEN = (
    ("num_jobs", 1500),
    ("arrival_horizon", 15000.0),
    ("max_map_tasks", 40),
    ("size_mu", 1.2),
    ("size_sigma", 0.8),
    ("seed", 21),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="backlog-burst",
            generator="facebook",
            gen=(
                ("num_jobs", 300),
                ("arrival_horizon", 560.0),
                ("max_map_tasks", 200),
                ("seed", 11),
            ),
            machines=300,
            tracker=False,
        ),
        Workload(
            name="steady-batch",
            generator="facebook",
            gen=_STEADY_GEN,
            machines=40,
            tracker=True,
        ),
        Workload(
            name="steady-serve",
            generator="facebook",
            gen=_STEADY_GEN,
            machines=40,
            tracker=True,
            serve=True,
        ),
        Workload(
            name="compare-sweep",
            generator="suite",
            gen=(
                ("num_jobs", 32),
                ("task_scale", 0.05),
                ("arrival_horizon", 800.0),
                ("seed", 1),
            ),
            machines=40,
            tracker=True,
            schedulers=("tetris", "slot-fair", "drf", "capacity"),
        ),
    )
}


def _phase(tracer: Optional[Tracer]):
    """``with phase(name):`` — a span when traced, nothing otherwise."""
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def _generate(workload: Workload, size: float):
    gen = workload.gen_args(size)
    if workload.generator == "facebook":
        return generate_facebook_trace(FacebookTraceConfig(**gen))
    return generate_workload_suite(WorkloadSuiteConfig(**gen))


def _install(tracer: Tracer, engine: Engine, service) -> None:
    """Timing wrappers around the engine's calls into each layer."""
    events, flows, scheduler = engine.events, engine.flows, engine.scheduler
    for attr in ("push", "pop_until", "peek_time", "has_pending"):
        tracer.wrap(events, attr, f"sim.events.{attr}")
    for attr in (
        "time_to_next_completion",
        "advance",
        "add_flow",
        "completed_tags",
    ):
        tracer.wrap(flows, attr, f"sim.fluid.{attr}")
    tracer.wrap(scheduler, "schedule", "schedulers.schedule", raw=True)
    for attr in (
        "on_job_arrival",
        "on_task_started",
        "on_task_finished",
        "on_stage_released",
        "on_task_failed",
        "mark_all_machines_dirty",
    ):
        tracer.wrap(scheduler, attr, f"schedulers.notify.{attr}")
    if engine.tracker is not None:
        tracer.wrap(
            engine.tracker, "report", "estimation.tracker.report", raw=True
        )
        for attr in ("note_placement", "note_completion"):
            tracer.wrap(engine.tracker, attr, f"estimation.tracker.{attr}")
    tracer.wrap(
        engine.estimator, "record_completion", "estimation.estimator"
    )
    for attr in (
        "maybe_sample",
        "sample",
        "job_arrived",
        "job_finished",
        "task_finished",
        "task_failed",
    ):
        tracer.wrap(engine.collector, attr, f"metrics.collector.{attr}")
    tracer.wrap(engine, "run", "sim.engine.run", raw=True)
    if service is not None:
        tracer.wrap(engine, "run_until", "sim.engine.run_until", raw=True)
        tracer.wrap(engine, "add_job", "serve.commit", raw=True)
        tracer.wrap(scheduler, "prewarm_job", "serve.stage", raw=True)
        tracer.wrap_async(service.admission, "offer", "serve.admission")
        tracer.wrap_async(service.admission, "next_batch", "serve.admission")
        tracer.wrap(
            serve_service, "verify_free_vectors", "serve.verify", raw=True
        )


def _run_engine(
    workload: Workload,
    trace,
    scheduler_name: str,
    seed: int,
    serve: bool,
    tracer: Optional[Tracer],
) -> Dict[str, object]:
    """Set up and run one engine; the unit compare-sweep repeats four
    times.  Mirrors ``run_trace`` (batch) and ``cmd_serve`` (serve)."""
    phase = _phase(tracer)
    setup_start = perf_counter()
    config = ExperimentConfig(
        num_machines=workload.machines, seed=seed, use_tracker=workload.tracker
    )
    with phase("cluster.build"):
        cluster = config.make_cluster()
    with phase("workload.materialize"):
        jobs = materialize_trace(trace, cluster, seed=config.seed)
    with phase("sim.engine.init"):
        tracker = ResourceTracker(cluster) if config.use_tracker else None
        scheduler = build_scheduler(scheduler_name)
        service = None
        if serve:
            registry = Registry()
            engine = Engine(
                cluster,
                scheduler,
                [],
                tracker=tracker,
                config=config.make_engine_config(),
                metrics=registry,
            )
            service = SchedulerService(
                engine,
                TraceReplaySource(jobs),
                AdmissionController(
                    AdmissionConfig(queue_cap=1024, policy="block")
                ),
                ServeConfig(),
                registry=registry,
            )
        else:
            engine = Engine(
                cluster,
                scheduler,
                jobs,
                tracker=tracker,
                config=config.make_engine_config(),
            )
    setup_s = perf_counter() - setup_start

    if tracer is not None:
        _install(tracer, engine, service)
    try:
        root = phase(f"experiments.{scheduler_name}")
        start = perf_counter()
        with root:
            if serve:
                report = asyncio.run(service.serve())
            else:
                engine.run()
        wall_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    summary = engine.collector.summary()
    tasks = sum(job.num_tasks for job in jobs)
    out = {
        "scheduler": scheduler_name,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "jobs": len(jobs),
        "tasks": tasks,
        "jobs_unfinished": sum(1 for job in jobs if not job.is_finished),
        "placements": engine.num_placements,
        "round_s": np.fromiter(
            (entry[3] for entry in engine.round_log), dtype=float
        ),
        "empty_rounds": sum(1 for entry in engine.round_log if entry[2] == 0),
        "makespan": summary["makespan"],
        "mean_jct": summary["mean_jct"],
        "fluid_stats": dict(engine.flows.stats),
    }
    if serve:
        stats = service.admission.stats
        out["serve"] = {
            "offered": report.jobs_offered,
            "committed": report.jobs_committed,
            "rejected": stats.rejected,
            "aborted": report.jobs_aborted,
            "dropped": report.jobs_dropped_on_shutdown,
            "invariant_checks": report.invariant_checks,
            "invariant_violations": report.invariant_violations,
            "batches": report.batches_committed,
            "blocked_s": stats.blocked_seconds,
            "queue_peak_depth": stats.peak_depth,
        }
    return out


def run_once(
    workload: Workload,
    seed: int,
    size: float = 1.0,
    tracer: Optional[Tracer] = None,
    serve: Optional[bool] = None,
) -> Dict[str, object]:
    """One repetition: generate, then set up and run each scheduler.

    ``serve`` overrides the workload's mode — steady-serve runs its own
    trace in batch mode to get the reference it must reproduce.
    """
    serve = workload.serve if serve is None else serve
    gc.collect()
    start = perf_counter()
    with _phase(tracer)("workload.generate"):
        trace = _generate(workload, size)
    generate_s = perf_counter() - start
    runs: List[Dict[str, object]] = []
    for scheduler_name in workload.schedulers:
        runs.append(
            _run_engine(workload, trace, scheduler_name, seed, serve, tracer)
        )
        gc.collect()

    first = runs[0]  # Tetris in every workload
    # round latency is Tetris' (the paper's Table 7).  Pooling the four
    # schedulers of compare-sweep gives a two-humped distribution (drf
    # rounds take 13 us, slot-fair 600 us) whose median sits on the gap
    # and jumps 8x between seeds.
    round_ms = first["round_s"] * 1e3
    wall_s = sum(run["wall_s"] for run in runs)
    placements = sum(run["placements"] for run in runs)
    tasks = sum(run["tasks"] for run in runs)
    jobs = sum(run["jobs"] for run in runs)
    served = first.get("serve")
    rep: Dict[str, object] = {
        "traced": tracer is not None,
        "serve": serve,
        "setup_s": generate_s + sum(run["setup_s"] for run in runs),
        "wall_s": wall_s,
        "placements_per_s": placements / wall_s,
        "round_ms_p50": float(np.percentile(round_ms, 50)),
        "round_ms_p99": float(np.percentile(round_ms, 99)),
        "sim_makespan_s": first["makespan"],
        "sim_mean_jct_s": first["mean_jct"],
        "placements": placements,
        "tasks": tasks,
        "jobs": jobs,
        "rounds": sum(int(run["round_s"].size) for run in runs),
        "empty_rounds": sum(run["empty_rounds"] for run in runs),
        "attempted": tasks + jobs + (served["offered"] if served else 0),
        "unplaced": tasks - placements,
        "jobs_unfinished": sum(run["jobs_unfinished"] for run in runs),
        "per_scheduler": {
            run["scheduler"]: {
                "wall_s": run["wall_s"],
                "mean_jct": run["mean_jct"],
                "makespan": run["makespan"],
            }
            for run in runs
        },
        "fluid_stats": {
            key: sum(run["fluid_stats"][key] for run in runs)
            for key in first["fluid_stats"]
        },
        "served": served,
    }
    rep["failed"] = rep["unplaced"] + rep["jobs_unfinished"]
    if served:
        rep["failed"] += (
            served["rejected"]
            + served["aborted"]
            + served["dropped"]
            + served["invariant_violations"]
        )
    tetris_jct = first["mean_jct"]
    rep["jct_gain_pct"] = {
        run["scheduler"]: 100.0 * (1.0 - tetris_jct / run["mean_jct"])
        for run in runs[1:]
    }
    return rep
