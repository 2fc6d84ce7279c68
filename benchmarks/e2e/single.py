"""One measured run of one workload: repeat, check, reduce to metrics.

This is what the command in ``BENCHMARK.json`` executes.  The run repeats
the workload until ``--seconds`` have passed and reports medians over its
repetitions, so one run is one steady sample.

``--trace 0``: every repetition is untraced and the result carries the
end-to-end metrics.  ``--trace 1``: untraced and traced repetitions
alternate in the same process, the result carries the per-layer metrics
from the traced ones, and the untraced ones give the base for
``bench.trace_overhead_frac`` (and the proof that tracing changes no
simulated outcome).  steady-serve additionally runs its trace through the
batch engine — once before the clock starts when untraced, in the
rotation when traced — because it must reproduce that run bit for bit.
"""

from __future__ import annotations

import json
import resource
import statistics
from pathlib import Path
from time import perf_counter, time
from typing import Dict, List, Optional

from tracing import UNWRAPPED, Tracer
from workloads import WORKLOADS, Workload, run_once

__all__ = [
    "BENCH_DIR",
    "SPEC",
    "check_complete",
    "check_identical",
    "check_outcome",
    "check_serve_equals_batch",
    "measure",
]

BENCH_DIR = Path(__file__).resolve().parent
#: the declaration this harness is written to: metric names, units,
#: directions and bounds are read from it, never restated here
SPEC = json.loads((BENCH_DIR.parents[1] / "BENCHMARK.json").read_text())

#: compare-sweep outcome check: Tetris' mean JCT at least this far below
#: each baseline's.  Enforced at the committed size on seed 0 only — on a
#: 32-job trace the margin swings with load, so elsewhere it is reported.
MIN_JCT_GAIN_PCT = 10.0

_SIM_KEYS = ("sim_makespan_s", "sim_mean_jct_s", "placements", "rounds")


# -- correctness checks (pure: the smoke test feeds them perturbed results) ------
def check_complete(rep: Dict[str, object]) -> List[str]:
    """Every task placed, every job finished, nothing shed or violated."""
    issues = []
    if rep["unplaced"]:
        issues.append(f"{rep['unplaced']} tasks never placed")
    if rep["jobs_unfinished"]:
        issues.append(f"{rep['jobs_unfinished']} jobs unfinished")
    served = rep.get("served")
    if served:
        for key in ("rejected", "aborted", "dropped", "invariant_violations"):
            if served[key]:
                issues.append(f"serve: {served[key]} {key}")
        if served["offered"] != rep["jobs"]:
            issues.append(
                f"serve: offered {served['offered']} of {rep['jobs']} jobs"
            )
    return issues


def check_identical(reps: List[Dict[str, object]]) -> List[str]:
    """Simulated outcome and counts repeat exactly, traced or not."""
    issues = []
    for index, rep in enumerate(reps[1:], start=1):
        for key in _SIM_KEYS:
            if rep[key] != reps[0][key]:
                issues.append(
                    f"repetition {index}: {key} = {rep[key]!r}, "
                    f"repetition 0 had {reps[0][key]!r}"
                )
    return issues


def check_serve_equals_batch(
    serve_rep: Dict[str, object], batch_rep: Dict[str, object]
) -> List[str]:
    """The unpaced no-drop stream reproduces the batch run bit for bit."""
    return [
        f"serve {key} = {serve_rep[key]!r} but batch gives {batch_rep[key]!r}"
        for key in _SIM_KEYS[:3]
        if serve_rep[key] != batch_rep[key]
    ]


def check_outcome(rep: Dict[str, object]) -> List[str]:
    """The paper's claim on compare-sweep: Tetris beats each baseline."""
    return [
        f"tetris mean JCT only {gain:.1f}% below {name} "
        f"(need {MIN_JCT_GAIN_PCT:.0f}%)"
        for name, gain in rep["jct_gain_pct"].items()
        if gain < MIN_JCT_GAIN_PCT
    ]


# -- per-layer metrics from one traced repetition ------------------------------
#: set-up phases run outside the root span and outside ``wall_s``
_SETUP_SPANS = (
    "workload.generate",
    "workload.materialize",
    "cluster.build",
    "sim.engine.init",
)

def _layer_metrics(rep: Dict[str, object], tracer: Tracer) -> Dict[str, float]:
    wall = rep["wall_s"]
    placements = rep["placements"]
    rounds = tracer.count("schedulers.schedule")
    schedule_s = tracer.self_time("schedulers.schedule")
    flows_added = tracer.count("sim.fluid.add_flow")
    engine_self = tracer.self_time("sim.engine.run", "sim.engine.run_until")
    roots_self = tracer.self_time("experiments.", prefix=True)
    served = rep["served"] or {}
    out = {
        "workload.generate_s": tracer.total("workload.generate"),
        "workload.materialize_s": tracer.total("workload.materialize"),
        "workload.jobs": rep["jobs"],
        "workload.tasks": rep["tasks"],
        "cluster.build_s": tracer.total("cluster.build"),
        "sim.engine.init_s": tracer.total("sim.engine.init"),
        # the engine advances the fluid table exactly once per step
        "sim.engine.steps": tracer.count("sim.fluid.advance"),
        "sim.engine.self_s": engine_self,
        "sim.engine.self_frac": engine_self / wall,
        "sim.events.calls": tracer.count("sim.events.", prefix=True),
        "sim.events.busy_s": tracer.self_time("sim.events.", prefix=True),
        "sim.fluid.next_completion_s": tracer.self_time(
            "sim.fluid.time_to_next_completion"
        ),
        "sim.fluid.advance_s": tracer.self_time("sim.fluid.advance"),
        "sim.fluid.add_flow_s": tracer.self_time("sim.fluid.add_flow"),
        "sim.fluid.completed_tags_s": tracer.self_time(
            "sim.fluid.completed_tags"
        ),
        "sim.fluid.flows_added": flows_added,
        "sim.fluid.flows_recomputed_per_flow": (
            rep["fluid_stats"]["flows_recomputed"] / max(flows_added, 1)
        ),
        "sim.fluid.stale_heap_pops": rep["fluid_stats"]["stale_heap_pops"],
        "schedulers.schedule_s": schedule_s,
        "schedulers.rounds": rounds,
        "schedulers.schedule_frac": schedule_s / wall,
        "schedulers.us_per_placement": schedule_s / placements * 1e6,
        "schedulers.empty_round_frac": rep["empty_rounds"] / rounds,
        "schedulers.placements_per_round": placements / rounds,
        "schedulers.notify_s": tracer.self_time(
            "schedulers.notify.", prefix=True
        ),
        "schedulers.notify_calls": tracer.count(
            "schedulers.notify.", prefix=True
        ),
        "estimation.tracker_s": tracer.self_time(
            "estimation.tracker.", prefix=True
        ),
        "estimation.tracker_reports": tracer.count("estimation.tracker.report"),
        "estimation.estimator_s": tracer.self_time("estimation.estimator"),
        "metrics.collector_s": tracer.self_time(
            "metrics.collector.", prefix=True
        ),
        "metrics.collector_calls": tracer.count(
            "metrics.collector.", prefix=True
        ),
        "serve.stage_s": tracer.self_time("serve.stage"),
        "serve.commit_s": tracer.self_time("serve.commit"),
        "serve.drive_s": tracer.total("sim.engine.run_until"),
        "serve.verify_s": tracer.self_time("serve.verify"),
        "serve.admission_s": tracer.self_time("serve.admission"),
        "serve.blocked_s": served.get("blocked_s", 0.0),
        "serve.queue_peak_depth": served.get("queue_peak_depth", 0),
        "serve.batches": served.get("batches", 0),
        # in serve mode the root span's own time is the service's glue:
        # the asyncio loop, source iteration, placement scan, registry
        "serve.self_s": roots_self if rep["serve"] else 0.0,
        "bench.unattributed_frac": abs(
            1.0
            - (
                tracer.self_time("", prefix=True)
                - tracer.self_time(*_SETUP_SPANS)
            )
            / wall
        ),
    }
    for name in ("tetris", "slot-fair", "drf", "capacity"):
        out[f"experiments.{name}_s"] = tracer.total(f"experiments.{name}")
        if name != "tetris":
            out[f"experiments.jct_gain_vs_{name}_pct"] = rep[
                "jct_gain_pct"
            ].get(name, 0.0)
    return out


#: layer metrics that must repeat exactly between runs of one seed
COUNT_METRICS = (
    "workload.jobs",
    "workload.tasks",
    "sim.engine.steps",
    "sim.events.calls",
    "sim.fluid.flows_added",
    "sim.fluid.flows_recomputed_per_flow",
    "sim.fluid.stale_heap_pops",
    "schedulers.rounds",
    "schedulers.empty_round_frac",
    "schedulers.placements_per_round",
    "schedulers.notify_calls",
    "estimation.tracker_reports",
    "metrics.collector_calls",
)


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


# -- the run -------------------------------------------------------------------
def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    size: float = 1.0,
    trace_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Repeat ``workload`` for ``seconds``; returns the full detail, of
    which ``result`` is the line the benchmark contract asks for."""
    issues: List[str] = []
    #: kind -> repetitions; "own" is the workload as declared, "batch" is
    #: steady-serve's reference run
    reps: Dict[str, List[Dict[str, object]]] = {
        "own": [],
        "traced": [],
        "batch": [],
    }
    layer_samples: List[Dict[str, float]] = []
    starts: List[List[object]] = []
    last_tracer: Optional[Tracer] = None

    def one(kind: str) -> None:
        nonlocal last_tracer
        tracer = Tracer(run_id=len(reps["traced"])) if kind == "traced" else None
        starts.append([kind, time()])
        rep = run_once(
            workload,
            seed,
            size,
            tracer=tracer,
            serve=False if kind == "batch" else None,
        )
        issues.extend(check_complete(rep))
        reps[kind].append(rep)
        if tracer is not None:
            layer_samples.append(_layer_metrics(rep, tracer))
            last_tracer = tracer

    rotation = ["own", "traced"] if trace else ["own"]
    if workload.serve:
        if trace:
            rotation.insert(0, "batch")
        else:
            one("batch")
    begin = perf_counter()
    while True:
        for kind in rotation:
            one(kind)
        if perf_counter() - begin >= seconds:
            break
    measured_s = perf_counter() - begin

    own = reps["own"]
    issues.extend(check_identical(own + reps["traced"]))
    if workload.serve:
        issues.extend(check_identical(reps["batch"]))
        issues.extend(check_serve_equals_batch(own[0], reps["batch"][0]))
    if len(workload.schedulers) > 1 and seed == 0 and size == 1.0:
        issues.extend(check_outcome(own[0]))

    values: Dict[str, float] = {
        key: _median([rep[key] for rep in own])
        for key in (
            "setup_s",
            "wall_s",
            "placements_per_s",
            "round_ms_p50",
            "round_ms_p99",
        )
    }
    values["sim_makespan_s"] = own[0]["sim_makespan_s"]
    values["sim_mean_jct_s"] = own[0]["sim_mean_jct_s"]
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    declared = SPEC["end_to_end"]
    if trace:
        declared = SPEC["per_layer"]
        for index, sample in enumerate(layer_samples[1:], start=1):
            for key in COUNT_METRICS:
                if sample[key] != layer_samples[0][key]:
                    issues.append(
                        f"traced repetition {index}: count {key} = "
                        f"{sample[key]!r}, repetition 0 had "
                        f"{layer_samples[0][key]!r}"
                    )
        for key in layer_samples[0]:
            values[key] = _median([sample[key] for sample in layer_samples])
        # from the untraced repetitions: the wrapper around ``schedule``
        # would add a tenth to a 12-microsecond empty round
        values["schedulers.round_ms_p50"] = values["round_ms_p50"]
        untraced_wall = values["wall_s"]
        values["bench.trace_overhead_frac"] = (
            _median([rep["wall_s"] for rep in reps["traced"]]) / untraced_wall
            - 1.0
        )
        values["serve.overhead_frac"] = (
            untraced_wall / _median([rep["wall_s"] for rep in reps["batch"]])
            - 1.0
            if workload.serve
            else 0.0
        )
        if values["bench.unattributed_frac"] > 0.01:
            issues.append(
                "traced self times miss the traced wall by "
                f"{values['bench.unattributed_frac']:.2%}"
            )
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            last_tracer.write_chrome_trace(
                trace_path,
                {
                    "workload": workload.name,
                    "seed": seed,
                    "size": size,
                    "unwrapped": list(UNWRAPPED),
                },
            )

    counted = own + reps["traced"]
    attempted = sum(rep["attempted"] for rep in counted)
    failed = sum(rep["failed"] for rep in counted) + len(issues)
    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "measured_s": measured_s,
        "repetitions": {kind: len(items) for kind, items in reps.items()},
        "starts": starts,
        "issues": issues,
        "values": values,
        "jct_gain_pct": own[0]["jct_gain_pct"],
        "unwrapped": list(UNWRAPPED) if trace else [],
        "result": {
            "correct": not issues,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric["name"]: {
                    "value": values[metric["name"]],
                    "unit": metric["unit"],
                }
                for metric in declared
            },
        },
    }


def workload_named(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
