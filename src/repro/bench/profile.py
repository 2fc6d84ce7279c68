"""Profile capture: one scenario run → one durable performance artifact.

A *profile* is a schema-versioned plain dict (serialized as
``BENCH_<scenario>.json``) holding everything needed to compare two
versions of the scheduler:

- ``meta`` — git SHA (and dirty flag), host, platform, the scenario's
  config fingerprint, and a host-speed calibration constant;
- ``metrics`` — each a ``{kind, direction, unit, value, samples}``
  record, where ``value`` is the median of ``repeats`` independent runs
  and ``samples`` keeps the raw repeats for the detector's
  nonparametric fallback.  Phase wall-clock metrics are named
  ``phase:<label>:mean_ms`` so a degradation names the phase that
  caused it;
- ``phases`` — the full :meth:`Profiler.as_dict` detail of the last
  repeat (count/total/mean/min/max/stddev per phase);
- ``registry`` — the :meth:`Registry.snapshot` of the last repeat, so
  scheduler counters (cache hits, rounds, reservations) ride along
  without parsing text exposition.

Following Perun's model, profiles are stamped per-version and compared
against a committed baseline rather than re-derived by hand.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.bench.scenarios import (
    PackingScenario,
    Scenario,
    ServeScenario,
    TraceScenario,
    get_scenario,
)
from repro.exec import (
    RunSpec,
    SerialBackend,
    get_backend,
    raise_on_failure,
    run_specs,
)
from repro.exec.backends import ExecutionError
from repro.experiments.harness import ExperimentConfig
from repro.profiling import Profiler

__all__ = [
    "SCHEMA",
    "capture",
    "save_profile",
    "load_profile",
    "profile_filename",
    "dump_json",
    "git_revision",
    "calibrate",
]

SCHEMA = "repro.bench.profile/v1"


# ---------------------------------------------------------------------------
# environment stamps
# ---------------------------------------------------------------------------

def git_revision(cwd: Optional[str] = None) -> Dict[str, object]:
    """``{"sha": ..., "dirty": ...}`` for the enclosing git checkout, or
    ``{"sha": None, "dirty": None}`` outside one (profiles must still be
    capturable from an sdist)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"sha": sha.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def calibrate(loops: int = 200_000, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of a fixed pure-Python spin.

    Stored in every profile as ``meta.calibration_seconds``; the
    detector rescales timing metrics by the calibration ratio before
    applying tolerance bands, so a baseline captured on a faster (or
    slower) host does not read as a regression (or mask one).
    """
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(loops):
            acc += i * i
        best = min(best, perf_counter() - start)
    return best


def _meta(scenario: Scenario, repeats: int) -> Dict[str, object]:
    rev = git_revision()
    return {
        "git_sha": rev["sha"],
        "git_dirty": rev["dirty"],
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "config_fingerprint": scenario.config_fingerprint(),
        "calibration_seconds": calibrate(),
        "repeats": repeats,
    }


# ---------------------------------------------------------------------------
# metric records
# ---------------------------------------------------------------------------

def _metric(
    kind: str, direction: str, unit: str, samples: List[float]
) -> Dict[str, object]:
    return {
        "kind": kind,
        "direction": direction,
        "unit": unit,
        "value": float(statistics.median(samples)),
        "samples": [float(s) for s in samples],
    }


def _phase_metrics(
    per_repeat: List[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, object]]:
    """``phase:<label>:mean_ms`` timing metrics from per-repeat profiler
    exports (labels missing from some repeat contribute no sample)."""
    labels = sorted({label for d in per_repeat for label in d})
    out = {}
    for label in labels:
        samples = [
            d[label]["mean"] * 1e3 for d in per_repeat if label in d
        ]
        out[f"phase:{label}:mean_ms"] = _metric(
            "timing", "lower", "ms", samples
        )
    return out


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------

def _capture_trace(
    scenario: TraceScenario, repeats: int, backend=None
) -> Dict[str, object]:
    trace = tuple(scenario.make_trace())
    config = ExperimentConfig(
        num_machines=scenario.num_machines,
        seed=getattr(scenario.trace_config, "seed", 0),
        use_tracker=scenario.use_tracker,
    )
    # identical specs on purpose: repeats measure run-to-run timing
    # noise of the same workload, so only the wall clock may differ
    specs = [
        RunSpec(
            trace=trace,
            scheduler=scenario.scheduler,
            config=config,
            label=f"{scenario.name}[{i}]",
            collect_profile=True,
        )
        for i in range(repeats)
    ]
    outcomes = run_specs(specs, backend)
    raise_on_failure(outcomes)
    wall, pps, mean_jct, median_jct, makespan = [], [], [], [], []
    jobs_done, placements = [], []
    phase_dicts = []
    merged_profiler = Profiler()
    for outcome in outcomes:
        result = outcome.result
        summary = result.summary()
        wall.append(result.wall_seconds)
        pps.append(result.placements_per_sec)
        mean_jct.append(summary["mean_jct"])
        median_jct.append(summary["median_jct"])
        makespan.append(summary["makespan"])
        jobs_done.append(summary["jobs"])
        placements.append(result.num_placements)
        phase_dicts.append(outcome.profiler.as_dict())
        merged_profiler.merge(outcome.profiler)
    metrics = {
        "wall_seconds": _metric("timing", "lower", "s", wall),
        "placements_per_sec": _metric("timing", "higher", "1/s", pps),
        "mean_jct": _metric("fidelity", "lower", "s", mean_jct),
        "median_jct": _metric("fidelity", "lower", "s", median_jct),
        "makespan": _metric("fidelity", "lower", "s", makespan),
        "jobs": _metric("fidelity", "exact", "jobs", jobs_done),
        "num_placements": _metric("fidelity", "exact", "placements",
                                  placements),
    }
    metrics.update(_phase_metrics(phase_dicts))
    return {
        "metrics": metrics,
        "phases": phase_dicts[-1],
        #: all repeats pooled via Profiler.merge (per-phase sample union)
        "phases_merged": merged_profiler.as_dict(),
        "registry": outcomes[-1].registry.snapshot(),
    }


def _packing_repeat(scenario: PackingScenario) -> Dict[str, object]:
    """One independent repeat of a packing scenario (worker-side body)."""
    from repro.bench.scenarios import packing_state

    round_ms: List[float] = []
    placed_counts: List[float] = []
    machine_ids = list(range(scenario.num_machines))
    scheduler = packing_state(scenario)
    profiler = Profiler()
    scheduler.profiler = profiler
    # claim-replay below revives tasks whose queue positions depend on
    # visit history; every machine must be visited for the rounds to
    # stay identical (see TetrisScheduler.prefilter_machines)
    scheduler.prefilter_machines = False
    for i in range(scenario.warmup + scenario.rounds):
        # undo tentative state so every round packs the same backlog
        scheduler.index.reset_claims()
        scheduler._remote_granted.clear()
        scheduler._remote_by_task.clear()
        start = perf_counter()
        placements = scheduler.schedule(0.0, machine_ids)
        elapsed = perf_counter() - start
        if i >= scenario.warmup:
            round_ms.append(elapsed * 1e3)
            placed_counts.append(float(len(placements)))
    return {
        "round_ms": round_ms,
        "placed_counts": placed_counts,
        "phases": profiler.as_dict(),
    }


def _capture_packing(
    scenario: PackingScenario, repeats: int, backend=None
) -> Dict[str, object]:
    if backend is None:
        backend = SerialBackend()
    outcomes = backend.map(_packing_repeat, [scenario] * repeats)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise ExecutionError(
            f"{len(failed)} of {repeats} packing repeats failed: "
            + "; ".join(str(o.error) for o in failed)
        )
    round_ms: List[float] = []
    placed_counts: List[float] = []
    phase_dicts = []
    for outcome in outcomes:
        round_ms.extend(outcome.value["round_ms"])
        placed_counts.extend(outcome.value["placed_counts"])
        phase_dicts.append(outcome.value["phases"])
    metrics = {
        "round_ms": _metric("timing", "lower", "ms", round_ms),
        "placements_per_round": _metric(
            "fidelity", "exact", "placements", placed_counts
        ),
    }
    metrics.update(_phase_metrics(phase_dicts))
    return {
        "metrics": metrics,
        "phases": phase_dicts[-1],
        "registry": {},
    }


def _serve_repeat(scenario: ServeScenario) -> Dict[str, object]:
    """One independent streamed replay (worker-side body)."""
    import asyncio

    from repro.estimation.tracker import ResourceTracker
    from repro.obs import Registry
    from repro.schedulers.registry import build_scheduler
    from repro.serve import (
        AdmissionConfig,
        AdmissionController,
        SchedulerService,
        ServeConfig,
        TraceReplaySource,
    )
    from repro.sim.engine import Engine
    from repro.workload.trace import materialize_trace

    config = ExperimentConfig(
        num_machines=scenario.num_machines,
        seed=getattr(scenario.trace_config, "seed", 0),
        use_tracker=scenario.use_tracker,
    )
    cluster = config.make_cluster()
    jobs = materialize_trace(
        scenario.make_trace(), cluster, seed=config.seed
    )
    tracker = ResourceTracker(cluster) if config.use_tracker else None
    registry = Registry()
    engine = Engine(
        cluster,
        build_scheduler(scenario.scheduler),
        [],
        tracker=tracker,
        config=config.make_engine_config(),
        metrics=registry,
    )
    service = SchedulerService(
        engine,
        TraceReplaySource(jobs),
        AdmissionController(
            AdmissionConfig(queue_cap=scenario.queue_cap)
        ),
        ServeConfig(
            max_batch=scenario.max_batch,
            verify_every=scenario.verify_every,
        ),
        registry=registry,
    )
    report = asyncio.run(service.serve())
    return {
        "wall_seconds": report.wall_seconds,
        "drive_seconds": report.drive_seconds,
        "placements_per_sec": report.placements_per_sec,
        "placements": float(report.placements),
        "jobs_finished": float(report.jobs_finished),
        "sim_time": report.sim_time,
        "invariant_violations": float(report.invariant_violations),
        "registry": registry.snapshot(),
    }


def _capture_serve(
    scenario: ServeScenario, repeats: int, backend=None
) -> Dict[str, object]:
    if backend is None:
        backend = SerialBackend()
    outcomes = backend.map(_serve_repeat, [scenario] * repeats)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise ExecutionError(
            f"{len(failed)} of {repeats} serve repeats failed: "
            + "; ".join(str(o.error) for o in failed)
        )
    values = [o.value for o in outcomes]

    def samples(key: str) -> List[float]:
        return [v[key] for v in values]

    metrics = {
        "wall_seconds": _metric(
            "timing", "lower", "s", samples("wall_seconds")
        ),
        "drive_seconds": _metric(
            "timing", "lower", "s", samples("drive_seconds")
        ),
        "placements_per_sec": _metric(
            "timing", "higher", "1/s", samples("placements_per_sec")
        ),
        "num_placements": _metric(
            "fidelity", "exact", "placements", samples("placements")
        ),
        "jobs_finished": _metric(
            "fidelity", "exact", "jobs", samples("jobs_finished")
        ),
        "sim_time": _metric("fidelity", "lower", "s", samples("sim_time")),
        "invariant_violations": _metric(
            "fidelity", "exact", "violations",
            samples("invariant_violations"),
        ),
    }
    return {
        "metrics": metrics,
        "phases": {},
        "registry": values[-1]["registry"],
    }


def capture(
    scenario_or_name,
    repeats: int = 3,
    workers: Optional[int] = None,
    backend=None,
) -> Dict[str, object]:
    """Run one scenario ``repeats`` times and return its profile dict.

    Repeats are independent, so they run on an execution backend
    (``workers`` > 1 / ``REPRO_WORKERS`` selects the process pool; the
    per-repeat profilers and registries come back across the process
    boundary and aggregate exactly as in-process ones would).  The
    profile's ``meta.execution`` stanza records how results were
    produced.  Note that with more repeats in flight than cores, the
    repeats contend for CPU and wall-clock timing metrics degrade —
    fidelity metrics are unaffected.
    """
    scenario = (
        get_scenario(scenario_or_name)
        if isinstance(scenario_or_name, str)
        else scenario_or_name
    )
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if backend is None:
        backend = get_backend(workers)
    if isinstance(scenario, TraceScenario):
        body = _capture_trace(scenario, repeats, backend)
    elif isinstance(scenario, ServeScenario):
        body = _capture_serve(scenario, repeats, backend)
    else:
        body = _capture_packing(scenario, repeats, backend)
    meta = _meta(scenario, repeats)
    meta["execution"] = {"backend": backend.name, "workers": backend.workers}
    profile = {
        "schema": SCHEMA,
        "scenario": scenario.name,
        "kind": scenario.kind,
        "created_unix": time.time(),
        "meta": meta,
    }
    profile.update(body)
    return profile


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dump_json(payload: Dict[str, object], path) -> Path:
    """Serialize any summary payload as strict JSON (no NaN), atomically.

    The shared serializer behind profile files and the CLI's
    ``--json`` outputs.
    """
    path = Path(path)
    if path.parent and not path.parent.exists():
        os.makedirs(path.parent, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    os.replace(tmp, path)
    return path


def profile_filename(scenario_name: str) -> str:
    return f"BENCH_{scenario_name}.json"


def save_profile(profile: Dict[str, object], directory) -> Path:
    """Write ``BENCH_<scenario>.json`` under ``directory``."""
    return dump_json(
        profile, Path(directory) / profile_filename(str(profile["scenario"]))
    )


def load_profile(path) -> Dict[str, object]:
    """Load and schema-check one profile file."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a {SCHEMA} profile "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    for key in ("scenario", "meta", "metrics"):
        if key not in payload:
            raise ValueError(f"{path}: profile missing {key!r}")
    return payload
