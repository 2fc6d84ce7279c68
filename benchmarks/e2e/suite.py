"""The whole suite: interleaved repeats of every workload, one traced run
each, cross-run checks, a printed report and one results file.

Every sample is a fresh subprocess running the ``BENCHMARK.json`` command
(so ``peak_rss_mb`` is per run and the suite measures exactly what the
driver measures).  Repeats go round-robin across workloads, so a slow
phase of the host is spread over all of them instead of landing on one.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

from single import BENCH_DIR, COUNT_METRICS, SPEC
from workloads import SMOKE_SIZE, WORKLOADS

__all__ = ["check_cross_run", "quartiles", "run_suite"]

REPO_ROOT = BENCH_DIR.parents[1]
SCHEMA = "repro.e2e-results/v1"
_EXACT = ("sim_makespan_s", "sim_mean_jct_s")


def quartiles(samples: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (the rule the benchmark contract uses for spread)."""
    if len(samples) < 2:
        return {"median": samples[0], "q1": samples[0], "q3": samples[0]}
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _git(*args: str) -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None  # a checkout without git metadata


def _provenance(args) -> Dict[str, object]:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_caps": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.endswith("_NUM_THREADS")
        },
        "started": datetime.now(timezone.utc).isoformat(),
        "argv": sys.argv[1:],
    }


def _one_run(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, object]:
    """Run the BENCHMARK.json command once; returns its ``--detail``."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        detail_path = Path(tmp) / "detail.json"
        command = [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--detail", str(detail_path),
        ]  # fmt: skip
        if smoke:
            command.append("--smoke")
        done = subprocess.run(
            command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
            )
        sys.stderr.write(done.stderr)
        return json.loads(detail_path.read_text())


def check_cross_run(
    runs: Dict[str, List[Dict[str, object]]],
) -> Dict[str, List[str]]:
    """Checks that need more than one run: simulated outcome identical
    across the runs of a workload (traced one included), steady-serve
    equal to steady-batch."""
    issues: Dict[str, List[str]] = {name: [] for name in runs}
    for name, details in runs.items():
        for key in _EXACT:
            seen = {detail["values"][key] for detail in details}
            if len(seen) > 1:
                issues[name].append(
                    f"{key} differs between runs of one seed: {sorted(seen)}"
                )
    if "steady-serve" in runs and "steady-batch" in runs:
        serve, batch = runs["steady-serve"][0], runs["steady-batch"][0]
        for key in _EXACT:
            if serve["values"][key] != batch["values"][key]:
                issues["steady-serve"].append(
                    f"{key} = {serve['values'][key]!r} but steady-batch "
                    f"has {batch['values'][key]!r}"
                )
    return issues


def _print_report(results: Dict[str, object]) -> None:
    for name, entry in results["workloads"].items():
        print(f"\n== {name} ==  {entry['why']}")
        print(
            f"   attempted {entry['attempted']}  failed {entry['failed']}  "
            f"correct {entry['correct']}"
        )
        for issue in entry["issues"]:
            print(f"   CHECK FAILED: {issue}")
        print("   end to end (untraced; median [q1 .. q3] of n runs)")
        for metric, row in entry["end_to_end"].items():
            print(
                f"     {metric:<20} {row['median']:>14.6g} {row['unit']:<6}"
                f" [{row['q1']:.6g} .. {row['q3']:.6g}]  n={row['n']}"
                f"  ({row['better']} is better, bound {row['bound']:.0%})"
            )
        if entry["per_layer"]:
            print("   per layer (traced run)")
        for metric, row in entry["per_layer"].items():
            print(f"     {metric:<40} {row['value']:>14.6g} {row['unit']}")
        if entry["jct_gain_pct"]:
            gains = ", ".join(
                f"{k} {v:.1f}%" for k, v in entry["jct_gain_pct"].items()
            )
            print(f"   tetris mean JCT below: {gains}")


def _selftest(names: List[str], args, seconds: float) -> int:
    """Counts must repeat exactly between two traced runs of one seed."""
    bad = 0
    for name in names:
        first, second = (
            _one_run(name, args.seed, seconds, True, args.smoke)
            for _ in range(2)
        )
        for key in COUNT_METRICS:
            a, b = first["values"][key], second["values"][key]
            verdict = "ok" if a == b else "DIFFERS"
            bad += a != b
            print(f"{name:<15} {key:<40} {a!r:>12} {b!r:>12}  {verdict}")
        for detail in (first, second):
            bad += len(detail["issues"])
            for issue in detail["issues"]:
                print(f"{name:<15} CHECK FAILED: {issue}")
    print("selftest:", "ok" if not bad else f"{bad} problems")
    return 1 if bad else 0


def run_suite(args) -> int:
    names = list(WORKLOADS)
    if args.workloads:
        names = [n.strip() for n in args.workloads.split(",")]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            raise SystemExit(
                f"unknown workloads {unknown}; choose from {list(WORKLOADS)}"
            )
    seconds = args.seconds
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    if args.selftest:
        return _selftest(names, args, seconds)

    provenance = _provenance(args)
    size = SMOKE_SIZE if args.smoke else 1.0
    runs: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    order: List[Dict[str, object]] = []
    plan = [(r, name, False) for r in range(repeats) for name in names]
    plan += [(repeats, name, True) for name in names]
    for repeat, name, trace in plan:
        print(
            f"[{len(order) + 1}/{len(plan)}] {name} "
            f"{'traced' if trace else f'repeat {repeat}'}",
            file=sys.stderr,
        )
        started = datetime.now(timezone.utc).isoformat()
        detail = _one_run(name, args.seed, seconds, trace, args.smoke)
        runs[name].append(detail)
        order.append(
            {
                "workload": name,
                "repeat": repeat,
                "trace": trace,
                "started": started,
                "measured_s": detail["measured_s"],
                "repetitions": detail["repetitions"],
                "repetition_starts": detail["starts"],
            }
        )

    cross = check_cross_run(runs)
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    results: Dict[str, object] = {
        "schema": SCHEMA,
        "provenance": {
            **provenance,
            "seed": args.seed,
            "seconds": seconds,
            "repeats": repeats,
            "size": size,
            "run_order": order,
        },
        "workloads": {},
    }
    for name in names:
        untraced = [d for d in runs[name] if not d["trace"]]
        traced = runs[name][-1]
        issues = [i for d in runs[name] for i in d["issues"]] + cross[name]
        results["workloads"][name] = {
            "why": why[name],
            "sizes": WORKLOADS[name].sizes(size),
            "attempted": sum(d["result"]["attempted"] for d in runs[name]),
            "failed": sum(d["result"]["failed"] for d in runs[name])
            + len(cross[name]),
            "correct": not issues,
            "issues": issues,
            "end_to_end": {
                metric: {
                    "unit": spec["unit"],
                    "better": spec["better"],
                    "bound": spec["bound"],
                    **quartiles([d["values"][metric] for d in untraced]),
                    "n": len(untraced),
                    "samples": [d["values"][metric] for d in untraced],
                }
                for metric, spec in bounds.items()
            },
            "per_layer": {
                m["name"]: {"unit": m["unit"], "value": traced["values"][m["name"]]}
                for m in SPEC["per_layer"]
            },
            "counts": {key: traced["values"][key] for key in COUNT_METRICS},
            "jct_gain_pct": traced["jct_gain_pct"],
            "unwrapped": traced["unwrapped"],
            "trace_file": f"benchmarks/e2e/out/trace-{name}.json",
        }
    _print_report(results)
    out = Path(args.out) if args.out else BENCH_DIR / "out" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0 if all(w["correct"] for w in results["workloads"].values()) else 1
