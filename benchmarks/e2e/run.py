#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, two kinds of run.

    python benchmarks/e2e/run.py                       # the whole suite
    python benchmarks/e2e/run.py --smoke               # same, tiny, < 30 s
    python benchmarks/e2e/run.py --selftest --smoke    # counts repeat exactly?
    python benchmarks/e2e/run.py --agree A.json B.json # compare two suites
    python benchmarks/e2e/run.py --workload steady-batch --seed 3 \\
        --seconds 25 --trace 0                         # one run (BENCHMARK.json)

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# numpy reads these when it is first imported
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_CAPS:
    os.environ.setdefault(_name, "1")

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="how long one run measures (default: run_seconds of "
        "BENCHMARK.json; 1 under --smoke)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="about a tenth of the issue's sizes, one repeat",
    )
    one = parser.add_argument_group("one run (the BENCHMARK.json command)")
    one.add_argument("--workload", default=None)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument(
        "--detail", default=None, metavar="PATH", help="also write the full detail"
    )
    suite = parser.add_argument_group("suite")
    suite.add_argument("--repeats", type=int, default=None)
    suite.add_argument("--workloads", default=None, help="comma-separated subset")
    suite.add_argument("--out", default=None, metavar="PATH")
    suite.add_argument(
        "--selftest",
        action="store_true",
        help="two traced runs per workload; every count must repeat exactly",
    )
    parser.add_argument(
        "--agree",
        nargs=2,
        default=None,
        metavar=("A.json", "B.json"),
        help="compare two results files against the bounds in BENCHMARK.json",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.agree:
        from agree import agree

        return agree(Path(args.agree[0]), Path(args.agree[1]))

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(
            f"error: {REPO_ROOT / 'src' / 'repro'} is missing — the benchmark "
            "measures that package and cannot run without it",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))

    from single import SPEC, measure, workload_named
    from workloads import SMOKE_SIZE

    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(SPEC["run_seconds"])
    if args.workload is None:
        from suite import run_suite

        return run_suite(args)

    workload = workload_named(args.workload)
    detail = measure(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=SMOKE_SIZE if args.smoke else 1.0,
        trace_path=BENCH_DIR / "out" / f"trace-{workload.name}.json",
    )
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    for issue in detail["issues"]:
        print(f"check failed: {issue}", file=sys.stderr)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
