"""``--agree A.json B.json``: do two results files tell the same story?

A is the reference (the parent commit, or the first set of the same
commit), B the candidate.  Each end-to-end metric of each workload gets
one verdict against its bound in ``BENCHMARK.json``:

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: the quartile ranges of A and B overlap *and* either
  set's own spread (q3 - q1 over median) exceeds the bound — the runs
  cannot tell a difference of that size from noise, so the row is
  neither a pass nor a regression;
- ``ok``: otherwise.

Simulated metrics are deterministic, so for them any worsening at all is
``worse`` and any other difference is flagged ``changed``.  Exits
non-zero on any ``worse`` or when B's failed-operation share exceeds A's.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

__all__ = ["agree", "verdict"]


def _spread(row: Dict[str, float]) -> float:
    return (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float):
    """``(verdict, worsening)`` for one metric; ``worsening`` is B's
    median relative to A's, positive when worse."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worsening = change if better == "lower" else -change
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if overlap and max(_spread(a), _spread(b)) > bound:
        return "unresolved", worsening
    return ("worse" if worsening > bound else "ok"), worsening


def agree(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    for label, data in (("A", a), ("B", b)):
        prov = data["provenance"]
        print(
            f"{label}: {prov['git_sha']} dirty={prov['git_dirty']} "
            f"seed={prov['seed']} size={prov['size']} "
            f"repeats={prov['repeats']} x {prov['seconds']}s  "
            f"nproc={prov['nproc']} python={prov['python']} "
            f"numpy={prov['numpy']}  {prov['started']}"
        )
    same_input = all(
        a["provenance"][key] == b["provenance"][key] for key in ("seed", "size")
    )
    bad = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, row_a in wa["end_to_end"].items():
            row_b = wb["end_to_end"][metric]
            if row_a["unit"] == "sim_s":
                # deterministic given the input: compare exactly
                worsening = (row_b["median"] - row_a["median"]) / row_a["median"]
                if not same_input or worsening == 0:
                    result = "ok" if same_input else "n/a (inputs differ)"
                else:
                    result = "worse" if worsening > 0 else "changed"
            else:
                result, worsening = verdict(
                    row_a, row_b, row_a["better"], row_a["bound"]
                )
            bad += result == "worse"
            print(
                f"{name:<15} {metric:<18} A {row_a['median']:>12.6g}  "
                f"B {row_b['median']:>12.6g} {row_a['unit']:<6} "
                f"{worsening:>+8.2%} worse (bound {row_a['bound']:.0%})  {result}"
            )
        if same_input:
            for key, count_a in wa["counts"].items():
                if wb["counts"][key] != count_a:
                    print(
                        f"{name:<15} count {key}: A {count_a!r} "
                        f"B {wb['counts'][key]!r}  changed"
                    )
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        result = "worse" if share_b > share_a else "ok"
        bad += result == "worse"
        print(
            f"{name:<15} failed share       A {share_a:>12.6g}  "
            f"B {share_b:>12.6g}  {result}"
        )
    print("agree:", "ok" if not bad else f"{bad} rows worse")
    return 1 if bad else 0
