"""Smoke test of the benchmark harness itself (not in tier-1 testpaths).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs the whole suite once at ``--smoke`` size (about 20 s) and checks the
artifact, then feeds the correctness checks deliberately wrong results:
a check that cannot fail checks nothing.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
for path in (REPO_ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import agree  # noqa: E402
import single  # noqa: E402
import suite  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_declaration_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 <= metric["bound"] <= 0.25
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {w["name"] for w in SPEC["workloads"]} == set(single.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_results_schema(results):
    assert results["schema"] == suite.SCHEMA
    provenance = results["provenance"]
    for key in (
        "git_sha", "git_dirty", "nproc", "python", "numpy", "thread_caps",
        "seed", "seconds", "repeats", "size", "run_order",
    ):  # fmt: skip
        assert key in provenance, key
    assert provenance["thread_caps"]["OMP_NUM_THREADS"] == "1"
    # one untraced + one traced run of each workload, each stamped
    assert len(provenance["run_order"]) == 2 * len(SPEC["workloads"])
    assert all(entry["started"] for entry in provenance["run_order"])
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_every_metric_for_every_workload(results):
    for name, entry in results["workloads"].items():
        assert entry["correct"], (name, entry["issues"])
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        for metric in SPEC["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            assert row["n"] == 1 and row["unit"] == metric["unit"]
            assert row["q1"] <= row["median"] <= row["q3"]
            assert row["median"] > 0, (name, metric["name"])
        for metric in SPEC["per_layer"]:
            assert metric["name"] in entry["per_layer"], (name, metric["name"])


def test_traced_self_times_sum_to_wall(results):
    for name, entry in results["workloads"].items():
        layers = {k: v["value"] for k, v in entry["per_layer"].items()}
        assert layers["bench.unattributed_frac"] <= 0.01, name
        # the same identity from the published metrics alone
        parts = [
            "sim.engine.self_s", "sim.events.busy_s",
            "sim.fluid.next_completion_s", "sim.fluid.advance_s",
            "sim.fluid.add_flow_s", "sim.fluid.completed_tags_s",
            "schedulers.schedule_s", "schedulers.notify_s",
            "estimation.tracker_s", "estimation.estimator_s",
            "metrics.collector_s", "serve.stage_s", "serve.commit_s",
            "serve.verify_s", "serve.admission_s", "serve.self_s",
        ]  # fmt: skip
        traced_wall = sum(
            layers[f"experiments.{s}_s"]
            for s in ("tetris", "slot-fair", "drf", "capacity")
        )
        assert sum(layers[p] for p in parts) == pytest.approx(
            traced_wall, rel=0.01
        ), name


def test_layer_contrast(results):
    layers = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in results["workloads"].items()
    }
    assert layers["backlog-burst"]["estimation.tracker_s"] == 0
    assert layers["steady-batch"]["estimation.tracker_s"] > 0
    assert layers["steady-serve"]["serve.batches"] > 0
    assert layers["steady-batch"]["serve.drive_s"] == 0
    assert layers["compare-sweep"]["experiments.drf_s"] > 0


def _rep(**changes):
    rep = {
        "sim_makespan_s": 100.0, "sim_mean_jct_s": 10.0, "placements": 50,
        "rounds": 20, "unplaced": 0, "jobs_unfinished": 0, "jobs": 5,
        "served": None, "jct_gain_pct": {"drf": 25.0},
    }  # fmt: skip
    rep.update(changes)
    return rep


def test_checks_fire_on_perturbed_results():
    good = _rep()
    assert single.check_identical([good, _rep()]) == []
    assert single.check_identical([good, _rep(sim_mean_jct_s=10.000001)])
    assert single.check_identical([good, _rep(placements=49)])

    assert single.check_serve_equals_batch(_rep(), good) == []
    assert single.check_serve_equals_batch(_rep(sim_makespan_s=100.5), good)

    assert single.check_complete(good) == []
    assert single.check_complete(_rep(unplaced=1))
    assert single.check_complete(_rep(jobs_unfinished=1))
    served = {
        "offered": 5, "rejected": 0, "aborted": 0, "dropped": 0,
        "invariant_violations": 0,
    }  # fmt: skip
    assert single.check_complete(_rep(served=served)) == []
    assert single.check_complete(_rep(served={**served, "rejected": 1}))
    assert single.check_complete(_rep(served={**served, "invariant_violations": 1}))
    assert single.check_complete(_rep(served={**served, "offered": 4}))

    assert single.check_outcome(good) == []
    assert single.check_outcome(_rep(jct_gain_pct={"drf": 9.0}))


def test_cross_run_checks_fire(results):
    def detail(makespan):
        return {"values": {"sim_makespan_s": makespan, "sim_mean_jct_s": 1.0}}

    clean = {"steady-batch": [detail(7.0)] * 2, "steady-serve": [detail(7.0)]}
    assert not any(suite.check_cross_run(clean).values())
    drift = {"steady-batch": [detail(7.0), detail(7.5)]}
    assert suite.check_cross_run(drift)["steady-batch"]
    split = {"steady-batch": [detail(7.0)], "steady-serve": [detail(8.0)]}
    assert suite.check_cross_run(split)["steady-serve"]


def test_agree_verdicts(results, tmp_path, capsys):
    row = {"median": 10.0, "q1": 9.9, "q3": 10.1}
    assert agree.verdict(row, row, "lower", 0.1)[0] == "ok"
    slow = {"median": 12.0, "q1": 11.9, "q3": 12.1}
    assert agree.verdict(row, slow, "lower", 0.1)[0] == "worse"
    assert agree.verdict(row, slow, "higher", 0.1)[0] == "ok"
    noisy = {"median": 10.5, "q1": 9.0, "q3": 12.0}
    assert agree.verdict(row, noisy, "lower", 0.1)[0] == "unresolved"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results))
    b.write_text(json.dumps(results))
    assert agree.agree(a, b) == 0
    worse = copy.deepcopy(results)
    jct = worse["workloads"]["steady-batch"]["end_to_end"]["sim_mean_jct_s"]
    for key in ("median", "q1", "q3"):
        jct[key] *= 1.001  # a "speed-up" that moved a placement
    b.write_text(json.dumps(worse))
    assert agree.agree(a, b) == 1
    failing = copy.deepcopy(results)
    failing["workloads"]["steady-serve"]["failed"] = 3
    b.write_text(json.dumps(failing))
    assert agree.agree(a, b) == 1
    assert "worse" in capsys.readouterr().out
