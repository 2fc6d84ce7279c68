"""The bench subsystem: scenarios, profile capture, degradation detection.

Synthetic-profile tests pin the detector's decision rules (tolerance
bands, calibration rescaling, rank-test confirmation, per-phase
attribution); one real capture per scenario kind proves the pipeline
produces schema-valid, comparable artifacts end to end.
"""

import copy
import json

import pytest

from repro.bench import (
    SCHEMA,
    ProfileStore,
    SCENARIOS,
    capture,
    collect_profiles,
    compare_profiles,
    dump_json,
    get_scenario,
    load_profile,
    mann_whitney_p,
    profile_filename,
    render_trajectory,
    save_profile,
    scenario_names,
)
from repro.bench.detect import DEGRADED, IMPROVED, MISSING, NEW, STABLE
from repro.bench.scenarios import PackingScenario, packing_state

#: a deliberately tiny packing scenario so capture tests stay fast
TINY_PACKING = PackingScenario(
    name="tiny-packing",
    description="test-only",
    quick=True,
    num_machines=8,
    num_jobs=10,
    tasks_per_job=4,
    rounds=2,
    warmup=1,
)


def make_profile(metrics, scenario="synthetic", fingerprint="fp0",
                 calibration=0.01):
    """A minimal schema-valid profile for detector tests."""
    return {
        "schema": SCHEMA,
        "scenario": scenario,
        "kind": "trace",
        "created_unix": 1_000.0,
        "meta": {
            "git_sha": "deadbeef",
            "git_dirty": False,
            "host": "test",
            "platform": "test",
            "python": "3",
            "config_fingerprint": fingerprint,
            "calibration_seconds": calibration,
            "repeats": 3,
        },
        "metrics": metrics,
        "phases": {},
        "registry": {},
    }


def timing(value, samples=None, direction="lower"):
    return {
        "kind": "timing",
        "direction": direction,
        "unit": "s",
        "value": value,
        "samples": samples if samples is not None else [value],
    }


def fidelity(value, direction="lower"):
    return {
        "kind": "fidelity",
        "direction": direction,
        "unit": "s",
        "value": value,
        "samples": [value],
    }


class TestScenarios:
    def test_registry_has_quick_and_full_sets(self):
        quick = scenario_names(quick_only=True)
        everything = scenario_names()
        assert set(quick) < set(everything)
        assert "smoke" in quick
        assert "packing-micro" in quick
        assert "deploy" in everything and "deploy" not in quick

    def test_get_scenario_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_fingerprint_stable_and_config_sensitive(self):
        import dataclasses

        scenario = get_scenario("smoke")
        assert scenario.config_fingerprint() == scenario.config_fingerprint()
        changed = dataclasses.replace(scenario, num_machines=7)
        assert (
            changed.config_fingerprint() != scenario.config_fingerprint()
        )

    def test_fingerprint_ignores_description(self):
        import dataclasses

        scenario = TINY_PACKING
        relabeled = dataclasses.replace(scenario, description="other")
        assert (
            relabeled.config_fingerprint() == scenario.config_fingerprint()
        )

    def test_packing_state_has_pending_work(self):
        scheduler = packing_state(TINY_PACKING)
        placements = scheduler.schedule(
            0.0, list(range(TINY_PACKING.num_machines))
        )
        assert len(placements) > 0

    def test_benchmark_conftest_reuses_these_configs(self):
        """The pytest benchmark harness and repro bench must share one
        scenario source of truth."""
        deploy = SCENARIOS["deploy"]
        import repro.bench.scenarios as scenarios_mod

        assert deploy.trace_config is scenarios_mod.DEPLOY_SUITE
        assert deploy.num_machines == scenarios_mod.DEPLOY_MACHINES


class TestCapture:
    @pytest.fixture(scope="class")
    def smoke_profile(self):
        return capture("smoke", repeats=2)

    def test_schema_and_stamps(self, smoke_profile):
        p = smoke_profile
        assert p["schema"] == SCHEMA
        assert p["scenario"] == "smoke"
        assert p["kind"] == "trace"
        meta = p["meta"]
        assert meta["config_fingerprint"] == \
            get_scenario("smoke").config_fingerprint()
        assert meta["calibration_seconds"] > 0
        assert meta["repeats"] == 2
        # captured inside this repo, so the git stamp must resolve
        assert isinstance(meta["git_sha"], str) and len(meta["git_sha"]) == 40

    def test_metric_records(self, smoke_profile):
        metrics = smoke_profile["metrics"]
        for name in ("wall_seconds", "mean_jct", "makespan",
                     "num_placements"):
            assert name in metrics
            record = metrics[name]
            assert record["kind"] in ("timing", "fidelity")
            assert len(record["samples"]) == 2
        # fidelity metrics are deterministic across repeats (same seed)
        assert len(set(metrics["mean_jct"]["samples"])) == 1

    def test_phase_metrics_present_and_attributable(self, smoke_profile):
        phase_names = [
            n for n in smoke_profile["metrics"] if n.startswith("phase:")
        ]
        assert "phase:tetris.schedule:mean_ms" in phase_names
        assert "phase:engine.scheduler_round:mean_ms" in phase_names
        assert "tetris.schedule" in smoke_profile["phases"]
        assert smoke_profile["phases"]["tetris.schedule"]["count"] > 0

    def test_registry_snapshot_embedded(self, smoke_profile):
        registry = smoke_profile["registry"]
        assert "repro_engine_rounds_total" in registry
        assert registry["repro_engine_rounds_total"]["values"][""] > 0

    def test_packing_capture(self):
        p = capture(TINY_PACKING, repeats=2)
        assert p["kind"] == "packing"
        assert len(p["metrics"]["round_ms"]["samples"]) == \
            2 * TINY_PACKING.rounds
        assert p["metrics"]["placements_per_round"]["value"] > 0
        assert "phase:tetris.schedule:mean_ms" in p["metrics"]

    def test_clean_rerun_compares_stable(self, smoke_profile):
        again = capture("smoke", repeats=2)
        result = compare_profiles(smoke_profile, again)
        assert result.ok, result.render()

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            capture("smoke", repeats=0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        profile = make_profile({"m": fidelity(1.0)})
        path = save_profile(profile, tmp_path)
        assert path.name == profile_filename("synthetic") == \
            "BENCH_synthetic.json"
        loaded = load_profile(path)
        assert loaded == profile
        # round-tripped profiles compare clean against themselves
        assert compare_profiles(loaded, profile).ok

    def test_legacy_kernel_backend_stamp_is_ignored(self):
        """Profiles captured while the kernel registry existed carry a
        ``meta.kernel_backend`` key; it loads and no longer gates."""
        from pathlib import Path

        stamped = load_profile(
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "baselines" / "BENCH_cluster-xl.json"
        )
        assert stamped["meta"]["kernel_backend"] == "numpy"
        bare = copy.deepcopy(stamped)
        del bare["meta"]["kernel_backend"]
        other = copy.deepcopy(stamped)
        other["meta"]["kernel_backend"] = "scalar"
        for current in (bare, other):
            result = compare_profiles(stamped, current)
            assert result.ok and not result.config_mismatch, result.render()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "other/v9", "scenario": "x"}))
        with pytest.raises(ValueError, match="not a"):
            load_profile(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": SCHEMA, "scenario": "x"}))
        with pytest.raises(ValueError, match="missing"):
            load_profile(path)

    def test_dump_json_strict_and_atomic(self, tmp_path):
        target = tmp_path / "sub" / "out.json"
        dump_json({"a": 1.5}, target)  # creates the parent directory
        assert json.loads(target.read_text()) == {"a": 1.5}
        assert not list(tmp_path.glob("**/*.tmp"))
        with pytest.raises(ValueError):
            dump_json({"bad": float("nan")}, tmp_path / "nan.json")


class TestProfileStore:
    def test_store_listing_and_load(self, tmp_path):
        store = ProfileStore(tmp_path)
        assert store.scenarios() == []
        assert store.load("absent") is None
        store.save(make_profile({"m": fidelity(1.0)}, scenario="aaa"))
        store.save(make_profile({"m": fidelity(2.0)}, scenario="bbb"))
        (tmp_path / "not-a-profile.txt").write_text("x")
        assert store.scenarios() == ["aaa", "bbb"]
        assert store.load("aaa")["metrics"]["m"]["value"] == 1.0
        assert len(store.load_all()) == 2


class TestMannWhitney:
    def test_clear_shift_is_significant(self):
        p = mann_whitney_p([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
        assert p < 0.1

    def test_reverse_shift_is_not(self):
        p = mann_whitney_p([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert p > 0.9

    def test_interleaved_is_inconclusive(self):
        p = mann_whitney_p([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
        assert 0.2 < p < 0.9

    def test_all_ties(self):
        assert mann_whitney_p([1.0, 1.0], [1.0, 1.0]) >= 0.5

    def test_empty_sides(self):
        assert mann_whitney_p([], [1.0]) == 1.0
        assert mann_whitney_p([1.0], []) == 1.0


class TestDetector:
    def test_stable_within_band(self):
        base = make_profile({"t": timing(1.0), "f": fidelity(100.0)})
        cur = make_profile({"t": timing(1.2), "f": fidelity(100.5)})
        result = compare_profiles(base, cur)
        assert result.ok
        assert {v.status for v in result.verdicts} == {STABLE}

    def test_timing_degradation_confirmed_by_ranks(self):
        base = make_profile({"t": timing(1.0, [0.9, 1.0, 1.1])})
        cur = make_profile({"t": timing(2.0, [1.9, 2.0, 2.1])})
        result = compare_profiles(base, cur)
        assert not result.ok
        verdict = result.verdicts[0]
        assert verdict.status == DEGRADED
        assert "confirmed" in verdict.note

    def test_noisy_band_violation_downgraded(self):
        """Overlapping sample sets must not fail the gate even when the
        medians differ by more than the band."""
        base = make_profile({"t": timing(1.0, [0.5, 1.0, 3.1])})
        cur = make_profile({"t": timing(1.8, [0.6, 1.8, 2.9])})
        result = compare_profiles(base, cur)
        assert result.ok
        assert "not significant" in result.verdicts[0].note

    def test_single_samples_fall_back_to_band_only(self):
        base = make_profile({"t": timing(1.0, [1.0])})
        cur = make_profile({"t": timing(2.0, [2.0])})
        result = compare_profiles(base, cur)
        assert not result.ok
        assert "band only" in result.verdicts[0].note

    def test_timing_improvement_reported(self):
        base = make_profile({"t": timing(2.0, [1.9, 2.0, 2.1])})
        cur = make_profile({"t": timing(1.0, [0.9, 1.0, 1.1])})
        result = compare_profiles(base, cur)
        assert result.ok
        assert result.verdicts[0].status == IMPROVED

    def test_higher_is_better_direction(self):
        base = make_profile(
            {"rate": timing(100.0, [99.0, 100.0, 101.0],
                            direction="higher")}
        )
        cur = make_profile(
            {"rate": timing(40.0, [39.0, 40.0, 41.0], direction="higher")}
        )
        result = compare_profiles(base, cur)
        assert not result.ok
        assert result.verdicts[0].status == DEGRADED

    def test_fidelity_improvement_is_not_failure(self):
        base = make_profile({"mean_jct": fidelity(100.0)})
        cur = make_profile({"mean_jct": fidelity(80.0)})
        result = compare_profiles(base, cur)
        assert result.ok
        assert result.verdicts[0].status == IMPROVED

    def test_fidelity_regression_fails_without_rank_test(self):
        base = make_profile({"mean_jct": fidelity(100.0)})
        cur = make_profile({"mean_jct": fidelity(110.0)})
        result = compare_profiles(base, cur)
        assert not result.ok
        assert result.verdicts[0].status == DEGRADED

    def test_exact_metric_drift_fails_in_both_directions(self):
        base = make_profile(
            {"placements": fidelity(100.0, direction="exact")}
        )
        for drifted in (50.0, 200.0):
            cur = make_profile(
                {"placements": fidelity(drifted, direction="exact")}
            )
            result = compare_profiles(base, cur)
            assert not result.ok
            assert result.verdicts[0].status == DEGRADED

    def test_missing_and_new_metrics(self):
        base = make_profile({"gone": timing(1.0), "kept": fidelity(1.0)})
        cur = make_profile({"kept": fidelity(1.0), "added": timing(1.0)})
        result = compare_profiles(base, cur)
        statuses = {v.name: v.status for v in result.verdicts}
        assert statuses == {
            "gone": MISSING, "kept": STABLE, "added": NEW,
        }
        assert not result.ok  # a vanished metric is a failure

    def test_config_fingerprint_mismatch_refuses_comparison(self):
        base = make_profile({"t": timing(1.0)}, fingerprint="fpA")
        cur = make_profile({"t": timing(1.0)}, fingerprint="fpB")
        result = compare_profiles(base, cur)
        assert result.config_mismatch
        assert not result.ok
        assert result.verdicts == []
        assert any("fingerprint" in n for n in result.notes)

    def test_scenario_mismatch_refuses_comparison(self):
        base = make_profile({"t": timing(1.0)}, scenario="a")
        cur = make_profile({"t": timing(1.0)}, scenario="b")
        assert compare_profiles(base, cur).config_mismatch

    def test_calibration_rescales_cross_host_timings(self):
        """A 2x slower current host doubles its timings; after
        calibration rescaling that is NOT a degradation."""
        base = make_profile(
            {"t": timing(1.0, [0.9, 1.0, 1.1])}, calibration=0.01
        )
        cur = make_profile(
            {"t": timing(2.0, [1.8, 2.0, 2.2])}, calibration=0.02
        )
        result = compare_profiles(base, cur)
        assert result.ok, result.render()
        assert any("rescaled" in n for n in result.notes)
        # fidelity metrics must NOT be rescaled by host speed
        base_f = make_profile({"f": fidelity(100.0)}, calibration=0.01)
        cur_f = make_profile({"f": fidelity(150.0)}, calibration=0.02)
        assert not compare_profiles(base_f, cur_f).ok

    def test_phase_attribution_names_the_slow_phase(self):
        base = make_profile({
            "round_ms": timing(10.0, [9.0, 10.0, 11.0]),
            "phase:packing:mean_ms": timing(8.0, [7.0, 8.0, 9.0]),
            "phase:sorting:mean_ms": timing(2.0, [1.9, 2.0, 2.1]),
        })
        cur = make_profile({
            "round_ms": timing(20.0, [19.0, 20.0, 21.0]),
            "phase:packing:mean_ms": timing(18.0, [17.0, 18.0, 19.0]),
            "phase:sorting:mean_ms": timing(2.0, [1.9, 2.0, 2.1]),
        })
        result = compare_profiles(base, cur)
        assert not result.ok
        attribution = result.attribution()
        assert [v.phase_label for v in attribution] == ["packing"]
        assert "packing" in result.render()

    def test_injected_2x_slowdown_on_real_profile(self):
        """The acceptance bar: doubling the packing-phase timings of a
        real captured profile must trip the detector; the untouched
        profile must not."""
        base = capture(TINY_PACKING, repeats=3)
        clean = copy.deepcopy(base)
        assert compare_profiles(base, clean).ok
        slowed = copy.deepcopy(base)
        for record in slowed["metrics"].values():
            if record["kind"] == "timing" and record["direction"] == "lower":
                record["value"] *= 2.0
                record["samples"] = [s * 2.0 for s in record["samples"]]
        result = compare_profiles(base, slowed)
        assert not result.ok
        degraded = {v.name for v in result.degraded}
        assert "round_ms" in degraded
        assert [v.phase_label for v in result.attribution()] == \
            ["tetris.schedule"]


class TestTrajectoryReport:
    def _stores(self, tmp_path):
        early = make_profile({"mean_jct": fidelity(120.0),
                              "wall_seconds": timing(2.0)})
        early["created_unix"] = 1_000.0
        late = make_profile({"mean_jct": fidelity(100.0),
                             "wall_seconds": timing(1.5)})
        late["created_unix"] = 2_000.0
        other = make_profile({"round_ms": timing(25.0)}, scenario="pack")
        other["created_unix"] = 1_500.0
        a, b = tmp_path / "a", tmp_path / "b"
        save_profile(early, a)
        save_profile(other, a)
        save_profile(late, b)
        return a, b

    def test_collect_orders_by_scenario_then_time(self, tmp_path):
        a, b = self._stores(tmp_path)
        profiles = collect_profiles([a, b, tmp_path / "missing"])
        keys = [(p["scenario"], p["created_unix"]) for p in profiles]
        assert keys == [("pack", 1_500.0), ("synthetic", 1_000.0),
                        ("synthetic", 2_000.0)]

    def test_terminal_rendering(self, tmp_path):
        profiles = collect_profiles(self._stores(tmp_path))
        text = render_trajectory(profiles)
        assert "mean JCT (s)" in text
        assert "120.00" in text and "100.00" in text
        assert "25.00" in text
        # dirty-tree captures are marked
        assert "deadbeef" in text

    def test_markdown_rendering(self, tmp_path):
        profiles = collect_profiles(self._stores(tmp_path))
        text = render_trajectory(profiles, fmt="md")
        lines = text.splitlines()
        assert lines[0].startswith("| scenario |")
        assert lines[1].startswith("|---")
        assert all(line.endswith("|") for line in lines)

    def test_empty_rendering(self):
        assert render_trajectory([]) == "no profiles found"


class TestHarnessBenchHooks:
    def test_run_trace_reports_wall_and_placements(self):
        from repro.experiments.harness import ExperimentConfig, run_trace
        from repro.obs import Registry
        from repro.profiling import Profiler
        from repro.schedulers.tetris import TetrisScheduler
        from repro.workload.tracegen import (
            WorkloadSuiteConfig,
            generate_workload_suite,
        )

        trace = generate_workload_suite(
            WorkloadSuiteConfig(num_jobs=3, task_scale=0.02,
                                arrival_horizon=50, seed=2)
        )
        profiler, registry = Profiler(), Registry()
        result = run_trace(
            trace,
            TetrisScheduler(),
            ExperimentConfig(num_machines=4, seed=2),
            profiler=profiler,
            metrics=registry,
        )
        assert result.wall_seconds > 0
        assert result.num_placements > 0
        assert result.placements_per_sec > 0
        assert "tetris.schedule" in profiler.labels()
        assert registry.snapshot()["repro_engine_rounds_total"]["values"][""] > 0


class TestParallelCapture:
    """Capture through the process pool: identical fidelity, stamped meta."""

    def test_trace_capture_workers_parity(self):
        serial = capture("smoke", repeats=2)
        parallel = capture("smoke", repeats=2, workers=2)
        assert serial["meta"]["execution"] == {
            "backend": "serial", "workers": 1,
        }
        assert parallel["meta"]["execution"] == {
            "backend": "process", "workers": 2,
        }
        # fidelity samples are bit-identical across backends; wall-clock
        # timing metrics legitimately differ
        for name, record in serial["metrics"].items():
            if record["kind"] != "fidelity":
                continue
            assert parallel["metrics"][name]["samples"] == \
                record["samples"], name
        # phase detail and merged pools come back across the boundary
        assert "tetris.schedule" in parallel["phases"]
        assert parallel["phases_merged"]["tetris.schedule"]["count"] == \
            2 * parallel["phases"]["tetris.schedule"]["count"]
        assert "repro_engine_rounds_total" in parallel["registry"]

    def test_packing_capture_workers(self):
        p = capture(TINY_PACKING, repeats=2, workers=2)
        assert p["meta"]["execution"]["backend"] == "process"
        assert len(p["metrics"]["round_ms"]["samples"]) == \
            2 * TINY_PACKING.rounds
        assert p["metrics"]["placements_per_round"]["value"] > 0


class TestLegacyCalibration:
    """Baselines captured before the host-calibration stamp existed."""

    def _legacy(self, metrics):
        """A hand-rolled pre-calibration profile: no
        ``calibration_seconds`` in meta at all."""
        profile = make_profile(metrics)
        del profile["meta"]["calibration_seconds"]
        return profile

    def test_missing_baseline_calibration_warns_not_raises(self):
        base = self._legacy({"t": timing(1.0, [0.9, 1.0, 1.1])})
        cur = make_profile({"t": timing(1.0, [0.9, 1.0, 1.1])})
        with pytest.warns(RuntimeWarning, match="predates"):
            result = compare_profiles(base, cur)
        assert result.ok, result.render()
        assert any("rescaling skipped" in n for n in result.notes)

    def test_skipped_rescaling_means_raw_comparison(self):
        """Without a calibration constant the timings compare raw: a
        genuine 2x slowdown still trips the detector."""
        base = self._legacy({"t": timing(1.0, [0.9, 1.0, 1.1])})
        cur = make_profile({"t": timing(2.0, [1.8, 2.0, 2.2])})
        with pytest.warns(RuntimeWarning):
            result = compare_profiles(base, cur)
        assert not result.ok
        assert [v.name for v in result.degraded] == ["t"]

    def test_current_side_missing_calibration_also_degrades(self):
        base = make_profile({"t": timing(1.0, [0.9, 1.0, 1.1])})
        cur = self._legacy({"t": timing(1.0, [0.9, 1.0, 1.1])})
        with pytest.warns(RuntimeWarning, match="current"):
            result = compare_profiles(base, cur)
        assert result.ok
        assert any("skipped" in n for n in result.notes)

    def test_nonpositive_calibration_treated_as_legacy(self):
        base = make_profile({"t": timing(1.0, [1.0])}, calibration=0.0)
        cur = make_profile({"t": timing(1.0, [1.0])})
        with pytest.warns(RuntimeWarning):
            result = compare_profiles(base, cur)
        assert result.ok
