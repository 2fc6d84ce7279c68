"""CLI tests."""

import json
import shutil

import pytest

from repro.cli import SCHEDULERS, build_parser, main


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    rc = main([
        "generate", "--kind", "suite", "--jobs", "6",
        "--task-scale", "0.02", "--horizon", "100",
        "-o", str(path),
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_valid_json(self, trace_file):
        payload = json.loads(trace_file.read_text())
        assert len(payload) == 6
        assert payload[0]["stages"]

    def test_facebook_kind(self, tmp_path):
        path = tmp_path / "fb.json"
        rc = main([
            "generate", "--kind", "facebook", "--jobs", "5",
            "--horizon", "100", "-o", str(path),
        ])
        assert rc == 0
        assert len(json.loads(path.read_text())) == 5


class TestRun:
    def test_run_tetris(self, trace_file, capsys):
        rc = main([
            "run", str(trace_file), "--scheduler", "tetris",
            "--machines", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean JCT" in out and "makespan" in out

    def test_run_with_audit(self, trace_file, capsys):
        rc = main([
            "run", str(trace_file), "--scheduler", "tetris",
            "--machines", "8", "--audit",
        ])
        assert rc == 0
        assert "audit" in capsys.readouterr().out

    def test_run_with_knobs(self, trace_file, capsys):
        rc = main([
            "run", str(trace_file), "--scheduler", "tetris",
            "--machines", "8", "--fairness-knob", "0.5",
        ])
        assert rc == 0

    def test_unknown_scheduler_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            main([
                "run", str(trace_file), "--scheduler", "magic",
            ])


class TestCompare:
    def test_compare_prints_improvements(self, trace_file, capsys):
        rc = main([
            "compare", str(trace_file), "--machines", "8",
            "--schedulers", "tetris,slot-fair",
            "--baseline", "slot-fair",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "improvement over slot-fair" in out
        assert "tetris" in out


class TestSweep:
    def test_fairness_sweep(self, trace_file, capsys):
        rc = main([
            "sweep", str(trace_file), "--machines", "8",
            "--knob", "fairness", "--values", "0,0.5",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows


class TestTrace:
    @pytest.fixture
    def obs_dir(self, trace_file, tmp_path):
        out = tmp_path / "obs"
        rc = main([
            "trace", str(trace_file), "--machines", "4",
            "-o", str(out),
        ])
        assert rc == 0
        return out

    def test_writes_all_three_artifacts(self, obs_dir):
        assert (obs_dir / "decisions.jsonl").exists()
        assert (obs_dir / "timeline.json").exists()
        assert (obs_dir / "metrics.prom").exists()

    def test_decision_log_validates(self, obs_dir):
        from repro.obs import validate_jsonl

        valid, errors = validate_jsonl(obs_dir / "decisions.jsonl")
        assert errors == []
        assert valid > 0

    def test_timeline_is_perfetto_loadable_shape(self, obs_dir):
        payload = json.loads((obs_dir / "timeline.json").read_text())
        events = payload["traceEvents"]
        assert payload["otherData"]["scheduler"] == "tetris"
        phases = {e["ph"] for e in events}
        # metadata, task slices, round instants, counters
        assert {"M", "X", "i", "C"} <= phases
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0

    def test_metrics_exposition_format(self, obs_dir):
        text = (obs_dir / "metrics.prom").read_text()
        assert "# TYPE repro_engine_rounds_total counter" in text
        assert "# TYPE repro_engine_round_placements histogram" in text
        assert "repro_tetris_pack_cache_total" in text

    def test_phase_stats_ride_along(self, obs_dir):
        labels = [
            json.loads(line)["label"]
            for line in (obs_dir / "decisions.jsonl").read_text().splitlines()
            if json.loads(line)["type"] == "phase_stats"
        ]
        assert "engine.scheduler_round" in labels
        assert "tetris.schedule" in labels

    def test_trace_with_baseline_scheduler(self, trace_file, tmp_path):
        out = tmp_path / "obs-drf"
        rc = main([
            "trace", str(trace_file), "--machines", "4",
            "--scheduler", "drf", "-o", str(out),
        ])
        assert rc == 0
        types = {
            json.loads(line)["type"]
            for line in (out / "decisions.jsonl").read_text().splitlines()
        }
        # baselines still get a usable trace from the engine hooks
        assert {"round", "task_start"} <= types


class TestInspect:
    def test_summarizes_valid_log(self, trace_file, tmp_path, capsys):
        out = tmp_path / "obs"
        main(["trace", str(trace_file), "--machines", "4", "-o", str(out)])
        capsys.readouterr()
        rc = main(["inspect", str(out / "decisions.jsonl"), "--strict"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "placements:" in text
        assert "by type:" in text

    def test_metrics_section_reports_machine_visits(
        self, trace_file, tmp_path, capsys
    ):
        out = tmp_path / "obs"
        main(["trace", str(trace_file), "--machines", "4", "-o", str(out)])
        assert "repro_tetris_machine_visits_total" in (
            out / "metrics.prom"
        ).read_text()
        capsys.readouterr()
        rc = main([
            "inspect", str(out / "decisions.jsonl"),
            "--metrics", str(out / "metrics.prom"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "cache effectiveness:" in text
        assert "machine visits:" in text and "productive" in text

    def test_strict_fails_on_invalid_events(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text(
            '{"type":"round","time":0.0,"machines":1,"placements":0,'
            '"queue_depth":0}\n'
            '{"type":"nonsense","time":0.0}\n'
        )
        assert main(["inspect", str(log)]) == 0  # non-strict tolerates
        capsys.readouterr()
        assert main(["inspect", str(log), "--strict"]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestJsonOutputs:
    def test_run_json_summary(self, trace_file, tmp_path):
        out = tmp_path / "run.json"
        rc = main([
            "run", str(trace_file), "--scheduler", "tetris",
            "--machines", "8", "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["scheduler"] == "tetris"
        assert payload["summary"]["jobs"] == 6
        assert payload["summary"]["mean_jct"] > 0
        assert payload["wall_seconds"] > 0
        assert payload["placements"] > 0

    def test_compare_json_summaries(self, trace_file, tmp_path):
        out = tmp_path / "cmp.json"
        rc = main([
            "compare", str(trace_file), "--machines", "8",
            "--schedulers", "tetris,slot-fair",
            "--baseline", "slot-fair", "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload["summaries"]) == {"tetris", "slot-fair"}
        assert "jct_percent" in payload["improvement_over_baseline"]["tetris"]


class TestBench:
    @pytest.fixture(scope="class")
    def profile_dirs(self, tmp_path_factory):
        """One capture of the smoke scenario, copied as the "fresh" side:
        two real captures would gate wall clock against wall clock."""
        root = tmp_path_factory.mktemp("bench")
        baseline, fresh = root / "baselines", root / "fresh"
        rc = main([
            "bench", "run", "--scenarios", "smoke",
            "--repeats", "2", "-o", str(baseline),
        ])
        assert rc == 0
        shutil.copytree(baseline, fresh)
        return baseline, fresh

    def test_run_writes_schema_valid_profile(self, profile_dirs):
        from repro.bench import load_profile

        baseline, _ = profile_dirs
        profile = load_profile(baseline / "BENCH_smoke.json")
        assert profile["scenario"] == "smoke"
        assert profile["meta"]["config_fingerprint"]
        assert "mean_jct" in profile["metrics"]

    def test_compare_clean_rerun_passes(self, profile_dirs, capsys):
        baseline, fresh = profile_dirs
        rc = main([
            "bench", "compare",
            "--baseline", str(baseline), "--current", str(fresh),
        ])
        assert rc == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_compare_detects_injected_slowdown(
        self, profile_dirs, tmp_path, capsys
    ):
        baseline, fresh = profile_dirs
        slowed_dir = tmp_path / "slowed"
        slowed_dir.mkdir()
        profile = json.loads((fresh / "BENCH_smoke.json").read_text())
        for record in profile["metrics"].values():
            if record["kind"] == "timing" and record["direction"] == "lower":
                record["value"] *= 2.5
                record["samples"] = [s * 2.5 for s in record["samples"]]
        (slowed_dir / "BENCH_smoke.json").write_text(json.dumps(profile))
        verdicts = tmp_path / "verdicts.json"
        rc = main([
            "bench", "compare",
            "--baseline", str(baseline), "--current", str(slowed_dir),
            "--json", str(verdicts),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        payload = json.loads(verdicts.read_text())
        assert payload["failed"] == ["smoke"]
        assert not payload["scenarios"]["smoke"]["ok"]

    def test_compare_missing_baseline_skips(self, profile_dirs, tmp_path,
                                            capsys):
        _, fresh = profile_dirs
        rc = main([
            "bench", "compare",
            "--baseline", str(tmp_path / "empty"), "--current", str(fresh),
        ])
        assert rc == 0
        assert "no baseline" in capsys.readouterr().out

    def test_compare_empty_current_fails(self, tmp_path, capsys):
        rc = main([
            "bench", "compare",
            "--baseline", str(tmp_path), "--current", str(tmp_path),
        ])
        assert rc == 1
        assert "no profiles" in capsys.readouterr().out

    def test_report_renders_trajectory(self, profile_dirs, capsys):
        baseline, fresh = profile_dirs
        rc = main([
            "bench", "report", "--dirs", f"{baseline},{fresh}",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "mean JCT (s)" in out

    def test_report_markdown_to_file(self, profile_dirs, tmp_path):
        baseline, fresh = profile_dirs
        out = tmp_path / "trajectory.md"
        rc = main([
            "bench", "report", "--dirs", f"{baseline},{fresh}",
            "--format", "md", "-o", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("| scenario |")

    def test_report_no_profiles_fails(self, tmp_path, capsys):
        rc = main(["bench", "report", "--dirs", str(tmp_path / "none")])
        assert rc == 1

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "bench", "run", "--scenarios", "bogus",
                "-o", str(tmp_path),
            ])


class TestParser:
    def test_all_registered_schedulers_constructible(self):
        for factory in SCHEDULERS.values():
            assert factory() is not None

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(
            ["generate", "-o", "x.json"]
        )
        assert args.command == "generate"

    def test_bench_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "run"])
        assert args.quick is True and args.repeats == 3
        args = parser.parse_args(["bench", "run", "--all"])
        assert args.quick is False
        args = parser.parse_args(["bench", "compare"])
        assert args.baseline == "benchmarks/baselines"

    def test_federation_stays_deleted(self, capsys):
        """Measured slower and removed: see docs/performance.md."""
        from repro.experiments import ExperimentConfig

        for command in (["run", "t.json"], ["serve"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--shards", "2"])
            assert "unrecognized arguments: --shards" in capsys.readouterr().err
        fields = ExperimentConfig.__dataclass_fields__
        assert not [name for name in fields if name.startswith("shard")]
        with pytest.raises(ModuleNotFoundError):
            import repro.federation  # noqa: F401

    def test_kernel_registry_stays_deleted(self, capsys, monkeypatch):
        """Never measured, one leg uninstallable, and removed: see
        docs/performance.md.  ``vectorized`` is the only switch."""
        from repro.schedulers.tetris import TetrisConfig, TetrisScheduler

        with pytest.raises(ModuleNotFoundError):
            import repro.kernels  # noqa: F401
        assert "backend" not in TetrisConfig.__dataclass_fields__
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "run", "--backend", "numpy"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert TetrisScheduler()._use_vectorized is True


class TestWorkers:
    def test_compare_parallel_json_matches_serial(self, trace_file, tmp_path):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        common = [
            "compare", str(trace_file), "--machines", "8",
            "--schedulers", "tetris,slot-fair,drf,fifo",
            "--baseline", "fifo",
        ]
        assert main(common + ["--json", str(serial_out)]) == 0
        assert main(
            common + ["--workers", "2", "--json", str(parallel_out)]
        ) == 0
        serial = json.loads(serial_out.read_text())
        parallel = json.loads(parallel_out.read_text())
        # simulation outputs are bit-identical; only the execution
        # stanza (backend name, wall clocks) may differ
        assert parallel["summaries"] == serial["summaries"]
        assert (parallel["improvement_over_baseline"]
                == serial["improvement_over_baseline"])
        assert serial["execution"]["backend"] == "serial"
        assert serial["execution"]["workers"] == 1
        assert parallel["execution"]["backend"] == "process"
        assert parallel["execution"]["workers"] == 2
        assert set(parallel["execution"]["runs"]) == set(
            serial["summaries"]
        )
        for row in parallel["execution"]["runs"].values():
            assert row["ok"] is True
            assert row["wall_seconds"] >= 0

    def test_run_json_records_execution(self, trace_file, tmp_path):
        out = tmp_path / "run.json"
        rc = main([
            "run", str(trace_file), "--scheduler", "tetris",
            "--machines", "8", "--workers", "2", "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        stanza = payload["execution"]
        assert stanza["backend"] == "process"
        assert stanza["workers"] == 2
        assert stanza["wall_seconds_total"] > 0

    def test_workers_env_var(self, trace_file, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        out = tmp_path / "run.json"
        rc = main([
            "run", str(trace_file), "--scheduler", "fifo",
            "--machines", "8", "--json", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["execution"]["workers"] == 2

    def test_sweep_with_workers(self, trace_file, capsys):
        rc = main([
            "sweep", str(trace_file), "--machines", "8",
            "--knob", "fairness", "--values", "0,0.5",
            "--workers", "2",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows


class TestBenchHistoryCLI:
    @pytest.fixture(scope="class")
    def history_dir(self, tmp_path_factory):
        """Two captures of the smoke scenario appended to one store."""
        root = tmp_path_factory.mktemp("bench-history")
        for _ in range(2):
            rc = main([
                "bench", "run", "--scenarios", "smoke", "--repeats", "2",
                "-o", str(root / "out"),
                "--history", str(root / "hist"),
                "--trajectory-dir", str(root),
            ])
            assert rc == 0
        return root

    def test_run_appends_history_entries(self, history_dir):
        from repro.bench import HistoryStore

        entries = HistoryStore(history_dir / "hist").entries("smoke")
        assert len(entries) == 2
        assert entries[0].recorded_unix <= entries[1].recorded_unix

    def test_run_writes_trajectory_artifact(self, history_dir):
        from repro.bench import TRAJECTORY_SCHEMA

        payload = json.loads(
            (history_dir / "BENCH_smoke.json").read_text()
        )
        assert payload["schema"] == TRAJECTORY_SCHEMA
        assert payload["entries_total"] == 2
        assert len(payload["points"]) == 2
        assert "wall_seconds" in payload["points"][0]["metrics"]

    def test_history_renders_trend(self, history_dir, capsys):
        rc = main([
            "bench", "history", "--scenario", "smoke",
            "--history", str(history_dir / "hist"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wall_seconds" in out
        assert "stamp" in out

    def test_history_unknown_scenario_fails(self, history_dir, capsys):
        rc = main([
            "bench", "history", "--scenario", "bogus",
            "--history", str(history_dir / "hist"),
        ])
        assert rc == 1
        assert "no history entries" in capsys.readouterr().out

    def test_diff_clean_pair_passes(self, history_dir, capsys):
        # an entry against itself: no wall clock gates another
        rc = main([
            "bench", "diff", "@0", "@0", "--scenario", "smoke",
            "--history", str(history_dir / "hist"),
        ])
        assert rc == 0
        assert "verdict" in capsys.readouterr().out

    def test_diff_bad_ref_fails(self, history_dir, capsys):
        rc = main([
            "bench", "diff", "@9", "@0", "--scenario", "smoke",
            "--history", str(history_dir / "hist"),
        ])
        assert rc == 1
        assert "out of range" in capsys.readouterr().out

    def test_diff_gates_planted_slowdown_unless_no_gate(
        self, history_dir, tmp_path, capsys
    ):
        from repro.bench import HistoryStore

        store = HistoryStore(history_dir / "hist")
        slowed = json.loads(json.dumps(store.latest("smoke").profile))
        for record in slowed["metrics"].values():
            if record["kind"] == "timing" and record["direction"] == "lower":
                record["value"] *= 3.0
                record["samples"] = [s * 3.0 for s in record["samples"]]
        gated_store = HistoryStore(tmp_path / "gated")
        gated_store.append(store.latest("smoke").profile)
        gated_store.append(slowed, recorded_unix=2_000_000_000.0)
        argv = [
            "bench", "diff", "@1", "@0", "--scenario", "smoke",
            "--history", str(tmp_path / "gated"),
        ]
        assert main(argv) == 1
        assert "attribution" in capsys.readouterr().out
        assert main(argv + ["--no-gate"]) == 0

    def test_inspect_profile_phase_table(self, history_dir, capsys):
        rc = main([
            "inspect", "--profile",
            str(history_dir / "out" / "BENCH_smoke.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tetris.schedule" in out
        assert "self ms" in out

    def test_inspect_profile_reads_history_entry(self, history_dir,
                                                 capsys):
        from repro.bench import HistoryStore

        entry = HistoryStore(history_dir / "hist").latest("smoke")
        rc = main(["inspect", "--profile", str(entry.path)])
        assert rc == 0
        assert "engine.scheduler_round" in capsys.readouterr().out

    def test_inspect_requires_log_or_profile(self, capsys):
        rc = main(["inspect"])
        assert rc == 2
        assert "--profile" in capsys.readouterr().out
