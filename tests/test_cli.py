"""CLI tests."""

import json
from pathlib import Path

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

    def test_audit_checks_the_reported_schedule(
        self, trace_file, tmp_path, capsys, monkeypatch
    ):
        """``--audit`` audits the run it reports: one simulation, whose
        jobs are the ones audited, and — the tracker being on — no
        booked-capacity sweep (eq. 1 holds only without the tracker)."""
        from repro.analysis import model
        from repro.sim.engine import Engine

        runs, audited, capacity_sweeps = [], [], []
        engine_run, check_execution = Engine.run, model._check_execution

        def counted_run(engine):
            runs.append(engine)
            return engine_run(engine)

        def recorded_execution(jobs, report):
            audited.append(jobs)
            check_execution(jobs, report)

        monkeypatch.setattr(Engine, "run", counted_run)
        monkeypatch.setattr(model, "_check_execution", recorded_execution)
        monkeypatch.setattr(
            model, "_check_capacity",
            lambda *args: capacity_sweeps.append(args),
        )
        out = tmp_path / "run.json"
        rc = main([
            "run", str(trace_file), "--machines", "8", "--audit",
            "--json", str(out),
        ])
        assert rc == 0
        assert "satisfies all Section 3.1" in capsys.readouterr().out
        assert len(runs) == 1
        assert audited == [runs[0].jobs]
        assert capacity_sweeps == []
        summary = json.loads(out.read_text())["summary"]
        jcts = [job.completion_time for job in audited[0]]
        assert summary["mean_jct"] == pytest.approx(sum(jcts) / len(jcts))

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

    @pytest.mark.parametrize(
        "command", ["run", "compare", "sweep", "trace", "serve"]
    )
    def test_malformed_trace_rejected(
        self, trace_file, tmp_path, capsys, command
    ):
        """A negative demand and a duplicated job name both stop the
        command before any simulation, each issue named."""
        payload = json.loads(trace_file.read_text())
        payload[0]["stages"][0]["cpu"] = -3.0
        payload[1]["name"] = payload[0]["name"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        argv = [command, str(bad), "--machines", "4"]
        if command == "trace":
            argv += ["-o", str(tmp_path / "obs")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert "negative cpu" in message
        assert f"duplicate job name {payload[0]['name']!r}" in message
        assert "mean JCT" not in capsys.readouterr().out


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
        assert "# TYPE repro_tetris_machine_visits_total counter" in text

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

    def test_inspect_profile_phase_table(self, tmp_path, capsys):
        # a saved /debug/profile response from `repro serve --listen`
        profile = tmp_path / "serve-profile.json"
        profile.write_text(json.dumps({
            "enabled": True,
            "phase": "done",
            "window_seconds": 60.0,
            "phases": {
                "engine.scheduler_round": {
                    "count": 40, "total_seconds": 0.5,
                    "self_seconds": 0.1, "mean_ms": 12.5,
                },
                "tetris.schedule": {
                    "count": 40, "total_seconds": 0.4,
                    "self_seconds": 0.4, "mean_ms": 10.0,
                    "window": {"seconds": 30.0, "rate_per_sec": 1.33,
                               "busy_fraction": 0.013},
                },
            },
        }))
        rc = main(["inspect", "--profile", str(profile)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tetris.schedule" in out
        assert "self ms" in out
        assert "busy 1.3%" in out

    def test_inspect_requires_log_or_profile(self, capsys):
        rc = main(["inspect"])
        assert rc == 2
        assert "--profile" in capsys.readouterr().out


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
        assert "fidelity" not in payload


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

    def test_federation_stays_deleted(self, capsys):
        """Measured slower and removed: see docs/measurements/PR-16.md."""
        from repro.experiments import ExperimentConfig

        for command in (["run", "t.json"], ["serve", "t.json"]):
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
            build_parser().parse_args(["run", "t.json", "--backend", "numpy"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert TetrisScheduler()._use_vectorized is True

    def test_bench_plane_stays_deleted(self, capsys):
        """A second benchmark with stale baselines, removed: the
        ``BENCHMARK.json`` command is the one performance measure (see
        docs/benchmarking.md)."""
        from repro.exec import RunSpec
        from repro.obs import Registry

        with pytest.raises(ModuleNotFoundError):
            import repro.bench  # noqa: F401
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "run"])
        assert "invalid choice" in capsys.readouterr().err
        assert "collect_profile" not in RunSpec.__dataclass_fields__
        assert not hasattr(Registry, "merge")
        root = Path(__file__).resolve().parents[1]
        assert not (root / "benchmarks" / "baselines").exists()
        assert not (root / ".bench-history").exists()


    def test_unrun_options_stay_deleted(self, capsys):
        """Options no entry point passed, removed: ``compare
        --fidelity`` and the serve daemon's generator mode (``repro
        generate`` writes the traces ``serve`` replays)."""
        for argv, flag in (
            (["compare", "t.json", "--fidelity"], "--fidelity"),
            (["serve", "t.json", "--jobs", "5"], "--jobs"),
            (["serve", "t.json", "--tasks-per-job", "5"], "--tasks-per-job"),
            (["serve", "t.json", "--interarrival", "1"], "--interarrival"),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        assert "required: trace" in capsys.readouterr().err

    def test_option_table_is_pinned(self):
        """Every subcommand's option strings and defaults, as they were
        before the shared groups (trace/cluster, workers, scheduler and
        knobs) were each declared once."""
        action = next(
            a for a in build_parser()._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        table = {
            name: {
                " ".join(a.option_strings) or a.dest: a.default
                for a in subparser._actions
                if a.__class__.__name__ != "_HelpAction"
            }
            for name, subparser in action.choices.items()
        }
        assert table == PARSER_TABLE


#: ``repro <command>`` options -> default
_CLUSTER = {
    "trace": None, "--machines": 20, "--seed": 0, "--no-tracker": False,
}
_KNOBS = {
    "--scheduler": "tetris", "--fairness-knob": None, "--barrier-knob": None,
}
PARSER_TABLE = {
    "generate": {
        "--kind": "suite", "--jobs": 40, "--task-scale": 0.05,
        "--horizon": 1000.0, "--seed": 0, "-o --output": None,
    },
    "run": {
        **_CLUSTER, "--workers": None, **_KNOBS, "--audit": False,
        "--json": None,
    },
    "compare": {
        **_CLUSTER, "--workers": None, "--schedulers": "tetris,slot-fair,drf",
        "--baseline": "slot-fair", "--json": None,
    },
    "sweep": {
        **_CLUSTER, "--workers": None, "--knob": "fairness",
        "--values": "0,0.25,0.5,0.75",
    },
    "trace": {
        **_CLUSTER, **_KNOBS, "-o --output": "obs", "--max-events": 200000,
    },
    "inspect": {
        "log": None, "--profile": None, "--strict": False, "--metrics": None,
    },
    "explain": {
        "log": None, "--task": None, "--window": None, "--limit": 10,
        "--json": False,
    },
    "serve": {
        **_CLUSTER, **_KNOBS, "--rate": None, "--burst": 8.0,
        "--queue-cap": 1024, "--policy": "reject", "--speedup": 0.0,
        "--duration": None, "--batch-cap": 64, "--json": None,
        "--listen": None, "--window": 60.0, "--trace-ring": 0,
    },
    "figures": {"-o --output": "figures", "--full": False},
    "report": {"-o --output": "report.md", "--full": False, "--seed": 1},
}


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
        """``--workers`` is the one setting of the worker count: the
        environment does not change it."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        out = tmp_path / "run.json"
        rc = main([
            "run", str(trace_file), "--scheduler", "fifo",
            "--machines", "8", "--json", str(out),
        ])
        assert rc == 0
        execution = json.loads(out.read_text())["execution"]
        assert (execution["backend"], execution["workers"]) == ("serial", 1)

    def test_sweep_with_workers(self, trace_file, capsys):
        rc = main([
            "sweep", str(trace_file), "--machines", "8",
            "--knob", "fairness", "--values", "0,0.5",
            "--workers", "2",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
