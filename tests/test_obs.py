"""The observability subsystem: registry, decision trace, timeline export.

Covers:

- the Prometheus-style registry: counter/gauge/histogram semantics,
  labels, idempotent re-registration, and the text exposition format;
- the decision trace: ring-buffer bounds, JSONL streaming, schema
  validation, and the log summarizer;
- the Chrome trace-event (Perfetto) export: lane packing and the event
  shapes Perfetto requires;
- end-to-end wiring: a traced engine run emits the documented event
  types, metrics move, and the estimator/tracker instruments fire.
"""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import ProfilingEstimator
from repro.estimation.tracker import ResourceTracker
from repro.obs import (
    Counter,
    DecisionTrace,
    Gauge,
    Histogram,
    Registry,
    RollingWindow,
    chrome_trace_events,
    parse_exposition,
    summarize_decision_log,
    validate_event,
    validate_jsonl,
    write_chrome_trace,
)
from repro.obs.timeline import _assign_lanes
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine, EngineConfig
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite


def _workload(num_jobs=6, seed=11, horizon=100.0):
    return generate_workload_suite(
        WorkloadSuiteConfig(
            num_jobs=num_jobs,
            task_scale=0.02,
            arrival_horizon=horizon,
            seed=seed,
        )
    )


def _traced_run(
    scheduler=None, num_machines=4, seed=0, trace_seed=11, **engine_kwargs
):
    trace = _workload(seed=trace_seed)
    cluster = Cluster(num_machines, seed=seed)
    jobs = materialize_trace(trace, cluster, seed=seed)
    sink = DecisionTrace(max_events=500_000)
    registry = Registry()
    engine = Engine(
        cluster,
        scheduler if scheduler is not None else TetrisScheduler(),
        jobs,
        decision_trace=sink,
        metrics=registry,
        config=EngineConfig(seed=seed),
        **engine_kwargs,
    )
    engine.run()
    return engine, sink, registry


# -- the registry ---------------------------------------------------------------
class TestRegistry:
    def test_counter_monotonic(self):
        reg = Registry()
        c = reg.counter("x_total", "doc")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_and_down(self):
        reg = Registry()
        g = reg.gauge("depth", "doc")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert g.value == 8

    def test_histogram_buckets_and_sum(self):
        h = Histogram(buckets=(1.0, 5.0))
        for v in (0.5, 2.0, 100.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 102.5
        assert h.cumulative_counts() == [1, 2, 3]  # le=1, le=5, le=+Inf

    def test_labels_create_children(self):
        reg = Registry()
        fam = reg.counter("hits_total", "doc", labelnames=("scope",))
        fam.labels(scope="a").inc()
        fam.labels(scope="a").inc()
        fam.labels(scope="b").inc()
        assert fam.labels(scope="a").value == 2
        assert fam.labels(scope="b").value == 1

    def test_wrong_labels_rejected(self):
        reg = Registry()
        fam = reg.counter("hits_total", "doc", labelnames=("scope",))
        with pytest.raises(ValueError):
            fam.labels(other="x")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no implicit child

    def test_reregistration_idempotent_same_type(self):
        reg = Registry()
        a = reg.counter("x_total", "doc")
        b = reg.counter("x_total", "doc")
        assert a is b
        with pytest.raises(ValueError):
            reg.gauge("x_total", "doc")

    def test_invalid_names_rejected(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.counter("0bad", "doc")
        with pytest.raises(ValueError):
            reg.counter("ok_total", "doc", labelnames=("bad-label",))

    def test_render_exposition_format(self):
        reg = Registry()
        reg.counter("a_total", "counts things").inc(2)
        reg.gauge("b").set(1.5)
        fam = reg.counter("c_total", "labeled", labelnames=("kind",))
        fam.labels(kind="x").inc()
        reg.histogram("d", "hist", buckets=(1.0,)).observe(0.5)
        text = reg.render()
        assert "# HELP a_total counts things" in text
        assert "# TYPE a_total counter" in text
        assert "a_total 2" in text
        assert "b 1.5" in text
        assert 'c_total{kind="x"} 1' in text
        assert 'd_bucket{le="1"} 1' in text
        assert 'd_bucket{le="+Inf"} 1' in text
        assert "d_sum 0.5" in text
        assert "d_count 1" in text
        assert text.endswith("\n")

    def test_empty_render(self):
        assert Registry().render() == ""

    def test_reexported_from_metrics_package(self):
        from repro.metrics import (
            Counter as C,
            Gauge as G,
            Histogram as H,
            Registry as R,
        )

        assert (C, G, H, R) == (Counter, Gauge, Histogram, Registry)


class TestHistogramQuantile:
    def test_linear_interpolation_within_bucket(self):
        h = Histogram(buckets=(10.0, 20.0))
        for v in (1.0, 2.0, 3.0, 4.0):  # all land in (0, 10]
            h.observe(v)
        # rank 2 of 4 → half-way through the only occupied bucket
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_interpolates_across_buckets(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        # p75 → rank 3 = upper edge of the (1, 2] bucket
        assert h.quantile(0.75) == pytest.approx(2.0)
        # p100 lands in (2, 4]
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_overflow_bucket_clamps_to_last_finite_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.5) == pytest.approx(1.0)

    def test_empty_is_nan(self):
        import math

        assert math.isnan(Histogram(buckets=(1.0,)).quantile(0.5))

    def test_out_of_range_rejected(self):
        h = Histogram(buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_as_dict_shape(self):
        h = Histogram(buckets=(1.0, 5.0))
        for v in (0.5, 2.0, 100.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["sum"] == pytest.approx(102.5)
        assert d["buckets"] == {"1": 1, "5": 2, "+Inf": 3}
        assert 0.0 < d["p50"] <= 5.0

    def test_empty_as_dict_has_null_quantiles(self):
        d = Histogram(buckets=(1.0,)).as_dict()
        assert d["p50"] is None and d["p99"] is None
        json.dumps(d)  # strict-JSON serializable


class TestRegistrySnapshot:
    def test_snapshot_plain_dict(self):
        reg = Registry()
        reg.counter("a_total", "counts").inc(2)
        reg.gauge("depth").set(1.5)
        fam = reg.counter("c_total", "labeled", labelnames=("kind",))
        fam.labels(kind="x").inc()
        fam.labels(kind="y").inc(3)
        reg.histogram("lat", "latency", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["a_total"] == {
            "type": "counter", "help": "counts", "values": {"": 2.0},
        }
        assert snap["depth"]["values"][""] == 1.5
        assert snap["c_total"]["values"] == {"kind=x": 1.0, "kind=y": 3.0}
        assert snap["lat"]["values"][""]["count"] == 1
        assert snap["lat"]["values"][""]["buckets"]["+Inf"] == 1

    def test_snapshot_is_json_serializable(self):
        reg = Registry()
        reg.counter("a_total").inc()
        reg.histogram("h", buckets=(0.1, 1.0)).observe(0.05)
        json.dumps(reg.snapshot(), allow_nan=False)

    def test_empty_snapshot(self):
        assert Registry().snapshot() == {}


class TestParseExposition:
    def test_round_trips_rendered_registry(self):
        """render() output parses back to the same values, with label
        keys in the snapshot() shape."""
        reg = Registry()
        reg.counter("a_total", "counts").inc(2)
        reg.gauge("depth", "queue depth").set(1.5)
        fam = reg.counter("c_total", "labeled", labelnames=("kind",))
        fam.labels(kind="x").inc()
        fam.labels(kind="y").inc(3)
        parsed = parse_exposition(reg.render())
        assert parsed["a_total"] == {"": 2.0}
        assert parsed["depth"] == {"": 1.5}
        assert parsed["c_total"] == {"kind=x": 1.0, "kind=y": 3.0}

    def test_histogram_series_surface_as_samples(self):
        reg = Registry()
        reg.histogram("lat", "latency", buckets=(1.0,)).observe(0.5)
        parsed = parse_exposition(reg.render())
        assert parsed["lat_bucket"]["le=1"] == 1.0
        assert parsed["lat_bucket"]["le=+Inf"] == 1.0
        assert parsed["lat_count"][""] == 1.0
        assert parsed["lat_sum"][""] == 0.5

    def test_empty_and_comment_lines_ignored(self):
        assert parse_exposition("") == {}
        assert parse_exposition("# HELP x y\n# TYPE x counter\n") == {}

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_exposition("!!not a metric!!")


class TestLabelEscaping:
    """Prometheus exposition escaping: label values may contain any
    byte; ``\\``, ``\"`` and newlines must be escaped on render and
    restored on parse."""

    @pytest.mark.parametrize(
        "value",
        [
            'quoted "value"',
            "back\\slash",
            "multi\nline",
            'all \\ of "them"\ntogether',
            "braces } and { and = and ,",
        ],
    )
    def test_label_value_round_trips(self, value):
        reg = Registry()
        fam = reg.counter("esc_total", "doc", labelnames=("job",))
        fam.labels(job=value).inc(3)
        parsed = parse_exposition(reg.render())
        assert parsed["esc_total"] == {f"job={value}": 3.0}

    def test_rendered_line_is_single_line(self):
        # a newline in a label value must not split the sample line
        reg = Registry()
        reg.counter("nl_total", "doc", labelnames=("j",)).labels(
            j="a\nb"
        ).inc()
        sample_lines = [
            line
            for line in reg.render().splitlines()
            if not line.startswith("#") and line
        ]
        assert sample_lines == ['nl_total{j="a\\nb"} 1']

    def test_help_text_newlines_escaped(self):
        reg = Registry()
        reg.counter("h_total", "first\nsecond \\ slash")
        rendered = reg.render()
        assert "# HELP h_total first\\nsecond \\\\ slash" in rendered
        # still parseable
        assert parse_exposition(rendered)["h_total"] == {"": 0.0}

    def test_closing_brace_inside_label_value(self):
        # the sample regex must not stop at the first '}' it sees
        reg = Registry()
        reg.gauge("g", "doc", labelnames=("expr",)).labels(
            expr='x{y="z"}'
        ).set(2.5)
        parsed = parse_exposition(reg.render())
        assert parsed["g"] == {'expr=x{y="z"}': 2.5}


class TestRollingWindow:
    def test_rate_over_partial_window(self):
        win = RollingWindow(window=60.0)
        win.add(0.0, 10.0)
        win.add(10.0, 20.0)
        # only 10s have elapsed: divide by the observed span, not 60
        assert win.rate(10.0) == pytest.approx(3.0)

    def test_old_samples_age_out(self):
        win = RollingWindow(window=5.0)
        win.add(0.0, 1.0)
        win.add(1.0, 1.0)
        win.add(10.0, 1.0)
        assert win.count(10.0) == 1
        assert win.total(10.0) == 1.0

    def test_quantiles_are_exact_on_retained_values(self):
        win = RollingWindow(window=100.0)
        for i, v in enumerate([5.0, 1.0, 3.0, 2.0, 4.0]):
            win.add(float(i), v)
        assert win.quantile(0.0, 4.0) == 1.0
        assert win.quantile(0.5, 4.0) == 3.0
        assert win.quantile(1.0, 4.0) == 5.0

    def test_empty_quantile_is_nan(self):
        import math

        win = RollingWindow(window=5.0)
        assert math.isnan(win.quantile(0.5, 0.0))
        win.add(0.0, 1.0)
        # once the only sample ages out the window is empty again
        assert math.isnan(win.quantile(0.5, 100.0))

    def test_max_samples_caps_memory(self):
        win = RollingWindow(window=1e9, max_samples=4)
        for i in range(10):
            win.add(float(i), 1.0)
        assert len(win) == 4
        assert win.total(9.0) == 4.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            RollingWindow(window=0.0)
        win = RollingWindow()
        with pytest.raises(ValueError):
            win.quantile(1.5, 0.0)


class TestDecisionTrace:
    def test_ring_buffer_bounds_memory(self):
        sink = DecisionTrace(max_events=10)
        for i in range(25):
            sink.emit("round", time=float(i), machines=1, placements=0,
                      queue_depth=0)
        assert len(sink) == 10
        assert sink.emitted == 25
        assert sink.dropped == 15
        # oldest events fell off the front
        assert sink.events()[0]["time"] == 15.0

    def test_streaming_survives_ring_overflow(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with DecisionTrace(path, max_events=5) as sink:
            for i in range(20):
                sink.emit("round", time=float(i), machines=1,
                          placements=0, queue_depth=0)
        lines = path.read_text().splitlines()
        assert len(lines) == 20  # the file kept everything
        valid, errors = validate_jsonl(path)
        assert (valid, errors) == (20, [])

    def test_events_filter_and_tally(self):
        sink = DecisionTrace()
        sink.emit("round", time=0.0, machines=1, placements=1, queue_depth=0)
        sink.emit("task_start", time=0.0, job="j", stage="s", task=0,
                  machine=0)
        assert len(sink.events("round")) == 1
        assert sink.tally() == {"round": 1, "task_start": 1}

    def test_write_jsonl_dumps_buffer(self, tmp_path):
        sink = DecisionTrace()
        sink.emit("round", time=0.0, machines=2, placements=0, queue_depth=3)
        path = tmp_path / "dump.jsonl"
        sink.write_jsonl(path)
        assert json.loads(path.read_text())["queue_depth"] == 3

    def test_invalid_max_events(self):
        with pytest.raises(ValueError):
            DecisionTrace(max_events=0)


class TestEventValidation:
    def test_valid_events_pass(self):
        validate_event({
            "type": "candidate", "time": 1.0, "job": "j", "stage": "s",
            "task": 3, "machine": 0, "alignment": 0.5,
            "remaining_work": 2.0, "combined": 0.1, "remote": True,
        })

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"type": "nope"})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_event({"type": "round", "time": 0.0})

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ValueError, match="bool"):
            validate_event({
                "type": "round", "time": 0.0, "machines": True,
                "placements": 0, "queue_depth": 0,
            })

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            validate_event({
                "type": "round", "time": 0.0, "machines": 1,
                "placements": 0, "queue_depth": 0, "extra": 1,
            })

    def test_optional_placement_scores_accepted(self):
        validate_event({
            "type": "placement", "time": 0.0, "job": "j", "stage": "s",
            "task": 0, "machine": 1, "via": "pack", "alignment": 0.2,
            "remaining_work": 1.0, "combined": 0.1,
        })

    def test_validate_jsonl_reports_bad_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"type":"round","time":0.0,"machines":1,"placements":0,'
            '"queue_depth":0}\n'
            "not json\n"
            '{"type":"bogus"}\n'
        )
        valid, errors = validate_jsonl(path)
        assert valid == 1
        assert len(errors) == 2
        assert "line 2" in errors[0] and "line 3" in errors[1]


# -- end-to-end wiring ----------------------------------------------------------
class TestTracedRun:
    def test_tetris_emits_documented_event_types(self):
        _, sink, _ = _traced_run()
        tally = sink.tally()
        for etype in (
            "round", "fairness_filter", "candidate", "fit_reject",
            "placement", "task_start",
        ):
            assert tally.get(etype, 0) > 0, etype
        for event in sink.events():
            validate_event(event)

    def test_placements_match_placement_log(self):
        engine, sink, _ = _traced_run()
        placed = [
            (e["job"], e["stage"], e["task"], e["machine"])
            for e in sink.events("placement")
        ]
        logged = [
            (t.job.name, t.stage.name, t.index, m)
            for (t, m, _time, _b) in engine.placement_log
        ]
        assert placed == logged

    def test_task_start_mirrors_placements(self):
        engine, sink, _ = _traced_run()
        assert len(sink.events("task_start")) == len(engine.placement_log)

    def test_engine_metrics_move(self):
        engine, _, reg = _traced_run()
        assert reg.get("repro_engine_rounds_total").value > 0
        assert reg.get("repro_engine_placements_total").value == len(
            engine.placement_log
        )
        assert reg.get("repro_engine_jobs_finished_total").value == len(
            engine.jobs
        )
        hist = reg.get("repro_engine_round_placements")
        assert hist.count == reg.get("repro_engine_rounds_total").value
        assert reg.get("repro_engine_sim_time_seconds").value == engine.now

    def test_tetris_cache_and_ledger_metrics(self):
        _, _, reg = _traced_run()
        cache = reg.get("repro_tetris_pack_cache_total")
        assert cache.labels(outcome="hit").value > 0
        assert cache.labels(outcome="miss").value > 0
        assert reg.get("repro_tetris_remote_grants_total").value > 0
        # drained run: no outstanding grants
        assert reg.get("repro_tetris_remote_ledger_machines").value == 0

    def test_estimator_fallback_counter(self):
        _, _, reg = _traced_run(
            scheduler=TetrisScheduler(),
            estimator=ProfilingEstimator(),
        )
        fam = reg.get("repro_estimator_estimates_total")
        assert fam.labels(source="fallback").value > 0

    def test_tracker_metrics(self):
        trace = _workload()
        cluster = Cluster(4, seed=0)
        jobs = materialize_trace(trace, cluster, seed=0)
        reg = Registry()
        engine = Engine(
            cluster,
            TetrisScheduler(),
            jobs,
            tracker=ResourceTracker(cluster),
            metrics=reg,
        )
        engine.run()
        assert reg.get("repro_tracker_reports_total").value > 0
        assert reg.get("repro_tracker_tracked_placements").value == 0

    def test_baseline_scheduler_gets_engine_events(self):
        _, sink, reg = _traced_run(scheduler=DRFScheduler())
        tally = sink.tally()
        assert tally.get("round", 0) > 0
        assert tally.get("task_start", 0) > 0
        assert reg.get("repro_engine_placements_total").value > 0
        for event in sink.events():
            validate_event(event)

    def test_reservation_events(self):
        _, sink, reg = _traced_run(
            scheduler=TetrisScheduler(
                TetrisConfig(starvation_timeout=20.0)
            ),
            trace_seed=7,
        )
        reservations = sink.events("reservation")
        if reservations:  # workload-dependent; metrics must agree
            assert (
                reg.get("repro_tetris_reservations_total").value
                == len(reservations)
            )
            via = [
                e for e in sink.events("placement")
                if e["via"] == "reservation"
            ]
            assert len(via) <= len(reservations)

    def test_disabled_observability_costs_nothing(self):
        trace = _workload()
        cluster = Cluster(4, seed=0)
        jobs = materialize_trace(trace, cluster, seed=0)
        engine = Engine(cluster, TetrisScheduler(), jobs)
        engine.run()
        assert engine.trace is None
        assert engine.metrics is None
        assert engine.scheduler.trace is None

    def test_fit_reject_dims_are_model_names(self):
        engine, sink, _ = _traced_run()
        names = set(engine.cluster.model.names)
        dims = {e["dim"] for e in sink.events("fit_reject")}
        assert dims and dims <= names


class TestSummarizer:
    def test_summary_of_real_log(self, tmp_path):
        trace = _workload()
        cluster = Cluster(4, seed=0)
        jobs = materialize_trace(trace, cluster, seed=0)
        path = tmp_path / "d.jsonl"
        with DecisionTrace(path) as sink:
            Engine(
                cluster, TetrisScheduler(), jobs, decision_trace=sink
            ).run()
        summary = summarize_decision_log(path)
        assert summary["invalid_events"] == 0
        assert summary["placements"] > 0
        assert summary["rounds"] > 0
        assert summary["alignment"]["count"] > 0
        assert any(r.startswith("fit:") for r in summary["rejections"])
        assert summary["placements_by_via"].get("pack", 0) > 0

    def test_empty_log(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summary = summarize_decision_log(path)
        assert summary["events_total"] == 0
        assert summary["invalid_events"] == 0
        assert summary["placements"] == 0
        assert summary["rounds"] == 0
        assert summary["alignment"]["count"] == 0
        assert summary["rejections"] == {}

    def test_truncated_json_line_is_counted_not_fatal(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        good = json.dumps(
            {"type": "round", "time": 1.0, "machines": 4,
             "placements": 2, "queue_depth": 1}
        )
        path.write_text(good + "\n" + good[: len(good) // 2] + "\n")
        summary = summarize_decision_log(path)
        assert summary["events_total"] == 1
        assert summary["invalid_events"] == 1
        assert summary["rounds"] == 1
        assert any("line 2" in e for e in summary["errors"])

    def test_unknown_event_type_is_tallied_as_invalid(self, tmp_path):
        path = tmp_path / "unknown.jsonl"
        path.write_text(
            json.dumps({"type": "quantum_tunnel", "time": 0.0}) + "\n"
        )
        summary = summarize_decision_log(path)
        assert summary["invalid_events"] == 1
        assert summary["events_total"] == 0

    def test_missing_required_field_is_invalid(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps({"type": "round", "time": 3.0}) + "\n")
        summary = summarize_decision_log(path)
        assert summary["invalid_events"] == 1
        assert summary["rounds"] == 0


# -- the Perfetto export --------------------------------------------------------
class TestLaneAssignment:
    def test_non_overlapping_share_lane(self):
        assert _assign_lanes([(0, 1), (1, 2), (2, 3)]) == [0, 0, 0]

    def test_overlapping_split_lanes(self):
        assert _assign_lanes([(0, 10), (1, 2), (3, 4)]) == [0, 1, 1]

    def test_no_overlap_within_any_lane(self):
        intervals = [(i * 0.5, i * 0.5 + 2.0) for i in range(20)]
        lanes = _assign_lanes(intervals)
        by_lane = {}
        for (start, end), lane in zip(intervals, lanes):
            for s, e in by_lane.get(lane, []):
                assert end <= s + 1e-12 or e <= start + 1e-12
            by_lane.setdefault(lane, []).append((start, end))


class TestChromeTrace:
    def test_event_shapes(self):
        engine, _, _ = _traced_run()
        events = chrome_trace_events(engine)
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        slices = [e for e in events if e["ph"] == "X"]
        task_slices = [e for e in slices if e["cat"] == "task"]
        placed = {
            t.task_id
            for job in engine.jobs
            for t in job.all_tasks()
            if t.finish_time is not None
        }
        assert len(task_slices) == len(placed)
        for s in slices:
            assert s["dur"] >= 0 and s["ts"] >= 0

    def test_rounds_match_round_log(self):
        engine, _, _ = _traced_run()
        instants = [
            e for e in chrome_trace_events(engine) if e["ph"] == "i"
        ]
        assert len(instants) == len(engine.round_log)

    def test_no_overlap_within_machine_lane(self):
        engine, _, _ = _traced_run()
        busy = {}
        for e in chrome_trace_events(engine):
            if e["ph"] != "X" or e["cat"] != "task":
                continue
            key = (e["pid"], e["tid"])
            for ts, end in busy.get(key, []):
                assert (
                    e["ts"] + e["dur"] <= ts + 1e-3
                    or end <= e["ts"] + 1e-3
                )
            busy.setdefault(key, []).append((e["ts"], e["ts"] + e["dur"]))

    def test_write_chrome_trace_file(self, tmp_path):
        engine, _, _ = _traced_run()
        path = tmp_path / "timeline.json"
        write_chrome_trace(engine, path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["machines"] == 4
        assert len(payload["traceEvents"]) > 0
