"""Command-line interface: generate traces, run and compare schedulers.

Examples::

    python -m repro generate --kind suite --jobs 30 -o trace.json
    python -m repro run trace.json --scheduler tetris --machines 20
    python -m repro compare trace.json --machines 20 \
        --schedulers tetris,slot-fair,drf
    python -m repro sweep trace.json --knob fairness \
        --values 0,0.25,0.5,0.75
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.model import audit_engine
from repro.exec import RunSpec, get_backend, run_specs
from repro.exec.backends import WORKERS_ENV
from repro.experiments.harness import ExperimentConfig
from repro.metrics.comparison import improvement_percent
from repro.schedulers.registry import SCHEDULER_REGISTRY, build_scheduler
from repro.workload.trace import load_trace, save_trace
from repro.workload.tracegen import (
    BingTraceConfig,
    FacebookTraceConfig,
    WorkloadSuiteConfig,
    generate_bing_trace,
    generate_facebook_trace,
    generate_workload_suite,
)

__all__ = ["main", "SCHEDULERS"]

#: backward-compatible alias for the shared scheduler registry
SCHEDULERS: Dict[str, Callable[[], object]] = SCHEDULER_REGISTRY


def _scheduler_knobs(
    name: str, args: argparse.Namespace
) -> Optional[Dict[str, float]]:
    """The knob dict a command's flags select (None = defaults)."""
    if name != "tetris":
        return None
    knobs = {}
    if getattr(args, "fairness_knob", None) is not None:
        knobs["fairness_knob"] = args.fairness_knob
    if getattr(args, "barrier_knob", None) is not None:
        knobs["barrier_knob"] = args.barrier_knob
    return knobs or None


def _make_scheduler(name: str, args: argparse.Namespace):
    try:
        return build_scheduler(name, _scheduler_knobs(name, args))
    except KeyError as exc:
        raise SystemExit(str(exc))


def _execution_stanza(backend, outcomes, wall_seconds_total):
    """The ``--json`` stanza recording how the results were produced."""
    return {
        "backend": backend.name,
        "workers": backend.workers,
        "wall_seconds_total": wall_seconds_total,
        "runs": {
            outcome.label: {
                "ok": outcome.ok,
                "attempts": outcome.attempts,
                "wall_seconds": outcome.wall_seconds,
                "error": outcome.error,
            }
            for outcome in outcomes
        },
    }


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        num_machines=args.machines,
        seed=args.seed,
        use_tracker=not args.no_tracker,
    )


def _dump_json(payload: Dict[str, object], path) -> None:
    """Write a ``--json`` payload as strict JSON (no NaN), sorted keys,
    indent 2, atomically (a temp file renamed over ``path``)."""
    import json
    import os

    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    os.replace(tmp, path)


def _print_summary(name: str, result) -> None:
    s = result.summary()
    print(
        f"{name:<14} jobs={int(s['jobs']):>4}  "
        f"mean JCT={s['mean_jct']:>9.1f}s  "
        f"median={s['median_jct']:>9.1f}s  "
        f"makespan={s['makespan']:>9.1f}s  "
        f"task dur={s['mean_task_duration']:>7.1f}s"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "suite":
        trace = generate_workload_suite(
            WorkloadSuiteConfig(
                num_jobs=args.jobs,
                task_scale=args.task_scale,
                arrival_horizon=args.horizon,
                seed=args.seed,
            )
        )
    elif args.kind == "facebook":
        trace = generate_facebook_trace(
            FacebookTraceConfig(
                num_jobs=args.jobs,
                arrival_horizon=args.horizon,
                seed=args.seed,
            )
        )
    else:
        trace = generate_bing_trace(
            BingTraceConfig(
                num_jobs=args.jobs,
                arrival_horizon=args.horizon,
                seed=args.seed,
            )
        )
    save_trace(trace, args.output)
    tasks = sum(s.num_tasks for j in trace for s in j.stages)
    print(f"wrote {len(trace)} jobs ({tasks} tasks) to {args.output}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from time import perf_counter

    trace = load_trace(args.trace)
    if args.scheduler not in SCHEDULERS:
        raise SystemExit(
            f"unknown scheduler {args.scheduler!r}; "
            f"choose from {sorted(SCHEDULERS)}"
        )
    backend = get_backend(args.workers)
    spec = RunSpec(
        trace=tuple(trace),
        scheduler=args.scheduler,
        knobs=_scheduler_knobs(args.scheduler, args),
        config=_experiment_config(args),
    )
    start = perf_counter()
    outcome = run_specs([spec], backend)[0]
    total_wall = perf_counter() - start
    if not outcome.ok:
        print(f"{args.scheduler}: FAILED ({outcome.error})", file=sys.stderr)
        if outcome.traceback:
            print(outcome.traceback, file=sys.stderr)
        return 1
    result = outcome.result
    _print_summary(args.scheduler, result)
    if args.json:
        _dump_json(
            {
                "scheduler": args.scheduler,
                "trace": args.trace,
                "machines": args.machines,
                "seed": args.seed,
                "summary": result.summary(),
                "wall_seconds": result.wall_seconds,
                "placements": result.num_placements,
                "execution": _execution_stanza(
                    backend, [outcome], total_wall
                ),
            },
            args.json,
        )
        print(f"wrote {args.json}")
    if args.audit:
        # re-run with a kept engine to audit; run_trace does not expose
        # the engine, so audit on a fresh engine run
        from repro.sim.engine import Engine
        from repro.workload.trace import materialize_trace

        config = _experiment_config(args)
        cluster = config.make_cluster()
        jobs = materialize_trace(trace, cluster, seed=config.seed)
        engine = Engine(
            cluster,
            _make_scheduler(args.scheduler, args),
            jobs,
            config=config.make_engine_config(),
        )
        engine.run()
        report = audit_engine(engine)
        if report.ok:
            print("audit: schedule satisfies all Section 3.1 constraints")
        else:
            dims = sorted(report.violated_dimensions())
            print(
                f"audit: {len(report)} violations "
                f"(over-allocated dimensions: {dims})"
            )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from time import perf_counter

    trace = load_trace(args.trace)
    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    unknown = [n for n in names if n not in SCHEDULERS]
    if unknown:
        raise SystemExit(
            f"unknown scheduler(s) {unknown}; choose from {sorted(SCHEDULERS)}"
        )
    backend = get_backend(args.workers)
    config = _experiment_config(args)
    specs = [
        RunSpec(trace=tuple(trace), scheduler=name, config=config)
        for name in names
    ]
    start = perf_counter()
    outcomes = run_specs(specs, backend)
    total_wall = perf_counter() - start
    results = {}
    failed = []
    for outcome in outcomes:
        if outcome.ok:
            results[outcome.label] = outcome.result
            _print_summary(outcome.label, outcome.result)
        else:
            failed.append(outcome.label)
            print(f"{outcome.label:<14} FAILED ({outcome.error})")
    improvements = {}
    if args.baseline and args.baseline in results:
        base = results[args.baseline]
        print(f"\nimprovement over {args.baseline}:")
        for name, result in results.items():
            if name == args.baseline:
                continue
            jct = improvement_percent(base.mean_jct, result.mean_jct)
            makespan = improvement_percent(base.makespan, result.makespan)
            improvements[name] = {
                "jct_percent": jct, "makespan_percent": makespan,
            }
            print(
                f"  {name:<14} "
                f"JCT {jct:6.1f}%  "
                f"makespan {makespan:6.1f}%"
            )
    fidelity_json = {}
    if args.fidelity and args.baseline in results:
        from repro.metrics import packing_fidelity

        # informational: each scheduler's packing vs the baseline
        base = results[args.baseline]
        print(f"\npacking fidelity vs {args.baseline}:")
        for name, result in results.items():
            if name == args.baseline:
                continue
            report = packing_fidelity(base, result)
            fidelity_json[name] = report.as_dict()
            print(
                f"  {name:<14} "
                f"makespan {report.makespan_delta_pct:+6.2f}%  "
                f"mean JCT {report.mean_jct_delta_pct:+6.2f}%  "
                f"fragmentation "
                f"{report.fragmentation_delta_points:+5.2f}pp"
            )
    if args.json:
        _dump_json(
            {
                "trace": args.trace,
                "machines": args.machines,
                "seed": args.seed,
                "baseline": args.baseline,
                "summaries": {
                    name: result.summary()
                    for name, result in results.items()
                },
                "improvement_over_baseline": improvements,
                "fidelity": fidelity_json,
                "failed": failed,
                "execution": _execution_stanza(
                    backend, outcomes, total_wall
                ),
            },
            args.json,
        )
        print(f"wrote {args.json}")
    return 1 if failed else 0


#: sweepable Tetris knobs: CLI name -> TetrisConfig field
SWEEP_KNOBS = {
    "fairness": "fairness_knob",
    "barrier": "barrier_knob",
    "remote-penalty": "remote_penalty",
}


def cmd_sweep(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    values = [float(v) for v in args.values.split(",")]
    try:
        knob_field = SWEEP_KNOBS[args.knob]
    except KeyError:
        raise SystemExit(f"unknown knob {args.knob!r}")
    config = _experiment_config(args)
    specs = [
        RunSpec(
            trace=tuple(trace),
            scheduler="tetris",
            knobs={knob_field: value},
            config=config,
            label=f"{args.knob}={value:g}",
        )
        for value in values
    ]
    outcomes = run_specs(specs, get_backend(args.workers))
    print(f"{'value':>8}{'mean JCT':>12}{'makespan':>12}")
    failed = 0
    for value, outcome in zip(values, outcomes):
        if outcome.ok:
            result = outcome.result
            print(f"{value:>8.2f}{result.mean_jct:>12.1f}"
                  f"{result.makespan:>12.1f}")
        else:
            failed += 1
            print(f"{value:>8.2f}  FAILED ({outcome.error})")
    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """One fully-observed run: decision JSONL + Perfetto timeline + metrics."""
    import os

    from repro.estimation.tracker import ResourceTracker
    from repro.obs import DecisionTrace, Registry, write_chrome_trace
    from repro.profiling import Profiler
    from repro.sim.engine import Engine
    from repro.workload.trace import materialize_trace

    trace = load_trace(args.trace)
    config = _experiment_config(args)
    cluster = config.make_cluster()
    jobs = materialize_trace(trace, cluster, seed=config.seed)
    tracker = ResourceTracker(cluster) if config.use_tracker else None
    os.makedirs(args.output, exist_ok=True)
    decisions_path = os.path.join(args.output, "decisions.jsonl")
    timeline_path = os.path.join(args.output, "timeline.json")
    metrics_path = os.path.join(args.output, "metrics.prom")
    profiler = Profiler()
    registry = Registry()
    with DecisionTrace(decisions_path, max_events=args.max_events) as sink:
        engine = Engine(
            cluster,
            _make_scheduler(args.scheduler, args),
            jobs,
            tracker=tracker,
            config=config.make_engine_config(),
            profiler=profiler,
            decision_trace=sink,
            metrics=registry,
        )
        engine.run()
        # wall-clock phase stats ride along in the same decision log
        for label in profiler.labels():
            s = profiler.stats(label)
            sink.emit(
                "phase_stats",
                label=label,
                count=s.count,
                total_ms=s.total * 1e3,
                mean_ms=s.mean * 1e3,
                min_ms=s.min * 1e3,
                max_ms=s.max * 1e3,
            )
        write_chrome_trace(engine, timeline_path)
        emitted, buffered = sink.emitted, len(sink)
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(registry.render())
    print(
        f"{args.scheduler}: simulated {engine.now:.1f}s, "
        f"{len(engine.placement_log)} placements, "
        f"{emitted} decision events ({buffered} buffered)"
    )
    print(f"wrote {decisions_path}")
    print(f"wrote {timeline_path} (load at ui.perfetto.dev)")
    print(f"wrote {metrics_path}")
    return 0


def _print_profile_phases(path: str) -> int:
    """Render the phase table of a saved ``/debug/profile`` response
    from a live serve daemon."""
    import json

    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    if "enabled" not in payload:
        print(f"{path}: not a saved /debug/profile response")
        return 1
    phases = payload.get("phases") or {}
    if not phases:
        print(f"no phase data in {path}")
        return 1
    print(f"profile: {payload.get('phase') or 'live'}")
    print(f"  {'phase':<28} {'count':>8} {'total ms':>12} "
          f"{'self ms':>12} {'mean ms':>10}")
    for label in sorted(phases):
        st = phases[label]
        line = (f"  {label:<28} {st['count']:>8} "
                f"{st['total_seconds'] * 1e3:>12.2f} "
                f"{st['self_seconds'] * 1e3:>12.2f} {st['mean_ms']:>10.3f}")
        window = st.get("window")
        if isinstance(window, dict):
            line += (f"  [{window['rate_per_sec']:.2f}/s, "
                     f"busy {window['busy_fraction']:.1%} "
                     f"over {window['seconds']:.0f}s]")
        print(line)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Summarize a decision JSONL written by `repro trace`."""
    from repro.obs import summarize_decision_log

    if args.log is None and not args.profile and not args.metrics:
        print("error: provide a decision log, --profile PATH, "
              "and/or --metrics PATH")
        return 2
    rc = 0
    if args.profile:
        rc = _print_profile_phases(args.profile)
    if args.log is None:
        if args.metrics:
            _print_cache_effectiveness(args.metrics)
        return rc
    summary = summarize_decision_log(args.log)
    print(f"events:     {summary['events_total']}")
    print(f"rounds:     {summary['rounds']}")
    print(f"placements: {summary['placements']}")
    if summary["by_type"]:
        print("by type:")
        for etype, count in sorted(summary["by_type"].items()):
            print(f"  {etype:<16} {count}")
    if summary["rejections"]:
        print("top rejection reasons:")
        for reason, count in list(summary["rejections"].items())[:10]:
            print(f"  {reason:<16} {count}")
    for key in ("alignment", "combined"):
        stats = summary[key]
        if stats["count"]:
            print(
                f"{key} scores: n={stats['count']} "
                f"mean={stats['mean']:.4f} "
                f"min={stats['min']:.4f} max={stats['max']:.4f}"
            )
    if summary["remote_penalized_candidates"]:
        print(
            "remote-penalized candidates: "
            f"{summary['remote_penalized_candidates']}"
        )
    if summary["placements_by_via"]:
        print("placements by path:")
        for via, count in sorted(summary["placements_by_via"].items()):
            print(f"  {via:<16} {count}")
    for phase in summary["phases"]:
        print(
            f"phase {phase['label']}: n={phase['count']} "
            f"total={phase['total_ms']:.2f}ms mean={phase['mean_ms']:.3f}ms"
        )
    if args.metrics:
        _print_cache_effectiveness(args.metrics)
    if summary["invalid_events"]:
        print(f"INVALID events: {summary['invalid_events']}")
        for error in summary["errors"]:
            print(f"  {error}")
        if args.strict:
            return 1
    return 0


def _print_cache_effectiveness(metrics_path: str) -> None:
    """Summarize the incremental-core counters from a metrics exposition
    file (the ``metrics.prom`` a ``repro trace`` run writes): candidate
    pack-cache hit rate, invalidations by scope, machine visits by
    outcome and the placeability plane's own work, live signature
    groups, and the
    fluid model's sparse-recompute footprint."""
    from repro.obs import parse_exposition

    with open(metrics_path, encoding="utf-8") as f:
        metrics = parse_exposition(f.read())
    print("cache effectiveness:")
    pack = metrics.get("repro_tetris_pack_cache_total", {})
    hits = pack.get("outcome=hit", 0.0)
    misses = pack.get("outcome=miss", 0.0)
    if hits + misses:
        print(
            f"  pack cache:      {hits:.0f} hits / {misses:.0f} misses "
            f"({hits / (hits + misses):.1%} hit rate)"
        )
    for key, count in sorted(
        metrics.get("repro_tetris_cache_invalidations_total", {}).items()
    ):
        scope = key.split("=", 1)[1] if "=" in key else key or "all"
        print(f"  invalidations:   {count:.0f} ({scope})")
    visits = metrics.get("repro_tetris_machine_visits_total", {})
    considered = sum(visits.values())
    if considered:
        skipped = visits.get("outcome=skipped", 0.0)
        productive = visits.get("outcome=productive", 0.0)
        visited = considered - skipped
        useful = f", {productive / visited:.1%} of visits" if visited else ""
        print(
            f"  machine visits:  {considered:.0f} considered, "
            f"{visited:.0f} visited "
            f"({skipped / considered:.1%} skipped as unplaceable), "
            f"{productive:.0f} productive{useful}"
        )
        plane_rows = metrics.get(
            "repro_tetris_placeability_rows_total", {}
        ).get("", 0.0)
        if plane_rows:
            print(
                f"  placeability:    {plane_rows:.0f} stage rows judged "
                f"to skip {skipped:.0f} visits"
            )
    groups = metrics.get("repro_tetris_signature_groups", {}).get("")
    if groups is not None:
        print(f"  live groups:     {groups:.0f} (at end of run)")
    recomputes = metrics.get(
        "repro_fluid_sparse_recomputes_total", {}
    ).get("", 0.0)
    if recomputes:
        slots = metrics.get(
            "repro_fluid_slots_recomputed_total", {}
        ).get("", 0.0)
        flows = metrics.get(
            "repro_fluid_flows_recomputed_total", {}
        ).get("", 0.0)
        print(
            f"  fluid recompute: {recomputes:.0f} sparse passes, "
            f"{slots / recomputes:.1f} slots / "
            f"{flows / recomputes:.1f} flows touched per pass"
        )


def _parse_listen(spec: str) -> tuple:
    """Parse a ``--listen HOST:PORT`` spec (port 0 = ephemeral)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"--listen expects HOST:PORT (port 0 for ephemeral), "
            f"got {spec!r}"
        )
    return host or "127.0.0.1", int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming scheduler daemon over a job-arrival stream."""
    import asyncio

    from repro.estimation.tracker import ResourceTracker
    from repro.obs import DecisionTrace, Registry, TelemetryServer
    from repro.profiling import Profiler
    from repro.serve import (
        AdmissionConfig,
        AdmissionController,
        SchedulerService,
        ServeConfig,
        SyntheticSource,
        TraceReplaySource,
    )
    from repro.sim.engine import Engine
    from repro.workload.trace import materialize_trace

    config = _experiment_config(args)
    cluster = config.make_cluster()
    if args.trace:
        trace = load_trace(args.trace)
        jobs = materialize_trace(trace, cluster, seed=config.seed)
        source = TraceReplaySource(jobs, speedup=args.speedup)
    else:
        source = SyntheticSource(
            num_jobs=args.jobs,
            tasks_per_job=args.tasks_per_job,
            interarrival=args.interarrival,
            speedup=args.speedup,
        )
    tracker = ResourceTracker(cluster) if config.use_tracker else None
    registry = Registry()
    # /debug/trace is a debug knob: a full decision trace is expensive
    # (per-candidate events), so the ring is only wired when asked for
    decision_trace = (
        DecisionTrace(max_events=args.trace_ring)
        if args.trace_ring
        else None
    )
    # /debug/profile rides the same rule: without --listen nothing can
    # scrape it, so no profiler is created and the engine's timing
    # hooks stay on their None fast path (zero overhead)
    profiler = Profiler() if args.listen else None
    engine = Engine(
        cluster,
        _make_scheduler(args.scheduler, args),
        [],
        tracker=tracker,
        config=config.make_engine_config(),
        profiler=profiler,
        decision_trace=decision_trace,
        metrics=registry,
    )
    admission = AdmissionController(
        AdmissionConfig(
            rate=args.rate,
            burst=args.burst,
            queue_cap=args.queue_cap,
            policy=args.policy,
        )
    )
    service = SchedulerService(
        engine,
        source,
        admission,
        ServeConfig(
            max_batch=args.batch_cap,
            duration=args.duration,
            # rolling-window gauges only matter when something can
            # scrape them; off otherwise so an unobserved daemon pays
            # nothing extra
            window_seconds=args.window if args.listen else None,
        ),
        registry=registry,
    )
    telemetry = None
    if args.listen:
        host, port = _parse_listen(args.listen)
        telemetry = TelemetryServer(
            host,
            port,
            registry=registry,
            health_fn=service.health,
            status_fn=service.status_snapshot,
            trace=decision_trace,
            profile_fn=service.profile_snapshot,
        )
        bound_host, bound_port = telemetry.start()
        # flush so a supervising process can read the bound (possibly
        # ephemeral) port before the replay finishes
        print(
            f"telemetry: listening on http://{bound_host}:{bound_port}",
            flush=True,
        )
    try:
        report = asyncio.run(service.serve())
    finally:
        if telemetry is not None:
            telemetry.stop()
    adm = report.admission
    print(
        f"served {report.jobs_committed}/{report.jobs_offered} jobs "
        f"({report.placements} placements, {report.tasks_total} tasks) "
        f"in {report.wall_seconds:.2f}s wall"
    )
    print(
        f"throughput: {report.placements_per_sec:,.0f} placements/s "
        f"sustained ({report.drive_seconds:.2f}s driving); "
        f"simulated {report.sim_time:.1f}s"
    )
    if adm.get("rejected"):
        print(
            f"rejected {adm['rejected']} "
            f"(rate={adm['rejected_rate']}, "
            f"queue_full={adm['rejected_queue_full']}, "
            f"closed={adm['rejected_closed']}); "
            f"peak queue depth {adm['peak_depth']}"
        )
    if report.jobs_dropped_on_shutdown:
        print(
            f"dropped {report.jobs_dropped_on_shutdown} queued jobs at "
            f"shutdown ({report.shutdown_reason})"
        )
    print(
        f"invariants: {report.invariant_checks} checks, "
        f"{report.invariant_violations} violations"
    )
    if args.json:
        _dump_json(report.as_dict(), args.json)
        print(f"wrote {args.json}")
    return 1 if report.invariant_violations else 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct a decision narrative from a recorded decision log."""
    import json

    from repro.obs import (
        explain_task,
        explain_window,
        parse_task_ref,
        render_task_explanation,
        render_window_explanation,
    )

    if args.task:
        try:
            job, stage, index = parse_task_ref(args.task)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = explain_task(args.log, job, stage, index)
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            print(render_task_explanation(result, limit=args.limit))
        return 0 if result["found"] else 1
    try:
        t0_raw, t1_raw = args.window.split(":", 1)
        t0, t1 = float(t0_raw), float(t1_raw)
    except ValueError:
        print(
            f"error: --window expects T0:T1 (numbers), got {args.window!r}",
            file=sys.stderr,
        )
        return 2
    summary = explain_window(args.log, t0, t1)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_window_explanation(summary))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import render_all

    written = render_all(args.output, quick=not args.full)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    path = generate_report(
        args.output, quick=not args.full, seed=args.seed
    )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tetris (SIGCOMM 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload trace")
    gen.add_argument("--kind", choices=("suite", "facebook", "bing"),
                     default="suite")
    gen.add_argument("--jobs", type=int, default=40)
    gen.add_argument("--task-scale", type=float, default=0.05)
    gen.add_argument("--horizon", type=float, default=1000.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    def common(p):
        p.add_argument("trace", help="trace JSON from `repro generate`")
        p.add_argument("--machines", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-tracker", action="store_true",
                       help="disable the resource tracker")

    def workers_arg(p):
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="parallel worker processes (default: the "
            f"{WORKERS_ENV} env var, else 1 = serial); results are "
            "bit-identical to a serial run",
        )

    run = sub.add_parser("run", help="run one scheduler on a trace")
    common(run)
    workers_arg(run)
    run.add_argument("--scheduler", default="tetris",
                     choices=sorted(SCHEDULERS))
    run.add_argument("--fairness-knob", type=float, default=None)
    run.add_argument("--barrier-knob", type=float, default=None)
    run.add_argument("--audit", action="store_true",
                     help="verify the Section 3.1 constraints afterwards")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="also write the summary as JSON")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="race several schedulers")
    common(cmp_)
    workers_arg(cmp_)
    cmp_.add_argument("--schedulers", default="tetris,slot-fair,drf")
    cmp_.add_argument("--baseline", default="slot-fair")
    cmp_.add_argument(
        "--fidelity", action="store_true",
        help="report each scheduler's packing-fidelity deltas (makespan "
        "/ mean JCT / fragmentation) against --baseline",
    )
    cmp_.add_argument("--json", default=None, metavar="PATH",
                      help="also write the per-scheduler summaries as JSON")
    cmp_.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="sweep a Tetris knob")
    common(sweep)
    workers_arg(sweep)
    sweep.add_argument("--knob", default="fairness",
                       choices=sorted(SWEEP_KNOBS))
    sweep.add_argument("--values", default="0,0.25,0.5,0.75")
    sweep.set_defaults(func=cmd_sweep)

    tr = sub.add_parser(
        "trace",
        help="run with full observability: decision JSONL, Perfetto "
        "timeline, metrics",
    )
    common(tr)
    tr.add_argument("--scheduler", default="tetris",
                    choices=sorted(SCHEDULERS))
    tr.add_argument("--fairness-knob", type=float, default=None)
    tr.add_argument("--barrier-knob", type=float, default=None)
    tr.add_argument("-o", "--output", default="obs",
                    help="output directory for the three artifacts")
    tr.add_argument("--max-events", type=int, default=200_000,
                    help="decision-trace ring-buffer size")
    tr.set_defaults(func=cmd_trace)

    ins = sub.add_parser(
        "inspect", help="summarize a decision log from `repro trace` "
        "and/or a saved serve profile"
    )
    ins.add_argument("log", nargs="?", default=None,
                     help="decisions.jsonl path")
    ins.add_argument("--profile", default=None, metavar="PATH",
                     help="render the phase table of a saved "
                     "/debug/profile response")
    ins.add_argument("--strict", action="store_true",
                     help="exit non-zero if any event fails validation")
    ins.add_argument("--metrics", default=None, metavar="PATH",
                     help="metrics.prom from the same `repro trace` run; "
                     "adds a cache-effectiveness section (candidate-index "
                     "hit/miss/invalidation counters, fluid sparse-"
                     "recompute footprint)")
    ins.set_defaults(func=cmd_inspect)

    exp = sub.add_parser(
        "explain",
        help="reconstruct a placement's decision narrative from a "
        "decision log (`repro trace` output or a serve --trace-ring "
        "dump)",
    )
    exp.add_argument("log", help="decisions.jsonl path")
    exp_what = exp.add_mutually_exclusive_group(required=True)
    exp_what.add_argument(
        "--task", default=None, metavar="JOB/STAGE/IDX",
        help="explain one task: every consideration, rejection, "
        "fairness cut, and the winning score decomposition",
    )
    exp_what.add_argument(
        "--window", default=None, metavar="T0:T1",
        help="aggregate every decision in a simulated-time window",
    )
    exp.add_argument("--limit", type=int, default=10,
                     help="competing candidates to show per decision")
    exp.add_argument("--json", action="store_true",
                     help="emit the full explanation as JSON")
    exp.set_defaults(func=cmd_explain)

    serve = sub.add_parser(
        "serve",
        help="run the streaming scheduler daemon over a job-arrival "
        "stream (trace replay or generator)",
    )
    serve.add_argument(
        "trace", nargs="?", default=None,
        help="trace JSON to replay (omit to use the generator source)",
    )
    serve.add_argument("--machines", type=int, default=20)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--no-tracker", action="store_true",
                       help="disable the resource tracker")
    serve.add_argument("--scheduler", default="tetris",
                       choices=sorted(SCHEDULERS))
    serve.add_argument("--fairness-knob", type=float, default=None)
    serve.add_argument("--barrier-knob", type=float, default=None)
    serve.add_argument("--jobs", type=int, default=50,
                       help="generator mode: jobs to emit")
    serve.add_argument("--tasks-per-job", type=int, default=10,
                       help="generator mode: tasks per job")
    serve.add_argument("--interarrival", type=float, default=1.0,
                       help="generator mode: simulated seconds between jobs")
    serve.add_argument("--rate", type=float, default=None,
                       help="admission rate limit in jobs per wall second "
                       "(default: unlimited)")
    serve.add_argument("--burst", type=float, default=8.0,
                       help="token-bucket burst size in jobs")
    serve.add_argument("--queue-cap", type=int, default=1024,
                       help="pending-queue bound (the daemon's memory cap)")
    serve.add_argument("--policy", choices=("reject", "block"),
                       default="reject",
                       help="what a full queue does to a new arrival")
    serve.add_argument("--speedup", type=float, default=0.0,
                       help="time compression for wall-paced replay "
                       "(simulated seconds per wall second; 0 = no pacing, "
                       "deliver as fast as the consumer drains)")
    serve.add_argument("--duration", type=float, default=None,
                       help="wall-clock cap in seconds; queued arrivals "
                       "are dropped at expiry, committed jobs finish")
    serve.add_argument("--batch-cap", type=int, default=64,
                       help="max arrivals committed per scheduling batch")
    serve.add_argument("--json", default=None, metavar="PATH",
                       help="also write the full serve report as JSON")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="bind the live telemetry plane (/metrics, "
                       "/healthz, /status, /debug/trace, "
                       "/debug/profile); port 0 picks an ephemeral "
                       "port and prints it; unset = no server thread "
                       "at all")
    serve.add_argument("--window", type=float, default=60.0,
                       help="rolling-window span in seconds for the "
                       "sliding telemetry gauges (only active with "
                       "--listen)")
    serve.add_argument("--trace-ring", type=int, default=0,
                       metavar="N",
                       help="keep the last N decision events in memory "
                       "for /debug/trace (0 = tracing off; full decision "
                       "tracing costs per-candidate event emission)")
    serve.set_defaults(func=cmd_serve)

    figs = sub.add_parser(
        "figures", help="render the paper's figures as SVG files"
    )
    figs.add_argument("-o", "--output", default="figures")
    figs.add_argument("--full", action="store_true",
                      help="benchmark-scale runs (slower)")
    figs.set_defaults(func=cmd_figures)

    report = sub.add_parser(
        "report", help="run the core experiments, write a Markdown report"
    )
    report.add_argument("-o", "--output", default="report.md")
    report.add_argument("--full", action="store_true",
                        help="benchmark-scale runs (slower)")
    report.add_argument("--seed", type=int, default=1)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
