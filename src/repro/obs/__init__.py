"""Observability: decision tracing, metrics registry, timeline export.

Five coordinated pieces, all dependency-free and opt-in:

- :mod:`repro.obs.trace` — :class:`DecisionTrace`, a structured sink the
  engine and the schedulers emit per-round decision events into (who was
  a candidate, who was rejected and why, who won), with bounded memory
  and an optional streaming JSONL file;
- :mod:`repro.obs.registry` — a Prometheus-style :class:`Registry` of
  counter / gauge / histogram families with a text exposition format.
  Each family is a *reader* declared next to the state it reports: the
  registry calls it at scrape time, so a run pushes nothing and a
  gauge always shows its source's current value;
- :mod:`repro.obs.timeline` — serialize a finished run (task lifetimes
  per machine, scheduler rounds, shuffle-flow windows) to Chrome
  trace-event JSON loadable in Perfetto;
- :mod:`repro.obs.http` — :class:`TelemetryServer`, the live telemetry
  plane a long-lived daemon binds (``/metrics``, ``/healthz``,
  ``/status``, ``/debug/trace``);
- :mod:`repro.obs.explain` — reconstruct a placement's full decision
  narrative from a recorded decision JSONL (``repro explain``).

Everything follows the same ``Optional[...]`` pattern as
:class:`repro.profiling.Profiler`: holders keep ``None`` by default and
skip all work when observability is off.
"""

from repro.obs.explain import (
    explain_task,
    explain_window,
    parse_task_ref,
    render_task_explanation,
    render_window_explanation,
)
from repro.obs.http import TelemetryServer
from repro.obs.registry import (
    Histogram,
    LATENCY_BUCKETS,
    Registry,
    RollingWindow,
    parse_exposition,
)
from repro.obs.trace import (
    DecisionTrace,
    EVENT_SCHEMA,
    summarize_decision_log,
    validate_event,
    validate_jsonl,
)
from repro.obs.timeline import chrome_trace_events, write_chrome_trace

__all__ = [
    "Histogram",
    "LATENCY_BUCKETS",
    "Registry",
    "RollingWindow",
    "TelemetryServer",
    "parse_exposition",
    "DecisionTrace",
    "EVENT_SCHEMA",
    "explain_task",
    "explain_window",
    "parse_task_ref",
    "render_task_explanation",
    "render_window_explanation",
    "summarize_decision_log",
    "validate_event",
    "validate_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
]
