"""Structured decision tracing for the schedulers and the engine.

A :class:`DecisionTrace` is an opt-in sink for *why* the scheduler did
what it did.  Per scheduling round it receives: the fairness-knob cut,
each candidate's alignment / remaining-work / combined score, every
fit rejection (which resource overflowed on which machine), remote-source
rejections, barrier-preference filtering, and the winning placement.
The engine adds round records and task starts, so baseline schedulers
get a usable trace with no per-scheduler instrumentation.

Memory is bounded: events land in a ring buffer (``max_events`` deep) and,
when a ``path`` is given, are also streamed to a JSONL file so nothing is
lost on long runs.  When disabled the sink costs nothing — holders keep
``Optional[DecisionTrace]`` and skip all event construction when ``None``
(the same pattern as :class:`repro.profiling.Profiler`).

Tasks are identified by ``(job, stage, task)`` = (job name, stage name,
task index) rather than by ``task_id``: names are stable across fresh
materializations of the same trace, which is what lets the equivalence
property test compare the scalar and vectorized Tetris paths event by
event across two separate runs.
"""

from __future__ import annotations

import json
import os
from collections import Counter as TallyCounter
from collections import deque
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

__all__ = [
    "DecisionTrace",
    "EVENT_SCHEMA",
    "OPTIONAL_FIELDS",
    "summarize_decision_log",
    "validate_event",
    "validate_jsonl",
]

_NUM = (int, float)

#: event type -> required fields and their accepted types.  ``time`` is
#: simulation time (seconds); scores are floats straight from the
#: scheduler, so scalar/vectorized equivalence can be checked bit-for-bit.
EVENT_SCHEMA: Dict[str, Dict[str, tuple]] = {
    # one engine scheduling round (after the scheduler returned)
    "round": {
        "time": _NUM, "machines": (int,), "placements": (int,),
        "queue_depth": (int,),
    },
    # the fairness-knob cut over runnable jobs (Section 3.4)
    "fairness_filter": {
        "time": _NUM, "total_jobs": (int,), "kept_jobs": (int,),
        "dropped": (list,),
    },
    # a candidate did not fit: ``dim`` is the first overflowing resource
    "fit_reject": {
        "time": _NUM, "job": (str,), "stage": (str,), "task": (int,),
        "machine": (int,), "dim": (str,),
    },
    # remote read sources lacked disk/NIC headroom (Section 3.2)
    "remote_reject": {
        "time": _NUM, "job": (str,), "stage": (str,), "task": (int,),
        "machine": (int,),
    },
    # a scored candidate; ``remote`` marks the remote-penalty application
    "candidate": {
        "time": _NUM, "job": (str,), "stage": (str,), "task": (int,),
        "machine": (int,), "alignment": _NUM, "remaining_work": _NUM,
        "combined": _NUM, "remote": (bool,),
    },
    # barrier stragglers narrowed the argmax pool (Section 3.5)
    "barrier_filter": {
        "time": _NUM, "machine": (int,), "barrier_candidates": (int,),
        "candidates": (int,),
    },
    # the argmax (or a reservation admission): one placement decision
    "placement": {
        "time": _NUM, "job": (str,), "stage": (str,), "task": (int,),
        "machine": (int,), "via": (str,),
    },
    # a starved stage got a machine reserved (starvation_timeout)
    "reservation": {
        "time": _NUM, "job": (str,), "stage": (str,), "machine": (int,),
    },
    # delay scheduling declined a non-local offer (baselines)
    "locality_defer": {
        "time": _NUM, "job": (str,), "stage": (str,), "machine": (int,),
        "skips": (int,),
    },
    # the engine applied a placement (emitted for every scheduler)
    "task_start": {
        "time": _NUM, "job": (str,), "stage": (str,), "task": (int,),
        "machine": (int,),
    },
    # wall-clock phase stats appended from a Profiler after the run
    "phase_stats": {
        "label": (str,), "count": (int,), "total_ms": _NUM,
        "mean_ms": _NUM, "min_ms": _NUM, "max_ms": _NUM,
    },
}

#: per-type fields that may be present but are not required.  The
#: ``placement`` extras are the full score decomposition behind the
#: argmax — enough for ``repro explain`` to reconstruct the decision
#: without re-running the scheduler: ``combined = alignment_weight *
#: alignment - srtf_term`` where ``srtf_term = srtf_multiplier * epsilon
#: * remaining_work``; ``margin`` is the winner's lead over the
#: runner-up in the final argmax pool (absent when the pool had one
#: candidate); ``pool`` is that pool's size; ``remote`` marks a
#: remote-penalized winner.  ``fit_reject`` extras quantify the
#: overflow: the booked demand and the machine's free amount on the
#: violating dimension.
OPTIONAL_FIELDS: Dict[str, Dict[str, tuple]] = {
    "placement": {
        "alignment": _NUM, "remaining_work": _NUM, "combined": _NUM,
        "epsilon": _NUM, "srtf_term": _NUM, "margin": _NUM,
        "pool": (int,), "remote": (bool,),
    },
    "fit_reject": {
        "need": _NUM, "free": _NUM,
    },
}


def validate_event(event: Any) -> None:
    """Raise ``ValueError`` unless ``event`` matches :data:`EVENT_SCHEMA`."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be an object, got {type(event).__name__}")
    etype = event.get("type")
    if etype not in EVENT_SCHEMA:
        raise ValueError(f"unknown event type: {etype!r}")
    required = EVENT_SCHEMA[etype]
    optional = OPTIONAL_FIELDS.get(etype, {})
    for field, types in required.items():
        if field not in event:
            raise ValueError(f"{etype} event missing field {field!r}")
        value = event[field]
        # bool is an int subclass; only accept it where bool is declared
        if isinstance(value, bool) and bool not in types:
            raise ValueError(
                f"{etype}.{field} must be {types}, got bool"
            )
        if not isinstance(value, types):
            raise ValueError(
                f"{etype}.{field} must be {types}, "
                f"got {type(value).__name__}"
            )
    for field, value in event.items():
        if field in ("type",) or field in required:
            continue
        if field not in optional:
            raise ValueError(f"{etype} event has unknown field {field!r}")
        if not isinstance(value, optional[field]):
            raise ValueError(
                f"{etype}.{field} must be {optional[field]}, "
                f"got {type(value).__name__}"
            )


class DecisionTrace:
    """Bounded sink for structured scheduler decision events.

    - ``max_events`` bounds the in-memory ring buffer; older events are
      dropped once it is full (``dropped`` counts them);
    - ``path`` optionally streams every event to a JSONL file as it is
      emitted, so the full log survives regardless of the ring size.

    Use as a context manager (or call :meth:`close`) when streaming.
    """

    def __init__(
        self,
        path: Optional[Union[str, os.PathLike]] = None,
        max_events: int = 200_000,
    ) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self._ring: deque = deque(maxlen=max_events)
        self.emitted = 0
        self.path = path
        self._file: Optional[IO[str]] = (
            open(path, "w", encoding="utf-8") if path is not None else None
        )

    # -- emission --------------------------------------------------------------
    def emit(self, type_: str, **fields: Any) -> None:
        """Record one event.  ``fields`` must match the event's schema."""
        event = {"type": type_, **fields}
        self.emitted += 1
        self._ring.append(event)
        if self._file is not None:
            self._file.write(json.dumps(event, separators=(",", ":")))
            self._file.write("\n")

    # -- access ----------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events pushed out of the ring buffer (still on disk if streaming)."""
        return self.emitted - len(self._ring)

    def events(self, type_: Optional[str] = None) -> List[dict]:
        """Buffered events, optionally filtered by type."""
        if type_ is None:
            return list(self._ring)
        return [e for e in self._ring if e["type"] == type_]

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "DecisionTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"DecisionTrace(emitted={self.emitted}, buffered={len(self)}, "
            f"path={self.path!r})"
        )


# -- log analysis ---------------------------------------------------------------
def _iter_jsonl(path) -> Iterable[Tuple[int, Any, Optional[str]]]:
    """Yield (line number, parsed event or None, error or None)."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                yield lineno, None, f"invalid JSON: {exc}"
                continue
            try:
                validate_event(event)
            except ValueError as exc:
                yield lineno, event, str(exc)
                continue
            yield lineno, event, None


def validate_jsonl(path) -> Tuple[int, List[str]]:
    """Validate a decision log file.

    Returns ``(valid_count, errors)`` where each error is
    ``"line N: reason"``.
    """
    valid = 0
    errors: List[str] = []
    for lineno, _event, error in _iter_jsonl(path):
        if error is None:
            valid += 1
        else:
            errors.append(f"line {lineno}: {error}")
    return valid, errors


def _score_stats(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }


def summarize_decision_log(path) -> Dict[str, Any]:
    """Aggregate a decision JSONL into the ``repro inspect`` summary.

    Returns a dict with event tallies, top rejection reasons, candidate
    score distributions, placement/round counts, and any ``phase_stats``
    (Profiler) records found in the log.
    """
    by_type: TallyCounter = TallyCounter()
    rejections: TallyCounter = TallyCounter()
    alignments: List[float] = []
    combined: List[float] = []
    remote_penalized = 0
    placements_by_via: TallyCounter = TallyCounter()
    phases: List[dict] = []
    errors: List[str] = []
    for lineno, event, error in _iter_jsonl(path):
        if error is not None:
            errors.append(f"line {lineno}: {error}")
            continue
        etype = event["type"]
        by_type[etype] += 1
        if etype == "fit_reject":
            rejections[f"fit:{event['dim']}"] += 1
        elif etype == "remote_reject":
            rejections["remote-sources"] += 1
        elif etype == "candidate":
            alignments.append(event["alignment"])
            combined.append(event["combined"])
            if event["remote"]:
                remote_penalized += 1
        elif etype == "placement":
            placements_by_via[event["via"]] += 1
        elif etype == "phase_stats":
            phases.append(dict(event))
    return {
        "events_total": sum(by_type.values()),
        "by_type": dict(by_type),
        "invalid_events": len(errors),
        "errors": errors[:20],
        "rejections": dict(rejections.most_common()),
        "alignment": _score_stats(alignments),
        "combined": _score_stats(combined),
        "remote_penalized_candidates": remote_penalized,
        "placements_by_via": dict(placements_by_via),
        "rounds": by_type.get("round", 0),
        "placements": by_type.get("placement", 0),
        "phases": phases,
    }
