"""Per-commit performance history: the append-only profile store.

Where :class:`~repro.bench.store.ProfileStore` holds *one* blessed
profile per scenario (the committed baseline), a :class:`HistoryStore`
keeps **every** capture — one schema-versioned entry file per
``(git SHA, scenario, host-calibration stamp)`` — so the repo's
performance trajectory is a queryable series rather than a single gate:

- entries are plain JSON files under ``<root>/<scenario>/``, named by
  capture time so a directory listing *is* the timeline; writes go
  through the same atomic ``dump_json`` discipline as profiles and
  nothing is ever rewritten in place (compaction deletes whole entries,
  the sanctioned exception);
- the **calibration stamp** buckets the host-speed constant into ~25%
  bands, so "same machine, same speed class" captures are recognizable
  without bit-equal calibration numbers, and a legacy profile without a
  stamp is kept (stamp ``uncalibrated``) rather than rejected;
- :func:`diff_entries` reuses the noise-aware tolerance bands and
  Mann–Whitney confirmation of :mod:`repro.bench.detect`, so a history
  diff attributes a slowdown to specific ``Profiler`` phases exactly
  like the CI gate does;
- :func:`write_trajectory_artifact` renders a scenario's history into a
  small top-level ``BENCH_<scenario>.json`` pointer file (schema
  ``repro.bench.trajectory/v1``) so the trajectory is visible at the
  repo root without spelunking the store.

This is the Perun model (per-version performance profiles with history,
diffs, and degradation hunting) scaled to this repo.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench.detect import ComparisonResult, compare_profiles
from repro.bench.profile import SCHEMA as PROFILE_SCHEMA
from repro.bench.profile import dump_json

__all__ = [
    "HISTORY_SCHEMA",
    "TRAJECTORY_SCHEMA",
    "DEFAULT_HISTORY_DIR",
    "HistoryEntry",
    "HistoryStore",
    "calibration_stamp",
    "collect_history",
    "diff_entries",
    "render_trend",
    "trend_rows",
    "write_trajectory_artifact",
]

HISTORY_SCHEMA = "repro.bench.history-entry/v1"
TRAJECTORY_SCHEMA = "repro.bench.trajectory/v1"

#: where `repro bench run` appends history unless told otherwise
DEFAULT_HISTORY_DIR = ".bench-history"

#: headline metrics surfaced in trend rows and trajectory artifacts
_HEADLINE_METRICS = (
    "wall_seconds",
    "round_ms",
    "placements_per_sec",
    "mean_jct",
    "makespan",
)


def calibration_stamp(profile: Dict[str, object]) -> str:
    """A host-speed class label for one profile.

    The raw calibration constant jitters run to run; bucketing its log
    into ~25% bands (the same width the detector treats as "same-speed
    hosts") yields a stable stamp: captures from the same machine in the
    same speed class share it.  Profiles predating the calibration stamp
    (or carrying a non-positive one) stamp as ``uncalibrated`` — they
    stay comparable, just without rescaling.
    """
    meta = profile.get("meta") or {}
    cal = meta.get("calibration_seconds")
    if not isinstance(cal, (int, float)) or cal <= 0:
        return "uncalibrated"
    bucket = round(math.log(cal) / math.log(1.25))
    return f"s{bucket:+d}"


@dataclass(frozen=True)
class HistoryEntry:
    """One stored capture: the profile plus its history key."""

    path: Path
    scenario: str
    sha: Optional[str]
    dirty: Optional[bool]
    recorded_unix: float
    calibration_stamp: str
    profile: Dict[str, object]

    @property
    def short_sha(self) -> str:
        label = self.sha[:9] if self.sha else "nogit"
        return label + ("*" if self.dirty else "")

    def matches_sha(self, prefix: str) -> bool:
        return bool(self.sha) and self.sha.startswith(prefix)

    def as_index_row(self) -> Dict[str, object]:
        """The pointer row a trajectory artifact carries."""
        metrics = self.profile.get("metrics") or {}
        headline: Dict[str, float] = {}
        for name, record in sorted(metrics.items()):
            if name in _HEADLINE_METRICS or name.startswith("phase:"):
                if isinstance(record, dict) and "value" in record:
                    headline[name] = float(record["value"])
        return {
            "entry": self.path.name,
            "git_sha": self.sha,
            "git_dirty": self.dirty,
            "recorded_unix": self.recorded_unix,
            "calibration_stamp": self.calibration_stamp,
            "metrics": headline,
        }


class HistoryStore:
    """Append-only directory of per-capture history entries.

    Layout: ``<root>/<scenario>/<millis>-<sha12>.json``.  File names
    sort by capture time, so :meth:`entries` ordering needs no index
    file to maintain (and none to corrupt).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    # -- writing -----------------------------------------------------------------
    def append(
        self,
        profile: Dict[str, object],
        recorded_unix: Optional[float] = None,
    ) -> HistoryEntry:
        """Store one captured profile as a new history entry.

        Never overwrites: a same-millisecond, same-SHA collision gets a
        disambiguating suffix.  The profile must look like a
        ``repro.bench.profile/v1`` document (legacy calibration-less
        profiles are accepted with an ``uncalibrated`` stamp).
        """
        if not isinstance(profile, dict) or "scenario" not in profile:
            raise ValueError("not a profile dict (missing 'scenario')")
        if profile.get("schema") != PROFILE_SCHEMA:
            warnings.warn(
                f"appending a profile with schema "
                f"{profile.get('schema')!r} (expected {PROFILE_SCHEMA}); "
                "older-schema entries skip calibration rescaling",
                RuntimeWarning,
                stacklevel=2,
            )
        scenario = str(profile["scenario"])
        meta = profile.get("meta") or {}
        sha = meta.get("git_sha")
        recorded = (
            float(recorded_unix)
            if recorded_unix is not None
            else float(profile.get("created_unix") or time.time())
        )
        stem = f"{int(recorded * 1000):013d}-" + (
            sha[:12] if isinstance(sha, str) else "nogit"
        )
        directory = self.root / scenario
        path = directory / f"{stem}.json"
        suffix = 0
        while path.exists():
            suffix += 1
            path = directory / f"{stem}.{suffix}.json"
        entry_payload = {
            "schema": HISTORY_SCHEMA,
            "scenario": scenario,
            "recorded_unix": recorded,
            "key": {
                "git_sha": sha,
                "git_dirty": meta.get("git_dirty"),
                "scenario": scenario,
                "calibration_stamp": calibration_stamp(profile),
            },
            "profile": profile,
        }
        dump_json(entry_payload, path)
        return self._entry_from_payload(path, entry_payload)

    # -- reading -----------------------------------------------------------------
    def scenarios(self) -> List[str]:
        """Scenario names with at least one stored entry, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            d.name
            for d in self.root.iterdir()
            if d.is_dir() and any(d.glob("*.json"))
        )

    def entries(self, scenario: str) -> List[HistoryEntry]:
        """Every entry for ``scenario``, oldest first."""
        directory = self.root / scenario
        if not directory.is_dir():
            return []
        out = []
        for path in sorted(directory.glob("*.json")):
            out.append(self.load_entry(path))
        out.sort(key=lambda e: (e.recorded_unix, e.path.name))
        return out

    def load_entry(self, path) -> HistoryEntry:
        import json

        path = Path(path)
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != HISTORY_SCHEMA
        ):
            raise ValueError(
                f"{path}: not a {HISTORY_SCHEMA} entry "
                f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
            )
        return self._entry_from_payload(path, payload)

    def _entry_from_payload(
        self, path: Path, payload: Dict[str, object]
    ) -> HistoryEntry:
        key = payload.get("key") or {}
        return HistoryEntry(
            path=path,
            scenario=str(payload.get("scenario")),
            sha=key.get("git_sha"),
            dirty=key.get("git_dirty"),
            recorded_unix=float(payload.get("recorded_unix") or 0.0),
            calibration_stamp=str(key.get("calibration_stamp") or "uncalibrated"),
            profile=payload.get("profile") or {},
        )

    def latest(self, scenario: str) -> Optional[HistoryEntry]:
        entries = self.entries(scenario)
        return entries[-1] if entries else None

    def resolve(self, scenario: str, ref: str) -> HistoryEntry:
        """An entry by reference: a git SHA prefix, or ``@N`` for the
        Nth-newest entry (``@0`` = newest).  SHA prefixes resolve to the
        newest matching entry (re-captures supersede older ones)."""
        entries = self.entries(scenario)
        if not entries:
            raise KeyError(f"no history for scenario {scenario!r} "
                           f"under {self.root}")
        if ref.startswith("@"):
            try:
                index = int(ref[1:])
            except ValueError:
                raise KeyError(f"bad history ref {ref!r}: @N expects an "
                               "integer")
            if not 0 <= index < len(entries):
                raise KeyError(
                    f"history ref {ref!r} out of range: scenario "
                    f"{scenario!r} has {len(entries)} entries"
                )
            return entries[-1 - index]
        matches = [e for e in entries if e.matches_sha(ref)]
        if not matches:
            raise KeyError(
                f"no history entry for scenario {scenario!r} matches "
                f"SHA prefix {ref!r} (have: "
                f"{sorted({e.short_sha for e in entries})})"
            )
        return matches[-1]

    def for_sha(
        self, scenario: str, sha: str, stamp: Optional[str] = None
    ) -> Optional[HistoryEntry]:
        """The newest entry for an exact SHA (optionally restricted to a
        calibration stamp), or ``None`` — the bisect cache lookup."""
        for entry in reversed(self.entries(scenario)):
            if entry.sha == sha and (
                stamp is None or entry.calibration_stamp == stamp
            ):
                return entry
        return None

    # -- retention ---------------------------------------------------------------
    def compact(
        self,
        scenario: Optional[str] = None,
        keep_last: int = 50,
        keep_per_sha: int = 1,
    ) -> List[Path]:
        """Thin old history; returns the entry files removed.

        The newest ``keep_last`` entries are untouchable.  Older ones
        are compacted *per commit*: each SHA keeps its newest
        ``keep_per_sha`` captures (so per-commit coverage survives
        thinning), the rest are deleted.  ``keep_per_sha=0`` drops the
        tail entirely.
        """
        if keep_last < 0 or keep_per_sha < 0:
            raise ValueError("keep_last and keep_per_sha must be >= 0")
        scenarios = [scenario] if scenario else self.scenarios()
        removed: List[Path] = []
        for name in scenarios:
            entries = self.entries(name)
            old = entries[:-keep_last] if keep_last else entries
            kept_by_sha: Dict[object, int] = {}
            # walk newest-first so "keep the newest per SHA" is a
            # first-seen rule
            for entry in reversed(old):
                key = (entry.sha, entry.calibration_stamp)
                kept = kept_by_sha.get(key, 0)
                if kept < keep_per_sha:
                    kept_by_sha[key] = kept + 1
                    continue
                entry.path.unlink()
                removed.append(entry.path)
        return removed

    def __repr__(self) -> str:
        return f"HistoryStore({str(self.root)!r}, scenarios={self.scenarios()})"


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def diff_entries(
    older: HistoryEntry,
    newer: HistoryEntry,
    timing_tolerance: Optional[float] = None,
    fidelity_tolerance: Optional[float] = None,
) -> ComparisonResult:
    """Compare two history entries with the standard detector.

    ``older`` plays the baseline role, so *degraded* means "``newer`` is
    worse" and :meth:`ComparisonResult.attribution` names the Profiler
    phases that slowed down between the two commits.
    """
    kwargs = {}
    if timing_tolerance is not None:
        kwargs["timing_tolerance"] = timing_tolerance
    if fidelity_tolerance is not None:
        kwargs["fidelity_tolerance"] = fidelity_tolerance
    return compare_profiles(older.profile, newer.profile, **kwargs)


# ---------------------------------------------------------------------------
# trend view
# ---------------------------------------------------------------------------

def _metric_value(profile: Dict, name: str) -> Optional[float]:
    record = (profile.get("metrics") or {}).get(name)
    if isinstance(record, dict) and "value" in record:
        return float(record["value"])
    return None


def trend_rows(
    entries: Sequence[HistoryEntry],
    metrics: Optional[Sequence[str]] = None,
):
    """(header, rows) for a scenario's trend table, oldest first.

    Each timing cell carries a delta against the previous entry's value
    so drifts read off the table directly; the first row has no
    predecessor and shows none.
    """
    if metrics is None:
        present = set()
        for entry in entries:
            present.update((entry.profile.get("metrics") or {}).keys())
        metrics = [m for m in _HEADLINE_METRICS if m in present]
        metrics += sorted(m for m in present if m.startswith("phase:"))
    header = ["captured", "git", "stamp"] + list(metrics)
    rows: List[List[str]] = []
    previous: Dict[str, float] = {}
    for entry in entries:
        when = time.strftime(
            "%Y-%m-%d %H:%M", time.gmtime(entry.recorded_unix)
        )
        row = [when, entry.short_sha, entry.calibration_stamp]
        for name in metrics:
            value = _metric_value(entry.profile, name)
            if value is None:
                row.append("-")
                continue
            cell = f"{value:.4g}"
            prev = previous.get(name)
            if prev:
                delta = (value - prev) / prev * 100.0
                cell += f" ({delta:+.0f}%)"
            previous[name] = value
            row.append(cell)
        rows.append(row)
    return header, rows


def render_trend(
    entries: Sequence[HistoryEntry],
    metrics: Optional[Sequence[str]] = None,
    fmt: str = "term",
) -> str:
    """The trend table as a terminal or Markdown string."""
    header, rows = trend_rows(entries, metrics)
    if not rows:
        return "no history entries"
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += [
        "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# trajectory artifacts (top-level BENCH_<scenario>.json pointers)
# ---------------------------------------------------------------------------

def write_trajectory_artifact(
    store: HistoryStore,
    scenario: str,
    directory=".",
    max_points: int = 50,
) -> Path:
    """Render one scenario's history into ``BENCH_<scenario>.json``.

    The artifact is a *pointer*, not a profile: headline metric values
    per capture plus the entry file names inside ``store`` — small
    enough to commit at the repo root, so the perf trajectory is
    visible without opening the history store.  Re-running ``repro
    bench run`` refreshes it in place (the one mutable file in the
    history plane).
    """
    entries = store.entries(scenario)
    points = [e.as_index_row() for e in entries[-max_points:]]
    payload = {
        "schema": TRAJECTORY_SCHEMA,
        "scenario": scenario,
        "history_root": str(store.root),
        "updated_unix": time.time(),
        "entries_total": len(entries),
        "points": points,
    }
    return dump_json(payload, Path(directory) / f"BENCH_{scenario}.json")


def collect_history(
    directories: Iterable, scenario: str
) -> List[HistoryEntry]:
    """Entries for ``scenario`` across several store roots, merged and
    time-ordered — lets a trend span the committed store plus a fresh
    capture directory."""
    entries: List[HistoryEntry] = []
    for directory in directories:
        entries.extend(HistoryStore(directory).entries(scenario))
    entries.sort(key=lambda e: (e.recorded_unix, e.path.name))
    return entries
