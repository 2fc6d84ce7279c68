"""Lightweight timing hooks for the scheduler/simulator hot paths.

A :class:`Profiler` is an opt-in sink for wall-clock samples.  The engine
and the Tetris scheduler accept one and record how long each scheduling
round (and its phases) took; benchmarks use the same object to measure
before/after speedups instead of asserting them.

The hooks are designed to cost nothing when disabled: callers hold an
``Optional[Profiler]`` and skip the ``perf_counter`` calls entirely when
it is ``None``.

>>> prof = Profiler()
>>> with prof.time("round"):
...     pass
>>> prof.stats("round").count
1
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from math import sqrt
from time import perf_counter
from typing import Dict, Iterator, List, Optional

__all__ = ["PhaseStats", "Profiler"]


@dataclass
class PhaseStats:
    """Accumulated samples for one labelled phase.

    Dispersion is tracked with Welford's online algorithm (numerically
    stable single-pass mean/M2), so consumers — the serve daemon's
    ``/debug/profile`` in particular — get ``variance``/``stddev``
    without the profiler keeping every sample.
    """

    count: int = 0
    total: float = 0.0
    max: float = 0.0
    _min: float = field(default=float("inf"), repr=False)
    _mean: float = field(default=0.0, repr=False)
    _m2: float = field(default=0.0, repr=False)

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self._min:
            self._min = duration
        if duration > self.max:
            self.max = duration
        delta = duration - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (duration - self._mean)

    @property
    def min(self) -> float:
        """Smallest sample, or ``0.0`` when no samples were recorded
        (an empty phase must not report ``inf``)."""
        return self._min if self.count else 0.0

    @property
    def mean(self) -> float:
        # total/count, not the Welford running mean: bit-exact with the
        # pre-Welford behavior (the running mean only feeds ``_m2``)
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (Bessel-corrected); ``0.0`` below 2 samples."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return sqrt(self.variance)


class Profiler:
    """Accumulates wall-clock samples per label.

    :meth:`time` additionally tracks phase *nesting*: entering a phase
    inside another phase attributes the inner wall time to the outer
    phase's cumulative total but not to its **self time** (cumulative
    minus time spent in nested phases), and re-entering the *same* phase
    while it is already open records nothing — the outer frame already
    owns that wall time, so recursion cannot double-count it.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, PhaseStats] = {}
        #: per-label self time (seconds); equals the cumulative total
        #: for phases never observed with nested children
        self._self_totals: Dict[str, float] = {}
        #: open :meth:`time` frames: [label, accumulated child seconds]
        self._frames: List[list] = []
        #: labels currently open via :meth:`time`, with nesting depth
        self._open: Dict[str, int] = {}

    def record(
        self, label: str, duration: float, self_seconds: Optional[float] = None
    ) -> None:
        """Add one duration sample (seconds) under ``label``.

        ``self_seconds`` is the portion not spent in nested phases;
        direct callers (no nesting information) leave it ``None`` and
        the whole duration counts as self time.
        """
        stats = self._stats.get(label)
        if stats is None:
            stats = self._stats[label] = PhaseStats()
        stats.add(duration)
        self._self_totals[label] = self._self_totals.get(label, 0.0) + (
            duration if self_seconds is None else self_seconds
        )

    @contextmanager
    def time(self, label: str) -> Iterator[None]:
        """Context manager timing its body into ``label``."""
        depth = self._open.get(label, 0)
        self._open[label] = depth + 1
        if depth:
            # re-entrant: the outer frame of this label is already on
            # the clock; recording here would double-count wall time
            try:
                yield
            finally:
                self._open[label] = depth
            return
        frame = [label, 0.0]
        self._frames.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            self._frames.pop()
            del self._open[label]
            if self._frames:
                self._frames[-1][1] += duration
            self.record(label, duration, self_seconds=duration - frame[1])

    def stats(self, label: str) -> PhaseStats:
        """Samples recorded under ``label``.

        Unknown labels return a *detached* empty :class:`PhaseStats` —
        the label is **not** registered, so probing never pollutes
        :meth:`labels`, and ``add()`` on the returned
        object does not feed back into this profiler.
        """
        return self._stats.get(label, PhaseStats())

    def labels(self) -> List[str]:
        """Recorded labels, sorted.  ``sorted`` copies the keys in one
        C-level pass, so a reader thread never sees the dict move."""
        return sorted(self._stats)

    def self_total(self, label: str) -> float:
        """Self time (seconds) accumulated under ``label``: cumulative
        total minus time spent in phases nested within it."""
        stats = self._stats.get(label)
        if stats is None:
            return 0.0
        return self._self_totals.get(label, stats.total)

    def __repr__(self) -> str:
        return f"Profiler(labels={self.labels()})"
