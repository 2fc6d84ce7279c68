"""A dependency-free Prometheus-style metrics registry.

Three metric types, the exposition subset this project needs:

- :class:`Counter` — monotonically increasing (rounds, placements,
  cache hits);
- :class:`Gauge` — goes up and down (ledger size, event-queue depth);
- :class:`Histogram` — cumulative buckets plus ``_sum`` / ``_count``
  (placements per round, round latencies).

Metrics are created through :class:`Registry` and support optional
labels::

    reg = Registry()
    hits = reg.counter("repro_cache_hits_total", "Packing-cache hits")
    hits.inc()
    evictions = reg.counter(
        "repro_cache_evictions_total", "Evictions", labelnames=("scope",)
    )
    evictions.labels(scope="full").inc()
    print(reg.render())

``render()`` emits the Prometheus text exposition format (``# HELP`` /
``# TYPE`` headers followed by one sample per line), so the output can be
scraped, diffed, or dropped into any Prometheus tooling as-is.
"""

from __future__ import annotations

import math
import re
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "RollingWindow",
    "parse_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets (seconds-ish scale; override per metric)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)

#: wall-clock latency buckets for service-level histograms (sub-ms
#: through tens of seconds): the serve daemon's placement-latency
#: histogram uses these, and anything else measuring request-scale
#: round trips should too, so latency profiles stay comparable
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote, and newline must be written as ``\\\\``, ``\\"`` and
    ``\\n`` so the sample stays one parseable line."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        if nxt == "n":
            out.append("\n")
        else:
            # \\ and \" unescape to the literal character; an unknown
            # escape keeps the character as-is (the spec's behavior)
            out.append(nxt)
    return "".join(out)


def _escape_help(text: str) -> str:
    """HELP text escaping: only backslash and newline (quotes are legal)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(
    labelnames: Sequence[str], labelvalues: Sequence[str], extra: str = ""
) -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram with ``_sum`` and ``_count``."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        upper = sorted(float(b) for b in buckets)
        if not upper:
            raise ValueError("histogram needs at least one bucket")
        if upper[-1] != math.inf:
            upper.append(math.inf)
        self.buckets: Tuple[float, ...] = tuple(upper)
        self.counts: List[int] = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def cumulative_counts(self) -> List[int]:
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation within the
        bucket holding the target rank (the ``histogram_quantile`` model:
        observations spread uniformly inside each bucket).

        Returns ``nan`` with no observations.  A rank landing in the
        ``+Inf`` bucket clamps to that bucket's lower bound — the largest
        finite boundary is the best available estimate.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for i, bound in enumerate(self.buckets):
            prev_cumulative = cumulative
            cumulative += self.counts[i]
            if cumulative >= rank:
                lower = 0.0 if i == 0 else self.buckets[i - 1]
                if bound == math.inf:
                    return lower
                in_bucket = cumulative - prev_cumulative
                if in_bucket == 0:
                    return lower
                fraction = (rank - prev_cumulative) / in_bucket
                return lower + fraction * (bound - lower)
        return self.buckets[-2] if len(self.buckets) > 1 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict export: counts per upper bound plus sum/count and
        interpolated p50/p90/p99.
        Quantiles of an empty histogram export as ``None`` (strict JSON
        has no NaN)."""
        def finite(q: float) -> Optional[float]:
            value = self.quantile(q)
            return None if math.isnan(value) else value

        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                _format_value(bound): cum
                for bound, cum in zip(self.buckets, self.cumulative_counts())
            },
            "p50": finite(0.5),
            "p90": finite(0.9),
            "p99": finite(0.99),
        }


class RollingWindow:
    """A sliding time window of ``(timestamp, value)`` observations.

    Backs the serve daemon's *windowed* gauges (placements/sec over the
    last minute, latency quantiles over recent placements) — unlike a
    :class:`Histogram`, old observations age out, so the reading tracks
    the current regime rather than the whole run.  Memory is doubly
    bounded: by the window span and by ``max_samples`` (oldest evicted
    first, which under overload biases the window toward recent data —
    the right bias for a liveness surface).

    Timestamps must be nondecreasing (they come from one monotonic
    clock).  Not thread-safe; writers own it, readers get plain floats
    via the gauges it feeds.
    """

    __slots__ = ("window", "_samples", "_total", "_t0")

    def __init__(self, window: float = 60.0, max_samples: int = 8192) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self._samples: deque = deque(maxlen=max_samples)
        self._total = 0.0
        self._t0: Optional[float] = None

    def add(self, t: float, value: float = 1.0) -> None:
        if self._t0 is None:
            self._t0 = t
        if len(self._samples) == self._samples.maxlen:
            self._total -= self._samples[0][1]
        self._samples.append((t, value))
        self._total += value
        self._evict(t)

    def _evict(self, now: float) -> None:
        floor = now - self.window
        samples = self._samples
        while samples and samples[0][0] < floor:
            self._total -= samples.popleft()[1]

    def count(self, now: float) -> int:
        self._evict(now)
        return len(self._samples)

    def total(self, now: float) -> float:
        self._evict(now)
        return self._total

    def rate(self, now: float) -> float:
        """Summed values per second over the window.  Before a full
        window has elapsed the divisor is the observed span, so early
        readings are not diluted by time that never happened."""
        if self._t0 is None:
            return 0.0
        span = min(self.window, now - self._t0)
        if span <= 0:
            return 0.0
        return self.total(now) / span

    def quantile(self, q: float, now: float) -> float:
        """Exact ``q``-quantile of the retained values (``nan`` when
        empty) — the window is small enough to sort on demand."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._evict(now)
        if not self._samples:
            return math.nan
        values = sorted(v for _, v in self._samples)
        rank = q * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (rank - lo) * (values[hi] - values[lo])

    def __len__(self) -> int:
        return len(self._samples)


_TYPES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricFamily:
    """One named metric and its per-label-value children.

    An unlabeled family delegates ``inc``/``set``/``dec``/``observe`` to
    its single implicit child, so ``reg.counter("x", "...").inc()`` works
    without a ``labels()`` round-trip.
    """

    def __init__(
        self,
        name: str,
        documentation: str,
        cls: type,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.documentation = documentation
        self.cls = cls
        self.labelnames = tuple(labelnames)
        self._buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    @property
    def type(self) -> str:
        return _TYPES[self.cls]

    def _make_child(self):
        if self.cls is Histogram:
            return Histogram(
                self._buckets if self._buckets is not None else DEFAULT_BUCKETS
            )
        return self.cls()

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return sorted(self._children.items())

    # -- unlabeled convenience --------------------------------------------------
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} is labeled; call .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    @property
    def count(self) -> int:
        return self._solo().count

    @property
    def sum(self) -> float:
        return self._solo().sum


class Registry:
    """Holds metric families; renders the text exposition format.

    Registering the same (name, type) twice returns the existing family,
    so components re-wired across runs share their metrics instead of
    erroring; a name re-registered as a *different* type raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        documentation: str,
        cls: type,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.cls is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.type}"
                )
            return existing
        family = MetricFamily(name, documentation, cls, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, documentation: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, documentation, Counter, labelnames)

    def gauge(
        self, name: str, documentation: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, documentation, Gauge, labelnames)

    def histogram(
        self,
        name: str,
        documentation: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._register(name, documentation, Histogram, labelnames, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def names(self) -> List[str]:
        return sorted(self._families)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict export of every family, JSON-serializable as-is.

        Children are keyed by ``label=value`` pairs joined with commas
        (``""`` for the unlabeled child), so callers can read metric
        state without parsing the text exposition::

            {"repro_engine_rounds_total": {
                "type": "counter", "help": "...",
                "values": {"": 12.0}}}

        Histogram children export the :meth:`Histogram.as_dict` shape.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            family = self._families[name]
            values: Dict[str, object] = {}
            for labelvalues, child in family.children():
                key = ",".join(
                    f"{n}={v}"
                    for n, v in zip(family.labelnames, labelvalues)
                )
                if family.cls is Histogram:
                    values[key] = child.as_dict()
                else:
                    values[key] = child.value
            out[name] = {
                "type": family.type,
                "help": family.documentation,
                "values": values,
            }
        return out

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for name in self.names():
            family = self._families[name]
            if family.documentation:
                lines.append(
                    f"# HELP {name} {_escape_help(family.documentation)}"
                )
            lines.append(f"# TYPE {name} {family.type}")
            for labelvalues, child in family.children():
                if family.cls is Histogram:
                    cumulative = child.cumulative_counts()
                    for bound, count in zip(child.buckets, cumulative):
                        le = _format_labels(
                            family.labelnames,
                            labelvalues,
                            extra=f'le="{_format_value(bound)}"',
                        )
                        lines.append(f"{name}_bucket{le} {count}")
                    labels = _format_labels(family.labelnames, labelvalues)
                    lines.append(
                        f"{name}_sum{labels} {_format_value(child.sum)}"
                    )
                    lines.append(f"{name}_count{labels} {child.count}")
                else:
                    labels = _format_labels(family.labelnames, labelvalues)
                    lines.append(
                        f"{name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return f"Registry(metrics={self.names()})"


# label values are quoted strings that may contain escaped quotes and
# backslashes (and any other character, including "}"), so both regexes
# must skip over quoted sections rather than stopping at the first
# closing brace or quote
_SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{(?:[^"}]|"(?:[^"\\]|\\.)*")*\})?\s+(\S+)$'
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def parse_exposition(text: str) -> Dict[str, Dict[str, float]]:
    """Parse :meth:`Registry.render` output back into plain values.

    Returns ``{metric name: {label key: value}}`` with label keys in the
    same ``"name=value,..."`` shape as :meth:`Registry.snapshot` (``""``
    for unlabeled samples).  Histogram series surface under their
    ``_bucket``/``_sum``/``_count`` sample names — this reads the *text*
    a run wrote to disk, it does not reconstruct live metric objects.
    Raises ``ValueError`` on a line that is neither a comment nor a
    well-formed sample.
    """
    out: Dict[str, Dict[str, float]] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name, labelblock, raw = m.groups()
        labels = ""
        if labelblock:
            labels = ",".join(
                f"{k}={_unescape_label_value(v)}"
                for k, v in _LABEL_PAIR_RE.findall(labelblock)
            )
        if raw == "+Inf":
            value = math.inf
        elif raw == "-Inf":
            value = -math.inf
        else:
            value = float(raw)
        out.setdefault(name, {})[labels] = value
    return out
