"""A dependency-free Prometheus-style metrics registry of *readers*.

A metric family is declared once, next to the plain state it reports,
with a ``read`` callable the registry calls at scrape time —
:meth:`Registry.render` and :meth:`Registry.snapshot` pull every value
from its one store, and nothing is pushed while a run is in flight (the
way an OS keeps counters a tracker reads when it reports).  Three
types, the exposition subset this project needs:

- ``counter`` — monotonically increasing (rounds, placements, cache
  invalidations): ``read()`` returns the current count;
- ``gauge`` — goes up and down (ledger size, event-queue depth):
  ``read()`` returns the source's current value;
- ``histogram`` — ``read()`` returns a :class:`Histogram` (cumulative
  buckets plus ``_sum`` / ``_count``).

A labeled family's ``read()`` returns ``{label value: value}`` (a tuple
of values when there are several label names)::

    queue = []                            # the component's own state
    evictions = {"full": 0, "shuffle": 0}
    reg = Registry()
    reg.gauge("repro_queue_depth", "Queued items", lambda: len(queue))
    reg.counter(
        "repro_evictions_total", "Evictions by scope",
        lambda: dict(evictions), labelnames=("scope",),
    )
    print(reg.render())

``render()`` emits the Prometheus text exposition format (``# HELP`` /
``# TYPE`` headers followed by one sample per line), so the output can be
scraped, diffed, or dropped into any Prometheus tooling as-is.
"""

from __future__ import annotations

import math
import re
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
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
    clock).  One writer (:meth:`add`) and any number of reader threads:
    only the writer evicts, and a read takes one C-level copy of the
    deque (``tuple(...)``, atomic under the GIL) and filters it, so a
    scrape never mutates the window nor iterates it while it moves.
    """

    __slots__ = ("window", "_samples", "_t0")

    def __init__(self, window: float = 60.0, max_samples: int = 8192) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self._samples: deque = deque(maxlen=max_samples)
        self._t0: Optional[float] = None

    def add(self, t: float, value: float = 1.0) -> None:
        if self._t0 is None:
            self._t0 = t
        samples = self._samples
        samples.append((t, value))
        floor = t - self.window
        while samples[0][0] < floor:
            samples.popleft()

    def _retained(self, now: float) -> List[float]:
        """The values inside the window at ``now``."""
        floor = now - self.window
        return [v for t, v in tuple(self._samples) if t >= floor]

    def count(self, now: float) -> int:
        return len(self._retained(now))

    def total(self, now: float) -> float:
        return sum(self._retained(now))

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
        values = sorted(self._retained(now))
        if not values:
            return math.nan
        rank = q * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (rank - lo) * (values[hi] - values[lo])

    def __len__(self) -> int:
        return len(self._samples)


#: what a family's ``read()`` returns: a number, a ``Histogram``, or a
#: ``{label value(s): number or Histogram}`` map for a labeled family
Reader = Callable[[], object]


class MetricFamily:
    """One named metric: its schema and the callable that reads it."""

    __slots__ = ("name", "type", "documentation", "labelnames", "read")

    def __init__(
        self,
        name: str,
        type: str,
        documentation: str,
        read: Reader,
        labelnames: Sequence[str] = (),
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.type = type
        self.documentation = documentation
        self.read = read
        self.labelnames = tuple(labelnames)

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label values, value)`` pairs read now, sorted by labels."""
        value = self.read()
        if not self.labelnames:
            return [((), value)]
        out = []
        for key, child in value.items():
            key = key if isinstance(key, tuple) else (key,)
            if len(key) != len(self.labelnames):
                raise ValueError(
                    f"metric {self.name} takes labels {self.labelnames}, "
                    f"read {key}"
                )
            out.append((tuple(str(k) for k in key), child))
        return sorted(out, key=lambda kv: kv[0])


class Registry:
    """Holds metric families; renders the text exposition format.

    Declaring a name again with the same type rebinds it to the new
    reader (a component re-wired onto the registry reports its own
    state); a name declared again as a *different* type raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _declare(
        self,
        name: str,
        type: str,
        documentation: str,
        read: Reader,
        labelnames: Sequence[str],
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None and existing.type != type:
            raise ValueError(
                f"metric {name!r} already registered as {existing.type}"
            )
        family = MetricFamily(name, type, documentation, read, labelnames)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        documentation: str,
        read: Reader,
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        return self._declare(name, "counter", documentation, read, labelnames)

    def gauge(
        self,
        name: str,
        documentation: str,
        read: Reader,
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        return self._declare(name, "gauge", documentation, read, labelnames)

    def histogram(
        self,
        name: str,
        documentation: str,
        read: Reader,
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        return self._declare(
            name, "histogram", documentation, read, labelnames
        )

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
            for labelvalues, child in family.samples():
                key = ",".join(
                    f"{n}={v}"
                    for n, v in zip(family.labelnames, labelvalues)
                )
                if family.type == "histogram":
                    values[key] = child.as_dict()
                else:
                    values[key] = float(child)
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
            for labelvalues, child in family.samples():
                labels = _format_labels(family.labelnames, labelvalues)
                if family.type != "histogram":
                    lines.append(f"{name}{labels} {_format_value(child)}")
                    continue
                for bound, count in zip(
                    child.buckets, child.cumulative_counts()
                ):
                    le = _format_labels(
                        family.labelnames,
                        labelvalues,
                        extra=f'le="{_format_value(bound)}"',
                    )
                    lines.append(f"{name}_bucket{le} {count}")
                lines.append(f"{name}_sum{labels} {_format_value(child.sum)}")
                lines.append(f"{name}_count{labels} {child.count}")
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
