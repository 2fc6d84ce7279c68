"""Noise-aware degradation detection between two profiles.

The detector compares each metric of a freshly captured profile against
the committed baseline and classifies it *improved* / *stable* /
*degraded* with tolerances chosen per metric kind:

- **timing** metrics (wall seconds, per-round milliseconds, phase
  means) are inherently noisy: the stored value is already a
  median-of-k, the baseline value is rescaled by the two profiles'
  host-calibration ratio, and the relative tolerance band is wide
  (default ±50%).  When both profiles carry their raw repeat samples, a
  one-sided Mann–Whitney rank test must *confirm* the shift before a
  band violation is reported as a degradation — a single noisy repeat
  cannot fail CI;
- **fidelity** metrics (mean JCT, makespan, placement counts) are
  deterministic given the seed, so their band is tight (default ±2%)
  and no rank test applies.  A fidelity *improvement* (JCT went down)
  is reported as such, not as a failure; ``exact`` metrics treat any
  drift beyond the band as degradation.

Phase metrics keep their ``phase:<label>:mean_ms`` names, so the
verdict attributes a slowdown to the phase that caused it ("packing
round got 2× slower" names ``tetris.schedule``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "MetricVerdict",
    "ComparisonResult",
    "compare_profiles",
    "mann_whitney_p",
    "IMPROVED",
    "STABLE",
    "DEGRADED",
    "MISSING",
    "NEW",
]

IMPROVED = "improved"
STABLE = "stable"
DEGRADED = "degraded"
MISSING = "missing"   # metric present in baseline, absent from current
NEW = "new"           # metric absent from baseline

#: default relative tolerance bands per metric kind
TIMING_TOLERANCE = 0.5
FIDELITY_TOLERANCE = 0.02
#: one-sided significance level for the rank-test confirmation
ALPHA = 0.1


def mann_whitney_p(
    current: Sequence[float], baseline: Sequence[float]
) -> float:
    """One-sided Mann–Whitney p-value for *current > baseline*.

    Normal approximation with tie correction — adequate for the small
    repeat counts profiles carry (k = 3..10).  Returns 1.0 when either
    side has no samples.
    """
    n, m = len(current), len(baseline)
    if n == 0 or m == 0:
        return 1.0
    combined = sorted(
        [(v, 0) for v in current] + [(v, 1) for v in baseline]
    )
    tie_term = 0.0
    i = 0
    rank_sum_current = 0.0
    while i < len(combined):
        j = i
        while j < len(combined) and combined[j][0] == combined[i][0]:
            j += 1
        avg_rank = (i + j + 1) / 2.0  # ranks are 1-based
        t = j - i
        if t > 1:
            tie_term += t * (t**2 - 1)
        for k in range(i, j):
            if combined[k][1] == 0:
                rank_sum_current += avg_rank
        i = j
    u = rank_sum_current - n * (n + 1) / 2.0
    mean_u = n * m / 2.0
    total = n + m
    var_u = (n * m / 12.0) * (
        (total + 1) - tie_term / (total * (total - 1))
    )
    if var_u <= 0:
        return 1.0 if u <= mean_u else 0.0
    # continuity correction; large U = current samples rank high
    z = (u - mean_u - 0.5) / math.sqrt(var_u)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass
class MetricVerdict:
    """One metric's comparison outcome."""

    name: str
    kind: str
    status: str
    baseline: Optional[float] = None
    current: Optional[float] = None
    ratio: Optional[float] = None
    note: str = ""

    @property
    def is_phase(self) -> bool:
        return self.name.startswith("phase:")

    @property
    def phase_label(self) -> Optional[str]:
        if not self.is_phase:
            return None
        return self.name.split(":", 2)[1]


@dataclass
class ComparisonResult:
    """All verdicts for one scenario pair, plus the overall gate."""

    scenario: str
    verdicts: List[MetricVerdict] = field(default_factory=list)
    config_mismatch: bool = False
    notes: List[str] = field(default_factory=list)

    def by_status(self, status: str) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == status]

    @property
    def degraded(self) -> List[MetricVerdict]:
        return self.by_status(DEGRADED)

    @property
    def improved(self) -> List[MetricVerdict]:
        return self.by_status(IMPROVED)

    @property
    def ok(self) -> bool:
        """True when nothing degraded, nothing went missing, and the
        two profiles were actually comparable."""
        if self.config_mismatch:
            return False
        return not self.degraded and not self.by_status(MISSING)

    def attribution(self) -> List[MetricVerdict]:
        """Degraded *phase* metrics, worst ratio first — the "which
        phase got slower" answer."""
        phases = [v for v in self.degraded if v.is_phase]
        return sorted(
            phases, key=lambda v: -(v.ratio if v.ratio is not None else 0.0)
        )

    def render(self) -> str:
        """A terminal table of every verdict plus the headline."""
        lines = [f"scenario {self.scenario}:"]
        for note in self.notes:
            lines.append(f"  ! {note}")
        header = f"  {'metric':<36} {'baseline':>12} {'current':>12} " \
                 f"{'ratio':>7}  status"
        lines.append(header)
        for v in self.verdicts:
            base = f"{v.baseline:.4g}" if v.baseline is not None else "-"
            cur = f"{v.current:.4g}" if v.current is not None else "-"
            ratio = f"{v.ratio:.2f}x" if v.ratio is not None else "-"
            marker = {DEGRADED: " <-- DEGRADED", IMPROVED: " (improved)"}.get(
                v.status, ""
            )
            note = f"  [{v.note}]" if v.note else ""
            lines.append(
                f"  {v.name:<36} {base:>12} {cur:>12} {ratio:>7}  "
                f"{v.status}{marker}{note}"
            )
        attribution = self.attribution()
        if attribution:
            worst = ", ".join(
                f"{v.phase_label} ({v.ratio:.2f}x)" for v in attribution
            )
            lines.append(f"  slowest phases: {worst}")
        lines.append(
            f"  verdict: {'OK' if self.ok else 'DEGRADED'} "
            f"({len(self.improved)} improved, "
            f"{len(self.by_status(STABLE))} stable, "
            f"{len(self.degraded)} degraded)"
        )
        return "\n".join(lines)


def _calibration_ratio(baseline: Dict, current: Dict):
    """``(ratio, note)``: current-host speed relative to baseline-host
    speed (>1 = the current host is slower, so baseline timings are
    scaled up).

    A profile captured before the host-calibration stamp existed (or
    carrying a malformed one) must not kill the comparison: rescaling is
    skipped (ratio 1.0), a warning names the side at fault, and the
    note rides along in the result so the degraded verdicts it may
    cause are explainable.
    """
    sides = {
        "baseline": (baseline.get("meta") or {}).get("calibration_seconds"),
        "current": (current.get("meta") or {}).get("calibration_seconds"),
    }
    legacy = sorted(
        side for side, cal in sides.items()
        if not isinstance(cal, (int, float)) or cal <= 0
    )
    if legacy:
        note = (
            f"{' and '.join(legacy)} profile predates the "
            "host-calibration stamp; timing rescaling skipped"
        )
        warnings.warn(note, RuntimeWarning, stacklevel=3)
        return 1.0, note
    return sides["current"] / sides["baseline"], None


def compare_profiles(
    baseline: Dict[str, object],
    current: Dict[str, object],
    timing_tolerance: float = TIMING_TOLERANCE,
    fidelity_tolerance: float = FIDELITY_TOLERANCE,
    alpha: float = ALPHA,
) -> ComparisonResult:
    """Compare ``current`` against ``baseline``; see the module docstring
    for the decision rules."""
    result = ComparisonResult(scenario=str(current.get("scenario")))
    base_fp = (baseline.get("meta") or {}).get("config_fingerprint")
    cur_fp = (current.get("meta") or {}).get("config_fingerprint")
    if baseline.get("scenario") != current.get("scenario"):
        result.config_mismatch = True
        result.notes.append(
            f"scenario mismatch: baseline={baseline.get('scenario')!r} "
            f"current={current.get('scenario')!r}"
        )
        return result
    if base_fp != cur_fp:
        result.config_mismatch = True
        result.notes.append(
            f"config fingerprint mismatch ({base_fp} != {cur_fp}); "
            "refresh the baseline after a scenario change"
        )
        return result

    cal_ratio, cal_note = _calibration_ratio(baseline, current)
    if cal_note:
        result.notes.append(cal_note)
    if not 0.8 <= cal_ratio <= 1.25:
        result.notes.append(
            f"hosts differ in speed (calibration ratio {cal_ratio:.2f}); "
            "timing baselines rescaled accordingly"
        )

    base_metrics: Dict[str, Dict] = dict(baseline.get("metrics") or {})
    cur_metrics: Dict[str, Dict] = dict(current.get("metrics") or {})
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        base = base_metrics.get(name)
        cur = cur_metrics.get(name)
        if base is None:
            result.verdicts.append(MetricVerdict(
                name=name, kind=cur.get("kind", "?"), status=NEW,
                current=cur.get("value"),
            ))
            continue
        if cur is None:
            result.verdicts.append(MetricVerdict(
                name=name, kind=base.get("kind", "?"), status=MISSING,
                baseline=base.get("value"),
            ))
            continue
        result.verdicts.append(_judge(
            name, base, cur, cal_ratio,
            timing_tolerance, fidelity_tolerance, alpha,
        ))
    return result


def _judge(
    name: str,
    base: Dict,
    cur: Dict,
    cal_ratio: float,
    timing_tolerance: float,
    fidelity_tolerance: float,
    alpha: float,
) -> MetricVerdict:
    kind = str(base.get("kind", "fidelity"))
    direction = str(base.get("direction", "lower"))
    base_value = float(base.get("value", 0.0))
    cur_value = float(cur.get("value", 0.0))
    timing = kind == "timing"
    tolerance = timing_tolerance if timing else fidelity_tolerance
    if timing:
        # a slower current host inflates both the reference and, for
        # "higher is better" rates, deflates the expectation
        base_value = (
            base_value * cal_ratio if direction == "lower"
            else base_value / cal_ratio
        )

    if base_value == 0.0:
        status = STABLE if cur_value == 0.0 else DEGRADED
        return MetricVerdict(
            name=name, kind=kind, status=status,
            baseline=base_value, current=cur_value,
            note="" if status == STABLE else "baseline was zero",
        )

    ratio = cur_value / base_value
    # normalize so "worse" is always ratio > 1
    worse_ratio = ratio if direction != "higher" else (
        1.0 / ratio if ratio != 0 else float("inf")
    )
    note = ""
    if worse_ratio > 1.0 + tolerance:
        status = DEGRADED
        if timing:
            confirmed, note = _confirm_with_ranks(
                base, cur, direction, cal_ratio, alpha
            )
            if not confirmed:
                status = STABLE
    elif worse_ratio < 1.0 / (1.0 + tolerance):
        # an exact metric has no "better" direction: any drift is a break
        if direction == "exact":
            status, note = DEGRADED, "exact metric drifted"
        else:
            status = IMPROVED
    else:
        status = STABLE
    return MetricVerdict(
        name=name, kind=kind, status=status,
        baseline=base_value, current=cur_value, ratio=ratio, note=note,
    )


def _confirm_with_ranks(
    base: Dict, cur: Dict, direction: str, cal_ratio: float, alpha: float,
):
    """Nonparametric confirmation of a timing band violation.

    The shift must also be significant under the one-sided Mann–Whitney
    test — but only when the test has any power at ``alpha``: with n
    and m samples the smallest achievable p is 1/C(n+m, n) (complete
    separation), so tiny sample counts (e.g. 2 vs 2, min p = 1/6) would
    *always* downgrade, masking real regressions.  In that regime the
    median band decides alone.
    """
    base_samples = [float(s) for s in (base.get("samples") or [])]
    cur_samples = [float(s) for s in (cur.get("samples") or [])]
    n, m = len(cur_samples), len(base_samples)
    if n < 2 or m < 2 or 1.0 / math.comb(n + m, n) > alpha:
        return True, "too few repeat samples; band only"
    base_samples = [
        s * cal_ratio if direction == "lower" else s / cal_ratio
        for s in base_samples
    ]
    if direction == "higher":
        # "current got worse" = current samples rank LOW
        p = mann_whitney_p(base_samples, cur_samples)
    else:
        p = mann_whitney_p(cur_samples, base_samples)
    if p <= alpha:
        return True, f"rank-test confirmed (p={p:.3f})"
    return False, f"band exceeded but not significant (p={p:.2f})"
