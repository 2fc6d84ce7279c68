"""Alignment scorers: how well does a task fit a machine? (Table 8).

Every scorer takes the task's demand vector and the machine's available
vector, both already normalized by the machine's capacity, and returns a
score where **higher means schedule first**.  Only tasks that actually fit
are ever scored, so ``demand <= available`` per dimension.

The paper evaluated these candidates (Section 5.3.1, Table 8):

- **cosine similarity** — the weighted dot product Tetris uses.  Prefers
  large tasks, and tasks whose demand mix matches what the machine has in
  abundance;
- **L2-Norm-Diff** — ``sum((d_i - a_i)^2)``, lower is better (we negate):
  prefers the task that leaves the least residual capacity behind;
- **L2-Norm-Ratio** — ``sum((d_i / a_i)^2)``: prefers tasks consuming the
  largest fraction of what remains;
- **FFD-Prod** — ``prod(d_i)`` over the task's non-zero dimensions:
  first-fit-decreasing with a volume-based size;
- **FFD-Sum** — ``sum(d_i)``: first-fit-decreasing with an L1 size.

Each scorer exposes two entry points:

- :meth:`AlignmentScorer.score` — one (demand, available) pair of plain
  float sequences.  It is both the reference oracle and the hot path:
  the Tetris fill loop scores the few rows that fit a machine through
  it;
- :meth:`AlignmentScorer.score_batch` — an ``(N, dims)`` matrix of
  normalized demand rows against one availability row, all N scores in
  a few numpy passes, for the visits where many rows fit.

Both reduce left to right from 0.0 (numpy's ``sum`` switches to
pairwise summation from eight elements on), with the same elementwise
operations, so their results are *bit-identical*.  That is what lets
the Tetris packing engine reproduce the scalar scheduler's placements
exactly whichever entry point scored a row.
"""

from __future__ import annotations

import abc
import math
import operator
from typing import Dict, Sequence, Type

import numpy as np

from repro.resources import EPSILON, ordered_sum

__all__ = [
    "AlignmentScorer",
    "CosineAlignment",
    "L2NormDiffAlignment",
    "L2NormRatioAlignment",
    "FFDProdAlignment",
    "FFDSumAlignment",
    "ALIGNMENT_SCORERS",
    "get_scorer",
]


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right from 0.0 like
    :func:`ordered_sum` (``sum(axis=1)`` goes pairwise from eight
    columns on)."""
    out = np.zeros(matrix.shape[0])
    for column in matrix.T:
        out += column
    return out


class AlignmentScorer(abc.ABC):
    """Scores a (normalized demand, normalized availability) pair."""

    name = "base"

    @abc.abstractmethod
    def score(
        self, demand: Sequence[float], available: Sequence[float]
    ) -> float:
        """Higher scores are scheduled first."""

    @abc.abstractmethod
    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        """Score an ``(N, dims)`` demand matrix against one availability row.

        A closed-form vectorized version that matches :meth:`score`
        bit-for-bit.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CosineAlignment(AlignmentScorer):
    """Tetris's scorer: dot product of normalized demand and availability."""

    name = "cosine"

    def score(
        self, demand: Sequence[float], available: Sequence[float]
    ) -> float:
        return ordered_sum(map(operator.mul, demand, available))

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        return _row_sums(demands * available)


class L2NormDiffAlignment(AlignmentScorer):
    """Negated squared distance between demand and availability."""

    name = "l2norm-diff"

    def score(
        self, demand: Sequence[float], available: Sequence[float]
    ) -> float:
        return -ordered_sum(d * d for d in map(operator.sub, demand, available))

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        diff = demands - available
        return -_row_sums(diff * diff)


class L2NormRatioAlignment(AlignmentScorer):
    """Sum of squared per-dimension fill ratios d_i / a_i."""

    name = "l2norm-ratio"

    def score(
        self, demand: Sequence[float], available: Sequence[float]
    ) -> float:
        total = 0.0
        for d, a in zip(demand, available):
            ratio = d / a if a > EPSILON else 0.0
            total += ratio * ratio
        return total

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(available > EPSILON, demands / available, 0.0)
        return _row_sums(ratio * ratio)


class FFDProdAlignment(AlignmentScorer):
    """Product of the task's non-zero normalized demands (its 'volume')."""

    name = "ffd-prod"

    def score(
        self, demand: Sequence[float], available: Sequence[float]
    ) -> float:
        nonzero = [d for d in demand if d > EPSILON]
        return math.prod(nonzero, start=1.0) if nonzero else 0.0

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        active = demands > EPSILON
        # multiplying by exact 1.0 is exact, so padding the excluded
        # dimensions with ones preserves the scalar product bit-for-bit
        padded = np.where(active, demands, 1.0)
        out = padded.prod(axis=1)
        out[~active.any(axis=1)] = 0.0
        return out


class FFDSumAlignment(AlignmentScorer):
    """Sum of the task's normalized demands (its L1 'size')."""

    name = "ffd-sum"

    def score(
        self, demand: Sequence[float], available: Sequence[float]
    ) -> float:
        return ordered_sum(demand)

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        return _row_sums(demands)


ALIGNMENT_SCORERS: Dict[str, Type[AlignmentScorer]] = {
    cls.name: cls
    for cls in (
        CosineAlignment,
        L2NormDiffAlignment,
        L2NormRatioAlignment,
        FFDProdAlignment,
        FFDSumAlignment,
    )
}


def get_scorer(name: str) -> AlignmentScorer:
    """Instantiate a scorer by its Table 8 name."""
    try:
        return ALIGNMENT_SCORERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown alignment scorer {name!r}; "
            f"choose from {sorted(ALIGNMENT_SCORERS)}"
        ) from None
