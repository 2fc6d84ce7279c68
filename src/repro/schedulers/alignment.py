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

- :meth:`AlignmentScorer.score` — the scalar reference oracle, one
  (demand, available) pair at a time;
- :meth:`AlignmentScorer.score_batch` — the vectorized hot path: an
  ``(N, dims)`` matrix of normalized demand rows against one availability
  row, returning all N scores in one pass.  Implementations are written
  so batch and scalar results are *bit-identical* (same elementwise
  operations, same reduction order), which is what lets the vectorized
  Tetris packing engine reproduce the scalar scheduler's placements
  exactly.
"""

from __future__ import annotations

import abc
from typing import Dict, Type

import numpy as np

from repro.resources import EPSILON, ResourceVector

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


class AlignmentScorer(abc.ABC):
    """Scores a (normalized demand, normalized availability) pair."""

    name = "base"

    @abc.abstractmethod
    def score(
        self, demand: ResourceVector, available: ResourceVector
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
        self, demand: ResourceVector, available: ResourceVector
    ) -> float:
        # elementwise product + axis sum (not BLAS dot) so the batched
        # path below reduces in exactly the same order
        return float((demand.data * available.data).sum())

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        return (demands * available).sum(axis=1)


class L2NormDiffAlignment(AlignmentScorer):
    """Negated squared distance between demand and availability."""

    name = "l2norm-diff"

    def score(
        self, demand: ResourceVector, available: ResourceVector
    ) -> float:
        diff = demand.data - available.data
        return -float((diff * diff).sum())

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        diff = demands - available
        return -(diff * diff).sum(axis=1)


class L2NormRatioAlignment(AlignmentScorer):
    """Sum of squared per-dimension fill ratios d_i / a_i."""

    name = "l2norm-ratio"

    def score(
        self, demand: ResourceVector, available: ResourceVector
    ) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                available.data > EPSILON, demand.data / available.data, 0.0
            )
        return float((ratio * ratio).sum())

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(available > EPSILON, demands / available, 0.0)
        return (ratio * ratio).sum(axis=1)


class FFDProdAlignment(AlignmentScorer):
    """Product of the task's non-zero normalized demands (its 'volume')."""

    name = "ffd-prod"

    def score(
        self, demand: ResourceVector, available: ResourceVector
    ) -> float:
        nonzero = demand.data[demand.data > EPSILON]
        if nonzero.size == 0:
            return 0.0
        return float(np.prod(nonzero))

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
        self, demand: ResourceVector, available: ResourceVector
    ) -> float:
        return float(demand.data.sum())

    def score_batch(
        self, demands: np.ndarray, available: np.ndarray
    ) -> np.ndarray:
        return demands.sum(axis=1)


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
