"""Alignment scorer tests (Table 8 candidates)."""

import numpy as np
import pytest

from repro.resources import DEFAULT_MODEL, ResourceModel
from repro.schedulers.alignment import (
    ALIGNMENT_SCORERS,
    AlignmentScorer,
    CosineAlignment,
    FFDProdAlignment,
    FFDSumAlignment,
    L2NormDiffAlignment,
    L2NormRatioAlignment,
    get_scorer,
)


def vec(**kw):
    """A normalized vector as the plain floats ``score`` takes."""
    return DEFAULT_MODEL.vector(**kw).data.tolist()


class TestRegistry:
    def test_all_five_table8_scorers_present(self):
        assert set(ALIGNMENT_SCORERS) == {
            "cosine", "l2norm-diff", "l2norm-ratio", "ffd-prod", "ffd-sum",
        }

    def test_get_scorer(self):
        assert isinstance(get_scorer("cosine"), CosineAlignment)

    def test_unknown_scorer(self):
        with pytest.raises(ValueError, match="unknown alignment scorer"):
            get_scorer("magic")


class TestCosine:
    def test_dot_product(self):
        score = CosineAlignment().score(
            vec(cpu=0.5, mem=0.25), vec(cpu=1.0, mem=0.5)
        )
        assert score == pytest.approx(0.5 * 1.0 + 0.25 * 0.5)

    def test_prefers_larger_task(self):
        free = vec(cpu=1.0, mem=1.0)
        small = CosineAlignment().score(vec(cpu=0.1, mem=0.1), free)
        large = CosineAlignment().score(vec(cpu=0.5, mem=0.5), free)
        assert large > small

    def test_prefers_abundant_resource_users(self):
        """If the network is free, a network-intensive task scores higher
        than a disk-intensive one of the same total size (Section 1)."""
        free = vec(cpu=0.5, mem=0.5, diskr=0.1, netin=0.9)
        disk_task = vec(cpu=0.1, diskr=0.4)
        net_task = vec(cpu=0.1, netin=0.4)
        scorer = CosineAlignment()
        assert scorer.score(net_task, free) > scorer.score(disk_task, free)


class TestL2Norms:
    def test_diff_prefers_demand_close_to_availability(self):
        free = vec(cpu=0.5, mem=0.5)
        close = vec(cpu=0.5, mem=0.4)
        far = vec(cpu=0.1, mem=0.1)
        scorer = L2NormDiffAlignment()
        assert scorer.score(close, free) > scorer.score(far, free)

    def test_diff_perfect_fit_scores_zero(self):
        free = vec(cpu=0.3, mem=0.3)
        assert L2NormDiffAlignment().score(free, free) == 0.0

    def test_ratio_prefers_high_fill(self):
        free = vec(cpu=0.5, mem=0.5)
        scorer = L2NormRatioAlignment()
        assert scorer.score(vec(cpu=0.5), free) > scorer.score(
            vec(cpu=0.1), free
        )

    def test_ratio_ignores_zero_availability_dims(self):
        free = vec(cpu=0.5)
        score = L2NormRatioAlignment().score(vec(cpu=0.5, mem=0.2), free)
        assert score == pytest.approx(1.0)


class TestFFD:
    def test_prod_over_nonzero_dims(self):
        score = FFDProdAlignment().score(vec(cpu=0.5, mem=0.4), vec())
        assert score == pytest.approx(0.2)

    def test_prod_zero_task(self):
        assert FFDProdAlignment().score(vec(), vec()) == 0.0

    def test_sum(self):
        assert FFDSumAlignment().score(
            vec(cpu=0.5, mem=0.25), vec()
        ) == pytest.approx(0.75)

    def test_ffd_ignores_availability(self):
        a1 = vec(cpu=1.0, mem=1.0)
        a2 = vec(cpu=0.1, mem=0.1)
        d = vec(cpu=0.3, mem=0.3)
        assert FFDSumAlignment().score(d, a1) == FFDSumAlignment().score(d, a2)
        assert FFDProdAlignment().score(d, a1) == FFDProdAlignment().score(d, a2)


class TestScoreBatch:
    """``score`` (plain floats) and ``score_batch`` (numpy) must agree
    *bit-for-bit*: the Tetris fill loop scores a visit's kept rows
    through either, depending on how many fit, and its placements must
    not depend on which."""

    #: from nine dimensions on numpy's ``sum`` adds pairwise, not left
    #: to right
    NINE_DIMS = ResourceModel([f"r{i}" for i in range(9)])

    def _rows(self, seed, dims, n=40):
        rng = np.random.default_rng(seed)
        # magnitudes from 1e-6 to 1e6, so rounding differs by order
        demands = rng.uniform(0.5, 1.0, size=(n, dims)) * 10.0 ** rng.integers(
            -6, 7, size=(n, dims)
        )
        # sprinkle exact zeros: FFD-Prod's active-dimension logic and
        # L2-Norm-Ratio's zero-availability guard must agree with scalar
        demands[rng.uniform(size=demands.shape) < 0.3] = 0.0
        available = rng.uniform(0.5, 1.0, size=dims) * 10.0 ** rng.integers(
            -6, 7, size=dims
        )
        available[rng.uniform(size=dims) < 0.25] = 0.0
        # a clamped free vector can hold -0.0
        available[rng.uniform(size=dims) < 0.25] = -0.0
        return demands, available

    def _assert_bit_identical(self, name, seed, dims):
        scorer = get_scorer(name)
        demands, available = self._rows(seed, dims)
        batch = scorer.score_batch(demands, available)
        for i in range(demands.shape[0]):
            scalar = scorer.score(demands[i].tolist(), available.tolist())
            assert type(scalar) is float, name
            # bytes, so that -0.0 and 0.0 differ too
            assert batch[i].tobytes() == np.float64(scalar).tobytes(), (
                name, i
            )

    @pytest.mark.parametrize("name", sorted(ALIGNMENT_SCORERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_scalar_exactly(self, name, seed):
        self._assert_bit_identical(name, seed, DEFAULT_MODEL.dims)

    @pytest.mark.parametrize("name", sorted(ALIGNMENT_SCORERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nine_dims_match_exactly(self, name, seed):
        self._assert_bit_identical(name, seed, self.NINE_DIMS.dims)

    def test_nine_dims_defeat_numpy_sum(self):
        """The nine-dimension rows above would catch a scorer that
        reduced with numpy's ``sum``: it rounds them differently."""
        demands, available = self._rows(0, self.NINE_DIMS.dims)
        left_to_right = get_scorer("cosine").score_batch(demands, available)
        assert (left_to_right != (demands * available).sum(axis=1)).any()

    def test_base_scorer_has_no_batch(self):
        """``score_batch`` is abstract: a scorer must ship both paths."""
        class Custom(AlignmentScorer):
            def score(self, demand, available):
                return 0.0

        with pytest.raises(TypeError, match="score_batch"):
            Custom()
