"""ResourceModel / ResourceVector unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.resources import (
    DEFAULT_MODEL,
    FB_MACHINE_CAPACITY,
    ResourceModel,
    ResourceVector,
    ordered_sum,
)


def vec(**kw):
    return DEFAULT_MODEL.vector(**kw)


class TestOrderedSum:
    """Left-to-right float sums, whatever the interpreter's ``sum()``."""

    def test_tenths_round_as_plain_addition(self):
        # sum() gives 0.9999999999999999 on 3.11 and 1.0 from 3.12
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([]) == 0.0


class TestResourceModel:
    def test_default_model_dimensions(self):
        assert DEFAULT_MODEL.names == (
            "cpu", "mem", "diskr", "diskw", "netin", "netout",
        )
        assert DEFAULT_MODEL.dims == 6

    def test_memory_is_the_only_rigid_dimension(self):
        assert DEFAULT_MODEL.rigid_names() == ("mem",)
        assert set(DEFAULT_MODEL.fluid_names()) == {
            "cpu", "diskr", "diskw", "netin", "netout",
        }

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ResourceModel(("a", "a"))

    def test_unknown_fluid_name_rejected(self):
        with pytest.raises(ValueError):
            ResourceModel(("a", "b"), fluid=("c",))

    def test_vector_constructor_unknown_name(self):
        with pytest.raises(KeyError):
            DEFAULT_MODEL.vector(gpu=1)

    def test_zeros(self):
        assert DEFAULT_MODEL.zeros().is_zero()

    def test_equality_and_hash(self):
        m1 = ResourceModel(("a", "b"), fluid=("b",))
        m2 = ResourceModel(("a", "b"), fluid=("b",))
        m3 = ResourceModel(("a", "b"))
        assert m1 == m2 and hash(m1) == hash(m2)
        assert m1 != m3


class TestResourceVectorArithmetic:
    def test_add_sub(self):
        a = vec(cpu=2, mem=4)
        b = vec(cpu=1, mem=1)
        assert (a + b).get("cpu") == 3
        assert (a - b).get("mem") == 3

    def test_scale(self):
        assert (vec(cpu=2) * 2.5).get("cpu") == 5.0
        assert (2.5 * vec(cpu=2)).get("cpu") == 5.0

    def test_inplace(self):
        a = vec(cpu=2)
        a.add_inplace(vec(cpu=3))
        assert a.get("cpu") == 5
        a.sub_inplace(vec(cpu=1))
        assert a.get("cpu") == 4

    def test_cross_model_arithmetic_rejected(self):
        other = ResourceModel(("x", "y"))
        with pytest.raises(ValueError):
            vec(cpu=1) + other.zeros()

    def test_clamp_nonnegative(self):
        v = vec(cpu=1) - vec(cpu=3)
        assert v.get("cpu") == -2
        assert v.clamp_nonnegative().get("cpu") == 0

    def test_elementwise_min_max(self):
        a = vec(cpu=1, mem=5)
        b = vec(cpu=3, mem=2)
        assert a.elementwise_min(b).as_dict()["cpu"] == 1
        assert a.elementwise_min(b).as_dict()["mem"] == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ResourceVector(DEFAULT_MODEL, np.zeros(3))


class TestResourceVectorPredicates:
    def test_fits_in(self):
        assert vec(cpu=2, mem=2).fits_in(vec(cpu=2, mem=4))
        assert not vec(cpu=3).fits_in(vec(cpu=2, mem=100))

    def test_fits_in_tolerates_float_noise(self):
        assert vec(cpu=2.0 + 1e-12).fits_in(vec(cpu=2.0))

    def test_is_zero(self):
        assert DEFAULT_MODEL.zeros().is_zero()
        assert not vec(cpu=0.1).is_zero()

    def test_equality(self):
        assert vec(cpu=1) == vec(cpu=1)
        assert vec(cpu=1) != vec(cpu=2)


class TestScoring:
    def test_normalized_by(self):
        cap = vec(cpu=16, mem=48, diskr=200, diskw=200, netin=125, netout=125)
        n = vec(cpu=8, mem=12).normalized_by(cap)
        assert n.get("cpu") == pytest.approx(0.5)
        assert n.get("mem") == pytest.approx(0.25)

    def test_normalized_by_zero_capacity_dim(self):
        cap = vec(cpu=10)  # all other dims zero
        n = vec(cpu=5, mem=100).normalized_by(cap)
        assert n.get("cpu") == pytest.approx(0.5)
        assert n.get("mem") == 0.0

    def test_dominant_share(self):
        cap = vec(cpu=10, mem=100)
        assert vec(cpu=5, mem=20).dominant_share(cap) == pytest.approx(0.5)

    def test_total_and_norm(self):
        v = vec(cpu=3, mem=4)
        assert v.total() == 7

    def test_repr_mentions_nonzero_dims(self):
        assert "cpu=2" in repr(vec(cpu=2))


@st.composite
def vectors(draw):
    values = draw(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    return ResourceVector(DEFAULT_MODEL, np.array(values))


class TestVectorProperties:
    @given(vectors(), vectors())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(vectors(), vectors())
    def test_add_then_subtract_roundtrips(self, a, b):
        assert (a + b) - b == a

    @given(vectors())
    def test_self_always_fits_in_self(self, a):
        assert a.fits_in(a)

    @given(vectors(), vectors())
    def test_min_fits_in_both(self, a, b):
        m = a.elementwise_min(b)
        assert m.fits_in(a) and m.fits_in(b)

    @given(vectors())
    def test_normalization_bounded_by_dominant_share(self, a):
        cap = FB_MACHINE_CAPACITY
        n = a.normalized_by(cap)
        assert max(n.data) == pytest.approx(a.dominant_share(cap))
