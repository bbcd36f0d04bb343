"""Core types, validation, application, and the support predicates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import product_loops, rand_simplex, rand_tensor
from qso import (
    InvalidPoint,
    NegativeCoefficient,
    NotStochastic,
    NotSymmetric,
    OpFamilySpec,
    QsoTensor,
    SimplexPoint,
    abs_continuous,
    apply,
    op_family,
    orthogonal,
    support,
    validate,
)
from qso.errors import DimensionMismatch


def uniform_tensor(m: int) -> np.ndarray:
    return np.full((m, m, m), 1.0 / m)


class TestSimplexPoint:
    def test_clamps_noise_negatives_to_exact_zero(self):
        x = SimplexPoint([0.5, 0.5 + 1e-13, -1e-13])
        assert x.coords[2] == 0.0
        assert x.coords.sum() == pytest.approx(1.0, abs=1e-15)

    def test_renormalizes_sum(self):
        x = SimplexPoint([0.3 + 1e-12, 0.7])
        assert x.coords.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_genuine_negative(self):
        with pytest.raises(InvalidPoint):
            SimplexPoint([0.5, 0.6, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidPoint):
            SimplexPoint([0.5, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidPoint, match="contains non-finite entries"):
            SimplexPoint([0.5, bad, 0.5])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_of_finite_entries_reports_the_sum(self):
        with pytest.raises(InvalidPoint, match="sums to .*inf"):
            SimplexPoint([1e308, 1e308])

    def test_clamped_negatives_renormalize_by_the_clamped_sum(self):
        x = SimplexPoint([0.25, 0.75 + 8e-10, -8e-10])
        clamped = np.array([0.25, 0.75 + 8e-10, 0.0])
        assert np.array_equal(x.coords, clamped / clamped.sum())
        assert x.coords.sum() == pytest.approx(1.0, abs=1e-15)

    def test_vertex_and_barycenter(self):
        e2 = SimplexPoint.vertex(3, 2)
        assert e2.coords.tolist() == [0.0, 1.0, 0.0]
        assert SimplexPoint.barycenter(4).coords.tolist() == [0.25] * 4

    def test_immutable(self):
        x = SimplexPoint([1.0, 0.0])
        with pytest.raises(ValueError):
            x.coords[0] = 0.5


class TestValidate:
    def test_uniform_kernel_is_valid(self):
        V = validate(uniform_tensor(3))
        assert V.m == 3
        assert np.allclose(V.p.sum(axis=2), 1.0)

    def test_entry_above_one_rejected_in_both_modes(self):
        p = uniform_tensor(3).copy()
        p[0, 0, :] = 0.0
        p[0, 0, 0] = 1.5
        for mode in ("strict", "normalize"):
            with pytest.raises((NotStochastic, NegativeCoefficient)):
                validate(p, mode=mode)

    def test_negative_entry_rejected(self):
        p = uniform_tensor(3).copy()
        p[0, 1, 2] = -0.2
        with pytest.raises(NegativeCoefficient):
            validate(p, mode="normalize")

    def test_strict_rejects_asymmetry_and_bad_sums(self):
        p = uniform_tensor(3).copy()
        p[0, 1, 2] += 0.01
        with pytest.raises(NotSymmetric):
            validate(p, mode="strict")
        q = uniform_tensor(3) * 0.9
        with pytest.raises(NotStochastic):
            validate(q, mode="strict")

    def test_normalize_repairs_asymmetry_and_sums(self):
        rng = np.random.default_rng(3)
        p = rng.random((3, 3, 3))
        V = validate(p, mode="normalize")
        assert np.array_equal(V.p, V.p.transpose(1, 0, 2))
        assert np.allclose(V.p.sum(axis=2), 1.0, atol=1e-15)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("b", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("g", [0.0, 0.8, 1.0])
    def test_family1_heredity_table_is_valid(self, a, b, g):
        # assembled directly from the family-1 coefficient table
        p = np.zeros((3, 3, 3))
        for (i, j, k), v in {
            (1, 1, 3): 1.0, (2, 2, 2): 1.0, (3, 3, 1): 1.0,
            (1, 2, 2): a, (1, 2, 3): 1 - a,
            (2, 3, 1): b, (2, 3, 2): 1 - b,
            (1, 3, 1): g, (1, 3, 3): 1 - g,
        }.items():
            p[i - 1, j - 1, k - 1] = v
            p[j - 1, i - 1, k - 1] = v
        V = validate(p, mode="strict")
        assert np.array_equal(V.p, op_family(OpFamilySpec(1, a, b, g)).p)

    def test_non_cubic_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate(np.zeros((3, 3, 2)))

    def test_strict_eps_override(self):
        q = uniform_tensor(3) * (1.0 - 1e-7)
        with pytest.raises(NotStochastic):
            validate(q, mode="strict")
        V = validate(q, mode="strict", eps=1e-6)
        assert abs(V.p.sum(axis=2).max() - 1.0) <= 1e-6

    def test_direct_construction_requires_exact_symmetry(self):
        p = uniform_tensor(3).copy()
        p[0, 1, 0] += 1e-12
        with pytest.raises(NotSymmetric):
            QsoTensor(3, p)


class TestApply:
    def test_vertex_image_is_diagonal_slice(self):
        rng = np.random.default_rng(11)
        V = rand_tensor(rng, 4)
        for k in range(1, 5):
            img = apply(V, SimplexPoint.vertex(4, k))
            assert np.allclose(img.coords, V.p[k - 1, k - 1, :], atol=1e-12)

    def test_half_parameter_family2_is_identity(self):
        V = op_family(OpFamilySpec(2, 0.5, 0.5, 0.5))
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rand_simplex(rng, 3)
            assert np.allclose(apply(V, x).coords, x.coords, atol=1e-14)

    def test_uniform_kernel_maps_to_barycenter(self):
        V = validate(uniform_tensor(3))
        rng = np.random.default_rng(6)
        for _ in range(10):
            out = apply(V, rand_simplex(rng, 3))
            assert np.allclose(out.coords, 1.0 / 3.0, atol=1e-12)

    def test_dimension_mismatch(self):
        V = validate(uniform_tensor(3))
        with pytest.raises(DimensionMismatch):
            apply(V, SimplexPoint([0.5, 0.5]))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5))
    def test_simplex_preservation(self, seed, m):
        rng = np.random.default_rng(seed)
        V = rand_tensor(rng, m)
        x = rand_simplex(rng, m, n_zeros=int(rng.integers(0, m)))
        out = apply(V, x)
        assert out.coords.min() >= 0.0
        assert abs(out.coords.sum() - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5))
    def test_apply_equals_square_product(self, seed, m):
        rng = np.random.default_rng(seed)
        V = rand_tensor(rng, m)
        x = rand_simplex(rng, m)
        assert np.allclose(
            apply(V, x).coords, product_loops(V.p, x.coords, x.coords), atol=1e-12
        )


class TestSupportPredicates:
    def test_support_examples(self):
        assert support(SimplexPoint([1, 0, 0])) == {1}
        assert support(SimplexPoint([0.5, 0.5, 0])) == {1, 2}
        assert support(SimplexPoint.barycenter(3)) == {1, 2, 3}

    def test_support_threshold_override(self):
        x = SimplexPoint([1.0 - 1e-6, 1e-6, 0.0])
        assert support(x) == {1, 2}
        assert support(x, eps_supp=1e-5) == {1}
        with pytest.raises(ValueError):
            support(x, eps_supp=0.0)

    def test_abs_continuous_examples(self):
        x = SimplexPoint([0.5, 0.5, 0.0])
        y = SimplexPoint([0.3, 0.3, 0.4])
        assert abs_continuous(x, y)
        assert not abs_continuous(SimplexPoint([0, 1, 0]), SimplexPoint([0.5, 0, 0.5]))
        assert abs_continuous(x, x)

    def test_orthogonal_examples(self):
        assert orthogonal(SimplexPoint([1, 0, 0]), SimplexPoint([0, 0.5, 0.5]))
        assert not orthogonal(SimplexPoint([0.5, 0.5, 0]), SimplexPoint([0, 0.5, 0.5]))
        x = SimplexPoint([0.2, 0.8])
        assert not orthogonal(x, x)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            abs_continuous(SimplexPoint([1, 0]), SimplexPoint([1, 0, 0]))
        with pytest.raises(DimensionMismatch):
            orthogonal(SimplexPoint([1, 0]), SimplexPoint([1, 0, 0]))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
    def test_orthogonal_agrees_with_dot_product(self, seed, m):
        rng = np.random.default_rng(seed)
        x = rand_simplex(rng, m, n_zeros=int(rng.integers(0, m)))
        y = rand_simplex(rng, m, n_zeros=int(rng.integers(0, m)))
        assert orthogonal(x, y) == (float(x.coords @ y.coords) <= 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
    def test_abs_continuity_is_a_preorder(self, seed, m):
        rng = np.random.default_rng(seed)
        # nested supports give a non-vacuous transitivity chain
        small = rand_simplex(rng, m, n_zeros=int(rng.integers(1, m)))
        mid_w = small.coords + rng.exponential(size=m) * (small.coords > 0)
        mid = SimplexPoint(mid_w / mid_w.sum())
        big_w = mid.coords.copy()
        big_w[rng.integers(m)] += 0.5
        big = SimplexPoint(big_w / big_w.sum())
        assert abs_continuous(small, small)
        assert abs_continuous(small, mid) and abs_continuous(mid, big)
        assert abs_continuous(small, big)
