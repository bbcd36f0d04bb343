"""Core types, validation, application, and the support predicates."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import product_loops, rand_simplex, rand_skew, rand_tensor
from qso import (
    DiscreteMeasure,
    FiniteKernel,
    InvalidPermutation,
    InvalidPoint,
    NegativeCoefficient,
    NotStochastic,
    NotSymmetric,
    OpFamilySpec,
    QsoTensor,
    SimplexPoint,
    SkewMatrix,
    Permutation,
    abs_continuous,
    apply,
    conjugate,
    from_canonical,
    iterate,
    kernel_volterra_oracle,
    op_family,
    orthogonal,
    support,
    v2_condition_system,
    validate,
)
from qso.core import EPS_VAL, _clean_prob_vector, _image, as_integer, check_unit
from qso.serialize import (
    kernel_from_obj,
    skew_from_obj,
    spec_from_obj,
    tensor_from_obj,
    tensor_to_obj,
)
from qso.errors import DimensionMismatch, ParameterOutOfRange


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

    @pytest.mark.parametrize("coords", [[], [[0.5, 0.5]], 1.0])
    def test_rejects_empty_or_non_vector_coordinates(self, coords):
        with pytest.raises(InvalidPoint, match="^simplex point must be a nonempty 1-d vector$"):
            SimplexPoint(coords)

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

    def test_integral_float_vertex_label(self):
        assert SimplexPoint.vertex(3, 2.0).coords.tolist() == [0.0, 1.0, 0.0]
        assert SimplexPoint.vertex(3, np.int64(3)).coords.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("label", [1.5, True, False, "2", None, 0, 4, -1])
    def test_bad_vertex_label_is_a_dimension_error(self, label):
        with pytest.raises(DimensionMismatch, match="vertex label"):
            SimplexPoint.vertex(3, label)

    def test_integral_float_size(self):
        assert SimplexPoint.vertex(2.0, 1).coords.tolist() == [1.0, 0.0]
        assert SimplexPoint.barycenter(np.int64(2)).coords.tolist() == [0.5, 0.5]
        assert DiscreteMeasure.point_mass(3.0, 3).weights.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("m", [2.5, True, "3", None, 0, -1])
    def test_bad_size_is_a_dimension_error(self, m):
        with pytest.raises(DimensionMismatch, match="simplex point size"):
            SimplexPoint.vertex(m, 1)
        with pytest.raises(DimensionMismatch, match="simplex point size"):
            SimplexPoint.barycenter(m)
        with pytest.raises(DimensionMismatch, match="measure size"):
            DiscreteMeasure.point_mass(m, 1)


class TestQsoTensorSize:
    def test_integral_size_stored_as_int(self):
        for m in (2.0, np.int64(2)):
            V = QsoTensor(m, np.full((2, 2, 2), 0.5))
            assert type(V.m) is int and V.m == 2

    @pytest.mark.parametrize("m", [2.5, True, float("nan"), "2", None])
    def test_non_integral_size_is_a_dimension_error(self, m):
        with pytest.raises(DimensionMismatch, match="operator size must be an integer"):
            QsoTensor(m, np.full((2, 2, 2), 0.5))

    def test_one_species_is_no_operator(self):
        with pytest.raises(DimensionMismatch, match="^a QSO needs at least two species$"):
            QsoTensor(1, np.ones((1, 1, 1)))


class TestValidate:
    def test_uniform_kernel_is_valid(self):
        V = validate(uniform_tensor(3))
        assert V.m == 3
        assert np.allclose(V.p.sum(axis=2), 1.0)

    @pytest.mark.parametrize("m", [2, 100])
    @pytest.mark.parametrize(
        "value,error,message",
        [
            (float("nan"), NotStochastic, "tensor contains non-finite entries"),
            (float("inf"), NotStochastic, "tensor contains non-finite entries"),
            (float("-inf"), NotStochastic, "tensor contains non-finite entries"),
            (1e308, NotStochastic, "coefficient above one: max entry = 1e+308"),
            (-1e308, NegativeCoefficient, "coefficient below zero: min entry = -1.000e+308"),
        ],
    )
    def test_extremes_decide_finiteness_and_bounds(self, m, value, error, message):
        # validate reads finiteness from min and max: NaN and +-inf reach one of them
        p = uniform_tensor(m).copy()
        p[m - 1, 0, m // 2] = value
        for mode in ("strict", "normalize"):
            with pytest.raises(error, match=rf"^{re.escape(message)}$"):
                validate(p, mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "normalize"])
    def test_one_species_is_no_operator(self, mode):
        with pytest.raises(DimensionMismatch, match="^a QSO needs at least two species$"):
            validate(np.ones((1, 1, 1)), mode=mode)

    def test_normalize_rejects_an_empty_slice(self):
        p = uniform_tensor(3).copy()
        p[0, 2, :] = p[2, 0, :] = 0.0
        with pytest.raises(NotStochastic, match="^cannot rescale a slice with non-positive sum$"):
            validate(p, mode="normalize")

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


    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_same_bits_as_the_full_point_check(self, m):
        # apply takes the full check of the einsum image; iterate and kernel_apply
        # take the division-only path for nonnegative coefficients, with the same bits
        rng = np.random.default_rng(40 + m)
        tensors = [rand_tensor(rng, m) for _ in range(5)]
        if m == 3:
            tensors += [op_family(OpFamilySpec(f, *rng.random(3))) for f in range(1, 7)]
        for V in tensors:
            for _ in range(20):
                x = rand_simplex(rng, m, n_zeros=int(rng.integers(0, m)))
                want = _clean_prob_vector(np.einsum("ijk,i,j->k", V.p, x.coords, x.coords),
                                          EPS_VAL, "simplex point")
                assert apply(V, x).coords.tobytes() == want.tobytes()
                assert _image(V.p, x.coords, True).tobytes() == want.tobytes()

    def test_negative_coefficient_still_gets_the_full_check(self):
        p = np.full((2, 2, 2), 0.5)
        p[0, 0] = [1.5, -0.5]
        V = QsoTensor(2, p)
        with pytest.raises(InvalidPoint, match="negative entry"):
            apply(V, SimplexPoint.vertex(2, 1))


def assert_trusted(V: QsoTensor) -> None:
    """A tensor built through ``QsoTensor._trusted`` passes the checked constructor."""
    assert not V.p.flags.writeable
    W = QsoTensor(V.m, V.p)
    assert W.p.tobytes() == V.p.tobytes()


class TestTrustedBuilders:
    """Every builder that skips the constructor's checks gives what they accept."""

    def test_trusted_wraps_without_copying(self):
        p = np.zeros((2, 2, 2))
        V = QsoTensor._trusted(2, p)
        assert V.p is p and not p.flags.writeable and V.m == 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 100])
    def test_validate(self, m):
        rng = np.random.default_rng(500 + m)
        raw = rng.random((m, m, m))
        assert_trusted(validate(raw, mode="normalize"))
        assert_trusted(validate(np.asfortranarray(raw), mode="normalize"))
        assert_trusted(validate(raw.transpose(2, 1, 0), mode="normalize"))
        good = validate(raw, mode="normalize").p
        noisy = good + 1e-12 * rng.standard_normal(good.shape)  # asymmetric noise within eps
        assert_trusted(validate(noisy, mode="strict"))
        assert_trusted(validate(np.asfortranarray(noisy), mode="strict"))
        assert_trusted(validate(good, mode="strict"))

    def test_validate_clamps_symmetrically(self):
        p = np.full((3, 3, 3), 1.0 / 3.0)
        p[0, 1, 2] -= 1e-10
        p[1, 0, 2] += 1e-10  # asymmetric within eps
        p[2, 2] = [1.0 + 5e-10, -5e-10, 0.0]
        for mode in ("strict", "normalize"):
            assert_trusted(validate(p, mode=mode))

    def test_op_family(self):
        rng = np.random.default_rng(510)
        for family in range(1, 7):
            for params in (rng.random(3), (0.0, 0.5, 1.0)):
                assert_trusted(op_family(OpFamilySpec(family, *params)))

    def test_conjugate(self):
        rng = np.random.default_rng(511)
        for m in (2, 3, 4):
            V = rand_tensor(rng, m)
            for sigma in itertools.permutations(range(m)):
                assert_trusted(conjugate(V, Permutation(sigma)))

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 40])
    def test_from_canonical(self, m):
        assert_trusted(from_canonical(rand_skew(np.random.default_rng(512 + m), m)))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_kernel_to_tensor(self, n):
        V = rand_tensor(np.random.default_rng(520 + n), n)
        K = FiniteKernel.from_tensor(V)
        W = K.to_tensor()
        assert_trusted(W)
        assert W.p is K.q  # both read-only, so they can share

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_tensor_from_obj(self, m):
        V = rand_tensor(np.random.default_rng(530 + m), m)
        for mode in ("strict", "normalize"):
            assert_trusted(tensor_from_obj(tensor_to_obj(V), mode=mode))


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


class TestTypedParameterErrors:
    def test_unknown_validate_mode(self):
        with pytest.raises(ParameterOutOfRange, match="mode must be one of"):
            validate(uniform_tensor(3), mode="x")

    @pytest.mark.parametrize("eps_supp", [0.0, -1e-12])
    def test_nonpositive_support_threshold(self, eps_supp):
        with pytest.raises(ParameterOutOfRange, match="eps_supp must be positive"):
            support(SimplexPoint([0.5, 0.5]), eps_supp=eps_supp)

    @pytest.mark.parametrize("eps_supp", [float("nan"), 0.0, -1.0])
    def test_nan_support_threshold(self, eps_supp):
        # a NaN threshold used to make every support empty
        x, y = SimplexPoint([0.5, 0.5]), SimplexPoint([0.25, 0.75])
        for f in (orthogonal, abs_continuous):
            with pytest.raises(ParameterOutOfRange, match="eps_supp must be positive"):
                f(x, y, eps_supp=eps_supp)


class TestToleranceGuard:
    # every tolerance parameter goes through core.check_tol: NaN used to
    # give a verdict (or an unnormalized tensor) instead of an error
    @staticmethod
    def sites():
        from qso import assoc_solutions_v2, is_volterra, kernel_is_volterra, to_canonical

        V = validate(uniform_tensor(3))
        K = FiniteKernel(3, uniform_tensor(3))
        return {
            "validate": lambda eps: validate(uniform_tensor(3), eps=eps),
            "validate_normalize": lambda eps: validate(uniform_tensor(3), "normalize", eps=eps),
            "SimplexPoint": lambda eps: SimplexPoint([-3.0, 2.0], eps=eps),
            "apply": lambda eps: apply(V, SimplexPoint([0.2, 0.3, 0.5]), eps=eps),
            "is_volterra": lambda eps: is_volterra(V, eps),
            "to_canonical": lambda eps: to_canonical(V, eps),
            "kernel_is_volterra": lambda eps: kernel_is_volterra(K, eps),
            "assoc_solutions_v2": lambda eps: assoc_solutions_v2(eps),
        }

    @pytest.mark.parametrize("eps", [float("nan"), -1e-9, -1.0])
    @pytest.mark.parametrize(
        "site",
        ["validate", "validate_normalize", "SimplexPoint", "apply", "is_volterra",
         "to_canonical", "kernel_is_volterra", "assoc_solutions_v2"],
    )
    def test_nan_and_negative_eps_raise(self, site, eps):
        with pytest.raises(ParameterOutOfRange, match=r"^eps must be nonnegative, got "):
            self.sites()[site](eps)

    def test_nan_eps_no_longer_passes_an_unstochastic_tensor(self):
        p = np.zeros((3, 3, 3))
        p[:, :, 0] = [[0.95, 1.0, 1.0], [1.0, 1.75, 1.0], [1.0, 1.0, 1.32]]
        with pytest.raises(ParameterOutOfRange):
            validate(p, eps=float("nan"))
        with pytest.raises(NotStochastic):
            validate(p)

    def test_negative_eps_is_not_a_negative_coefficient(self):
        with pytest.raises(ParameterOutOfRange, match="eps must be nonnegative, got -0.1"):
            validate(uniform_tensor(3), eps=-0.1)

    def test_zero_eps_still_decides(self):
        assert validate(uniform_tensor(3), eps=0.0).m == 3
        assert SimplexPoint([0.5, 0.5], eps=0.0).m == 2

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
    def test_positive_form_keeps_its_message(self, value):
        from qso.core import check_tol

        with pytest.raises(ParameterOutOfRange, match=rf"^tol must be positive, got {value!r}$"):
            check_tol("tol", value, positive=True)


class TestAsInteger:
    @pytest.mark.parametrize("value,want", [(3, 3), (3.0, 3), (-2, -2), (np.int64(4), 4)])
    def test_integral_values(self, value, want):
        assert as_integer(value) == want

    @pytest.mark.parametrize(
        "value", [1.7, -0.5, True, False, np.True_, "3", None, float("nan"), float("inf"), [1]]
    )
    def test_non_integral_values(self, value):
        assert as_integer(value) is None


_V2 = QsoTensor(2, np.full((2, 2, 2), 0.5))
_K2 = FiniteKernel(2, np.full((2, 2, 2), 0.5))

# each integer argument site: its call, its typed error, and a value below its
# bound (None where the argument has no bound)
_INTEGER_SITES = {
    "simplex point size, vertex": (lambda v: SimplexPoint.vertex(v, 1), DimensionMismatch, 0),
    "simplex point size, barycenter": (SimplexPoint.barycenter, DimensionMismatch, 0),
    "measure size": (lambda v: DiscreteMeasure.point_mass(v, 1), DimensionMismatch, 0),
    "vertex label": (lambda v: SimplexPoint.vertex(3, v), DimensionMismatch, 0),
    "operator size": (lambda v: QsoTensor(v, _V2.p), DimensionMismatch, 1),
    "skew matrix size": (lambda v: SkewMatrix(v, np.zeros((2, 2))), DimensionMismatch, 0),
    "kernel size": (lambda v: FiniteKernel(v, _K2.q), DimensionMismatch, 0),
    "permutation image": (lambda v: Permutation((v, 0)), InvalidPermutation, -1),
    "permutation size": (Permutation.identity, DimensionMismatch, -1),
    "max_iter": (lambda v: iterate(_V2, SimplexPoint.barycenter(2), max_iter=v),
                 ParameterOutOfRange, 0),
    "window": (lambda v: iterate(_V2, SimplexPoint.barycenter(2), window=v),
               ParameterOutOfRange, None),
    "n_measures": (lambda v: kernel_volterra_oracle(_K2, n_measures=v), ParameterOutOfRange, -1),
    "tensor m": (lambda v: tensor_from_obj({"m": v, "entries": []}), DimensionMismatch, -1),
    "kernel n": (lambda v: kernel_from_obj({"n": v, "q": []}), DimensionMismatch, -1),
    "skew matrix m": (lambda v: skew_from_obj({"m": v, "a": []}), DimensionMismatch, -1),
}
_NON_INTEGERS = [True, 2.5, float("nan"), "3", np.float64(2.5)]

_UNIT_SITES = {
    "OpFamilySpec": lambda v: OpFamilySpec(1, v, 0.5, 0.5),
    "v2_condition_system": lambda v: v2_condition_system(v, 0.5, 0.5),
    "spec_from_obj": lambda v: spec_from_obj({"family": 1, "alpha": v, "beta": 0.5, "gamma": 0.5}),
}


class TestArgumentGuards:
    """Every integer and [0, 1] argument goes through the one guard for its rule."""

    @pytest.mark.parametrize(
        "site,value,integral",
        [(site, v, False) for site in _INTEGER_SITES for v in _NON_INTEGERS]
        + [(site, low, True) for site, (_, _, low) in _INTEGER_SITES.items() if low is not None],
        ids=repr,
    )
    def test_integer_sites(self, site, value, integral):
        call, error, _ = _INTEGER_SITES[site]
        with pytest.raises(error) as info:
            call(value)
        message = str(info.value)
        assert "np." not in message
        assert integral or "must be an integer, got " in message

    @pytest.mark.parametrize("site", sorted(_UNIT_SITES))
    @pytest.mark.parametrize(
        "value",
        [-0.1, 1.5, float("nan"), np.float64(2.0), "x", None, pytest.param(10**400, id="10**400"), 1j,
         "0.5", b"0.25", bytearray(b"1"), True, False, np.True_, [0.3]],
        ids=repr,
    )
    def test_unit_sites(self, site, value):
        with pytest.raises(ParameterOutOfRange, match=r"^alpha = .+ outside \[0, 1\]$") as info:
            _UNIT_SITES[site](value)
        assert "np." not in str(info.value)

    def test_integral_identity_sizes_are_accepted(self):
        assert Permutation.identity(3.0).sigma == (0, 1, 2)
        assert Permutation.identity(np.int64(0)).sigma == ()

    def test_bool_permutation_images_raise(self):
        for images in ((True, False), (False, True), (np.True_, 0)):
            with pytest.raises(InvalidPermutation, match="permutation image must be an integer"):
                Permutation(images)

    def test_integral_permutation_images_are_stored_as_ints(self):
        perm = Permutation((np.int64(1), 0.0, 2))
        assert perm.sigma == (1, 0, 2) and all(type(s) is int for s in perm.sigma)
        with pytest.raises(InvalidPermutation, match=r"^\(1, 1\) is not a bijection of 0..1$"):
            Permutation((np.int64(1), 1.0))

    def test_lower_bound_message(self):
        with pytest.raises(ParameterOutOfRange, match="^max_iter must be at least 1, got 0$"):
            iterate(_V2, SimplexPoint.barycenter(2), max_iter=0.0)
        message = "^simplex point size must be at least 1, got 0$"
        with pytest.raises(DimensionMismatch, match=message):
            SimplexPoint.barycenter(np.int64(0))

    def test_numpy_scalars_print_as_python_values(self):
        with pytest.raises(ParameterOutOfRange, match="^eps must be nonnegative, got -1.0$"):
            SimplexPoint([0.5, 0.5], eps=np.float64(-1))
        with pytest.raises(ParameterOutOfRange, match="^max_iter must be an integer, got 2.5$"):
            iterate(_V2, SimplexPoint.barycenter(2), max_iter=np.float64(2.5))

    def test_unit_values_are_returned_unclamped(self):
        for v in (-EPS_VAL, 0.25, 1.0 + EPS_VAL, np.float64(0.5)):
            assert check_unit("alpha", v) == v and type(check_unit("alpha", v)) is float
        assert OpFamilySpec(1, 1.0 + EPS_VAL, -EPS_VAL, 0.5).params == (1.0, 0.0, 0.5)
