"""Core types, validation, application, and the support predicates."""

from __future__ import annotations

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    product_loops,
    rand_simplex,
    rand_skew,
    rand_tensor,
    reference_validate,
    sparse_operator,
)
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
    classify_op,
    conjugate,
    from_canonical,
    is_orthogonality_preserving,
    is_volterra,
    iterate,
    kernel_is_volterra,
    kernel_volterra_oracle,
    op_family,
    orthogonal,
    support,
    v2_condition_system,
    validate,
    volterra_certificate,
)
import qso
from qso import core
from qso.core import EPS_VAL, _clean_prob_vector, _image, as_integer, check_unit
from qso.serialize import (
    kernel_from_obj,
    skew_from_obj,
    spec_from_obj,
    tensor_from_obj,
    tensor_to_obj,
)
from qso.errors import DimensionMismatch, ParameterOutOfRange


GENERIC_PARAMS = (0.3, 0.6, 0.9)


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

    def test_a_zero_vector_is_no_point_at_any_eps(self):
        # an image is only divided by its sum, so a NaN point would run on
        message = "^simplex point sums to 0.0, expected 1 within 1$"
        for coords in ([0.0, 0.0], [-0.5, 0.0]):
            with pytest.raises(InvalidPoint, match=message):
                SimplexPoint(coords, eps=1.0)
        assert SimplexPoint([0.0, 0.25], eps=1.0).coords.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("coords", [[], [[0.5, 0.5]], 1.0])
    def test_rejects_empty_or_non_vector_coordinates(self, coords):
        with pytest.raises(InvalidPoint, match="^simplex point must be a nonempty 1-d vector$"):
            SimplexPoint(coords)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidPoint, match="contains non-finite entries"):
            SimplexPoint([0.5, bad, 0.5])

    def test_overflowing_sum_of_finite_entries_reports_the_sum(self):
        with pytest.raises(InvalidPoint, match="sums to .*inf"):
            SimplexPoint([1e308, 1e308])

    @pytest.mark.parametrize("cls, label", [(SimplexPoint, "simplex point"),
                                            (DiscreteMeasure, "measure")])
    def test_integers_beyond_the_float_range_are_invalid_points(self, cls, label):
        message = f"^{label} has an entry too large for a float: int too large to convert"
        for coords in ([10**400, 0], [0.5, -(10**309)]):
            with pytest.raises(InvalidPoint, match=message):
                cls(coords)

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


class TestQsoTensorSign:
    """Every coefficient of a QsoTensor is >= 0; the constructor refuses the rest."""

    @pytest.mark.parametrize("value", [-0.5, -1e-300, -np.inf])
    def test_negative_coefficient_is_refused_at_construction(self, value):
        p = np.full((2, 2, 2), 0.5)
        p[0, 0] = [1.0 - value, value]
        message = f"^coefficient below zero: min entry = {value:.3e}$"
        with pytest.raises(NegativeCoefficient, match=message):
            QsoTensor(2, p)

    def test_contradictory_volterra_tensor_is_refused(self):
        # p[k, k, k] = 1 and, on edge (i, j) with third vertex k, 0.6 at i, 0.5
        # at j and -0.1 at k: its forbidden entries are negative, so the support
        # predicates called it Volterra and OP while its images left the simplex
        p = np.zeros((3, 3, 3))
        for k in range(3):
            p[k, k, k] = 1.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (0, 2, 1)):
            p[i, j, [i, j, k]] = p[j, i, [i, j, k]] = [0.6, 0.5, -0.1]
        assert np.allclose(p.sum(axis=2), 1.0)  # stochastic and symmetric
        with pytest.raises(NegativeCoefficient, match="min entry = -1.000e-01"):
            QsoTensor(3, p)
        with pytest.raises(NegativeCoefficient):
            validate(p)

    def test_negative_zero_and_nan(self):
        p = np.full((2, 2, 2), 0.5)
        p[0, 1] = p[1, 0] = [-0.0, 1.0]  # a stochastic slice holding -0.0
        assert QsoTensor(2, p).p[0, 1, 0].hex() == (-0.0).hex()
        p[0, 1, 0] = p[1, 0, 0] = np.nan  # NaN != NaN: the symmetry check speaks first
        with pytest.raises(NotSymmetric):
            QsoTensor(2, p)


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


def _outcome(build, p, mode, eps):
    """What ``build`` makes of p: the result's size and bytes, or its error's type and text."""
    try:
        V = build(p, mode, eps=eps)
    except qso.QsoError as exc:
        return type(exc), str(exc)
    assert V.p.flags.c_contiguous and not V.p.flags.writeable
    return V.m, V.p.tobytes()


# entries that sit on validate's edges: signed zeros, noise within and past
# eps on either side of 0 and 1, and non-finite values
_EDGE_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, -5e-10, -1e-9, -2e-9, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 0.5,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(-1e-8, 1e-8),
)


@st.composite
def _raw_cubes(draw):
    """A raw m x m x m array (m = 2..5) in C, Fortran, axis-permuted or broadcast layout."""
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["stochastic", "random", "broadcast"]))
    if kind == "broadcast":
        row = rng.dirichlet(np.ones(m))
        row[draw(st.integers(0, m - 1))] = draw(st.sampled_from([-0.0, 0.0, -5e-10]))
        return np.broadcast_to(row, (m, m, m))
    p = rng.random((m, m, m))
    if kind == "stochastic":
        p = (p + p.transpose(1, 0, 2)) / 2.0
        p /= p.sum(axis=2, keepdims=True)
    for _ in range(draw(st.integers(0, 4))):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        v = draw(_EDGE_VALUES)
        if draw(st.booleans()):  # a small change, mirrored or not
            p[i, j, k] += v if math.isfinite(v) else 0.0
        else:
            p[i, j, k] = v
        if draw(st.booleans()):
            p[j, i, k] = p[i, j, k]
    layout = draw(st.sampled_from(["C", "F", "permuted"]))
    if layout == "F":
        return np.asfortranarray(p)
    if layout == "permuted":
        return np.ascontiguousarray(p.transpose(2, 0, 1)).transpose(1, 2, 0)
    return p


def rescaled_reference(p, mode, *, eps):
    """``reference_validate``, its result divided by its slice sums if one is more than EPS_VAL off.

    The reference keeps strict slices that are up to ``eps`` off as they
    are; ``validate`` rescales them, so that its result is a tensor.
    """
    V = reference_validate(p, mode, eps=eps)
    sums = V.p.sum(axis=2, keepdims=True)
    if np.abs(sums - 1.0).max() <= EPS_VAL:
        return V
    return QsoTensor._trusted(V.m, V.p / sums)


class TestValidateMatchesReference:
    """``validate`` gives the bits, errors and messages of the pre-in-place version."""

    @settings(max_examples=400, deadline=None)
    @given(p=_raw_cubes(), mode=st.sampled_from(["strict", "normalize"]),
           eps=st.sampled_from([EPS_VAL, 0.0, 1e-6, 0.2]))
    def test_same_bits_and_errors(self, p, mode, eps):
        before = p.tobytes()
        assert _outcome(validate, p, mode, eps) == _outcome(rescaled_reference, p, mode, eps)
        assert p.tobytes() == before  # the input is never written

    @pytest.mark.parametrize("m", [30, 100])
    def test_large_sizes(self, m):
        rng = np.random.default_rng(1100 + m)
        raw = rng.random((m, m, m))
        good = validate(raw, mode="normalize").p
        noisy = good + 1e-12 * rng.standard_normal(good.shape)
        noisy[0, 0, 0] = -5e-10
        for p in (raw, good, noisy):
            for mode in ("strict", "normalize"):
                assert _outcome(validate, p, mode, EPS_VAL) == _outcome(
                    reference_validate, p, mode, EPS_VAL)

    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("mode", ["strict", "normalize"])
    def test_result_is_the_only_cube_made(self, mode, negative):
        # at m = 100 a float cube is 8 MB; the clamp's mask is a bool cube
        m = 100
        p = validate(np.random.default_rng(1200).random((m, m, m)), mode="normalize").p.copy()
        if negative:  # moved within slice (1, 1), which stays stochastic
            p[0, 0, 1] += p[0, 0, 0] + 5e-10
            p[0, 0, 0] = -5e-10
        tracemalloc.start()
        try:
            V = validate(p, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.m == m
        assert peak < 1.25 * m**3 * 8


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
        # apply, iterate and kernel_apply take the division-only path, which
        # gives the bits of the full check of the einsum image
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
                assert _image(V.p, x.coords).tobytes() == want.tobytes()


def public_image(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The image as the public calls give it: ``np.einsum``, ``.sum()``, the division."""
    out = np.einsum("ijk,i,j->k", p, x, x)
    total = out.sum()
    if abs(total - 1.0) <= EPS_VAL:
        return out / total
    return _clean_prob_vector(out, EPS_VAL, "simplex point")


def image_cases(m: int):
    """(p, x) pairs on random dense and sparse operators, some x holding -0.0."""
    rng = np.random.default_rng(4200 + m)
    sparse = sparse_operator(rng, m, m, lambda i, j: int(rng.integers(1, 3)))
    for V in (rand_tensor(rng, m), sparse, from_canonical(rand_skew(rng, m))):
        yield V.p, rand_simplex(rng, m).coords
        x = rand_simplex(rng, m, n_zeros=m // 2).coords
        yield V.p, x
        yield V.p, np.where(x == 0.0, -0.0, x)


class TestImageBits:
    """``_image`` calls the einsum past numpy's dispatch: the bits do not move."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_same_bytes_as_the_public_calls(self, m):
        cases = list(image_cases(m))
        assert any(np.signbit(x).any() for _, x in cases)
        for p, x in cases:
            assert _image(p, x).tobytes() == public_image(p, x).tobytes()

    def test_a_public_einsum_without_implementation_gives_the_same_bytes(self):
        # a numpy whose einsum has no ``_implementation`` makes _image call
        # the public function; the module reads it once, at import
        child = (
            "import sys, numpy as np\n"
            "einsum = np.einsum\n"
            "np.einsum = lambda *args, **kwargs: einsum(*args, **kwargs)\n"
            "import qso.core as core\n"
            "assert core._einsum is np.einsum\n"
            "for m in range(2, 13):\n"
            "    rng = np.random.default_rng(m)\n"
            "    p = core.validate(rng.random((m, m, m)), mode='normalize').p\n"
            "    x = rng.dirichlet(np.ones(m))\n"
            "    x[0] = -0.0\n"
            "    sys.stdout.write(core._image(p, x / x.sum()).tobytes().hex() + '\\n')\n"
        )
        src = os.path.dirname(os.path.dirname(qso.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        want = []
        for m in range(2, 13):
            rng = np.random.default_rng(m)
            p = validate(rng.random((m, m, m)), mode="normalize").p
            x = rng.dirichlet(np.ones(m))
            x[0] = -0.0
            want.append(public_image(p, x / x.sum()).tobytes().hex())
        assert out == want
        if hasattr(np.einsum, "_implementation"):
            assert core._einsum is np.einsum._implementation


def assert_trusted(V: QsoTensor) -> None:
    """A tensor built through ``QsoTensor._trusted`` passes the checked constructor."""
    assert not V.p.flags.writeable
    W = QsoTensor(V.m, V.p)
    assert W.p.tobytes() == V.p.tobytes()


#: parameters in [0, 1] including the corners and -0.0, which a spec keeps
_UNIT = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _noisy_kernels(draw):
    """A kernel array: stochastic rows with a few symmetric changes within EPS_VAL."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.dirichlet(np.ones(n), size=(n, n))
    q = (q + q.transpose(1, 0, 2)) / 2.0
    if draw(st.booleans()):  # exact zeros, as in a Volterra kernel
        q[rng.random((n, n, n)) < 0.4] = 0.0
        q = (q + q.transpose(1, 0, 2)) / 2.0
        q[q.sum(axis=2) == 0.0] = 1.0 / n
        q /= q.sum(axis=2, keepdims=True)
    for _ in range(draw(st.integers(0, 3))):
        x, y, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        q[x, y, k] = q[y, x, k] = q[x, y, k] + draw(st.sampled_from([-5e-10, 5e-10, -1e-9]))
    return n, q


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
        # the kernel constructor clamps entries in [-EPS_VAL, 0) to 0, so its
        # tensor passes the constructor's sign check too
        q = from_canonical(rand_skew(np.random.default_rng(525 + n), n)).p.copy()
        q[0, 0, 1] = -5e-10  # a zero entry of the vertex image e_1
        q[0, 0, 0] += 5e-10
        assert_trusted(FiniteKernel(n, q).to_tensor())

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_tensor_from_obj(self, m):
        V = rand_tensor(np.random.default_rng(530 + m), m)
        for mode in ("strict", "normalize"):
            assert_trusted(tensor_from_obj(tensor_to_obj(V), mode=mode))

    @settings(max_examples=150, deadline=None)
    @given(family=st.integers(1, 6), params=st.tuples(_UNIT, _UNIT, _UNIT),
           sigma=st.permutations(range(3)))
    def test_drawn_op_family_and_its_conjugates(self, family, params, sigma):
        V = op_family(OpFamilySpec(family, *params))
        assert_trusted(V)
        assert_trusted(conjugate(V, Permutation(sigma)))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), corners=st.booleans())
    def test_drawn_from_canonical_and_conjugate(self, seed, m, corners):
        rng = np.random.default_rng(seed)
        r = rng.choice([-1.0, 0.0, 1.0], (m, m)) if corners else rng.uniform(-1.0, 1.0, (m, m))
        V = from_canonical(SkewMatrix(m, np.triu(r, 1) - np.triu(r, 1).T))
        assert_trusted(V)
        assert_trusted(conjugate(V, Permutation(rng.permutation(m))))
        assert_trusted(conjugate(rand_tensor(rng, m), Permutation(rng.permutation(m))))

    @settings(max_examples=300, deadline=None)
    @given(p=_raw_cubes(), mode=st.sampled_from(["strict", "normalize"]),
           eps=st.sampled_from([EPS_VAL, 0.0, 1e-6, 0.2]))
    def test_drawn_validate(self, p, mode, eps):
        try:
            V = validate(p, mode, eps=eps)
        except qso.QsoError:
            return
        assert_trusted(V)

    @settings(max_examples=150, deadline=None)
    @given(kernel=_noisy_kernels())
    def test_drawn_kernel_to_tensor(self, kernel):
        n, q = kernel
        try:
            K = FiniteKernel(n, q)
        except qso.QsoError:
            return
        if n >= 2:
            assert_trusted(K.to_tensor())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6),
           mode=st.sampled_from(["strict", "normalize"]))
    def test_drawn_tensor_from_obj(self, seed, m, mode):
        rng = np.random.default_rng(seed)
        for V in (rand_tensor(rng, m), from_canonical(rand_skew(rng, m))):
            assert_trusted(tensor_from_obj(tensor_to_obj(V), mode=mode))


class TestStochasticSlices:
    """Every slice of a QsoTensor sums to one within EPS_VAL; the constructor refuses the rest."""

    def test_arrays_that_are_not_operators_are_refused(self):
        family = op_family(OpFamilySpec(1, *GENERIC_PARAMS)).p
        doubled_vertex = family.copy()
        doubled_vertex[0, 0] *= 2.0
        one_slice_off = family.copy()
        one_slice_off[1, 2] = one_slice_off[2, 1] = 1.5 * family[1, 2]
        for p, message in [
            (np.zeros((3, 3, 3)), "slice (1, 1) sums to 0.0; off by 1.000e+00"),
            (np.full((3, 3, 3), np.inf), "slice (1, 1) sums to inf; off by inf"),
            (0.5 * family, "slice (1, 1) sums to 0.5; off by 5.000e-01"),
            (doubled_vertex, "slice (1, 1) sums to 2.0; off by 1.000e+00"),
            (one_slice_off, "slice (2, 3) sums to 1.5; off by 5.000e-01"),
        ]:
            with pytest.raises(NotStochastic, match=f"^{re.escape(message)}$"):
                QsoTensor(3, p)

    def test_finite_slices_that_sum_past_the_float_range_are_refused_without_a_warning(self):
        # pytest turns RuntimeWarning into an error, so an overflow warning fails this
        p = np.full((2, 2, 2), 0.5)
        p[0, 0] = [1e308, 1e308]
        with pytest.raises(NotStochastic, match=r"^slice \(1, 1\) sums to inf; off by inf$"):
            QsoTensor(2, p)

    def test_the_tolerance_is_eps_val(self):
        p = uniform_tensor(3)
        for scale in (1.0 - 5e-10, 1.0 + 5e-10):
            assert QsoTensor(3, scale * p).p.tobytes() == (scale * p).tobytes()
        p = p.copy()
        p[1, 2, 0] = p[2, 1, 0] = p[1, 2, 0] + 2e-9  # slices (2, 3) and (3, 2) off by 2e-9
        with pytest.raises(NotStochastic, match=r"^slice \(2, 3\) sums to 1.000000002"):
            QsoTensor(3, p)

    def test_same_message_as_strict_validate(self):
        p = 0.9 * op_family(OpFamilySpec(4, *GENERIC_PARAMS)).p
        with pytest.raises(NotStochastic) as constructor:
            QsoTensor(3, p)
        with pytest.raises(NotStochastic) as strict:
            validate(p)
        assert str(constructor.value) == str(strict.value)

    @pytest.mark.parametrize("family", range(1, 7))
    def test_strict_with_a_larger_eps_gives_an_operator(self, family):
        # slices that sum to 0.9 are rescaled, so every consumer takes the
        # result and agrees with the normalized tensor
        raw = 0.9 * op_family(OpFamilySpec(family, *GENERIC_PARAMS)).p
        V = validate(raw, "strict", eps=0.2)
        W = validate(raw, "normalize")
        assert V.p.tobytes() == W.p.tobytes()
        assert np.abs(V.p.sum(axis=2) - 1.0).max() <= EPS_VAL
        x = SimplexPoint([0.5, 0.3, 0.2])
        assert apply(V, x).coords.tobytes() == apply(W, x).coords.tobytes()
        got, want = iterate(V, x, max_iter=200), iterate(W, x, max_iter=200)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert got.coords.tobytes() == want.coords.tobytes()
        assert volterra_certificate(V) is volterra_certificate(W) is (family == 2)
        assert FiniteKernel.from_tensor(V).q.tobytes() == FiniteKernel(3, W.p).q.tobytes()
        spec = classify_op(V)
        assert spec == classify_op(W)
        assert spec.family == family
        assert np.allclose(spec.params, GENERIC_PARAMS, rtol=0.0, atol=1e-15)

    def test_strict_rescales_only_past_eps_val(self):
        # slice sums 1 + 2^-20: accepted at eps = 2^-20 exactly, and rescaled
        p = np.full((2, 2, 2), 0.5)
        p[:, :, 0] += 2.0**-20
        assert (p.sum(axis=2) == 1.0 + 2.0**-20).all()
        V = validate(p, "strict", eps=2.0**-20)
        assert V.p.tobytes() == (p / (1.0 + 2.0**-20)).tobytes()
        with pytest.raises(NotStochastic, match="off by 9.537e-07$"):
            validate(p, "strict", eps=2.0**-21)
        # within EPS_VAL nothing moves, whatever eps allows
        q = uniform_tensor(3) * (1.0 + 5e-10)
        for eps in (EPS_VAL, 1e-6, 0.2):
            assert validate(q, "strict", eps=eps).p.tobytes() == q.tobytes()

    def test_strict_rescales_a_clamp_that_pushes_a_sum_past_eps_val(self):
        # each raw slice sums to ~1 + 8e-10, within EPS_VAL; clamping its two
        # -1e-9 entries adds 2e-9
        row = np.array([-1e-9, -1e-9, 0.5 + 1.4e-9, 0.5 + 1.4e-9])
        p = np.broadcast_to(row, (4, 4, 4))
        assert np.abs(p.sum(axis=2) - 1.0).max() <= EPS_VAL
        V = validate(p)
        clamped = np.maximum(row, 0.0)
        assert (V.p == clamped / clamped.sum()).all()
        assert_trusted(V)

    def test_strict_with_eps_of_one_refuses_an_empty_slice(self):
        p = uniform_tensor(3).copy()
        p[0, 2, :] = p[2, 0, :] = 0.0  # off by exactly one
        with pytest.raises(NotStochastic, match="^cannot rescale a slice with non-positive sum$"):
            validate(p, "strict", eps=1.0)
        V = validate(uniform_tensor(3) * 0.25, "strict", eps=1.0)
        assert V.p.tobytes() == validate(uniform_tensor(3), "normalize").p.tobytes()


def other_layouts(a: np.ndarray) -> list[np.ndarray]:
    """The values of the C-ordered cube ``a`` in a Fortran and an axis-permuted layout."""
    return [np.asfortranarray(a), np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)]


class TestOneLayout:
    """Operator arrays are C-ordered: what a builder returns depends on the values alone."""

    @staticmethod
    def assert_same(build, c_input, others) -> None:
        want = build(c_input)
        assert want.flags.c_contiguous
        for a in others:
            assert not a.flags.c_contiguous and np.array_equal(a, c_input)
            got = build(a)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    # m = 12: the slice sums of a Fortran-ordered array, read as it lies,
    # round differently, which changed the bits of nearly every such array
    @pytest.mark.parametrize("m", [2, 3, 7, 12])
    def test_any_layout_gives_the_c_bytes(self, m):
        rng = np.random.default_rng(900 + m)
        raw = rng.random((m, m, m))
        good = validate(raw, mode="normalize").p
        row = rng.dirichlet(np.ones(m))
        flat = np.ascontiguousarray(np.broadcast_to(row, (m, m, m)))
        builders = {
            "normalize": lambda a: validate(a, mode="normalize").p,
            "strict": lambda a: validate(a, mode="strict").p,
            "kernel": lambda a: FiniteKernel(m, a).q,
            "tensor": lambda a: QsoTensor(m, a).p,
        }
        self.assert_same(builders["normalize"], raw, other_layouts(raw))
        for build in builders.values():
            self.assert_same(build, good, other_layouts(good))
            self.assert_same(build, flat, [np.broadcast_to(row, (m, m, m))])


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


class TestProbeMask:
    """``core._probe_mask``: the one support rule of the Volterra, kernel and OP verdicts."""

    @pytest.mark.parametrize("level", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("m", range(2, 10))
    def test_mask_is_the_probe_rule(self, m, level):
        mask = core._probe_mask(m, level)
        eye = np.eye(m)
        want = np.array([[[(eye[i] + eye[j])[k] / 2 <= level for k in range(m)]
                          for j in range(m)] for i in range(m)])
        assert mask.dtype == bool and np.array_equal(mask, want)
        if level == 0.0:  # the forbidden entries, as an ogrid mask built them
            i, j, k = np.ogrid[:m, :m, :m]
            assert np.array_equal(mask, (k != i) & (k != j))
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0, 0] = True

    def test_verdicts_share_one_mask(self):
        rng = np.random.default_rng(62)
        V = rand_tensor(rng, 3)
        W = op_family(OpFamilySpec(int(rng.integers(1, 7)), *rng.random(3)))
        core._probe_mask.cache_clear()
        assert not is_volterra(V) and is_orthogonality_preserving(W)
        assert not kernel_is_volterra(FiniteKernel.from_tensor(V))
        info = core._probe_mask.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


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
            "is_volterra": lambda eps: is_volterra(V, eps),
            "to_canonical": lambda eps: to_canonical(V, eps),
            "kernel_is_volterra": lambda eps: kernel_is_volterra(K, eps),
            "assoc_solutions_v2": lambda eps: assoc_solutions_v2(eps),
        }

    @pytest.mark.parametrize("eps", [float("nan"), -1e-9, -1.0])
    @pytest.mark.parametrize(
        "site",
        ["validate", "validate_normalize", "SimplexPoint", "is_volterra",
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

    @pytest.mark.parametrize(
        "site,value,message",
        [
            ("is_volterra", "1e-9", r"eps must be nonnegative, got '1e-9'"),
            ("iterate", None, r"tol must be positive, got None"),
            ("is_associative", [1], r"eps must be nonnegative, got \[1\]"),
            ("volterra_certificate", None, r"eps must be positive, got None"),
            ("refute_associativity", "0.05", r"grid_step must be in \(0, 0.1\], got '0.05'"),
            ("is_volterra", True, r"eps must be nonnegative, got True"),
            ("is_volterra", np.True_, r"eps must be nonnegative, got True"),
            ("is_volterra", b"0", r"eps must be nonnegative, got b'0'"),
            ("is_volterra", (1e-9,), r"eps must be nonnegative, got \(1e-09,\)"),
            ("is_volterra", np.array([1e-9]), r"eps must be nonnegative, got array"),
        ],
        ids=["volterra-text", "iterate-None", "associative-list", "certificate-None",
             "refute-text", "bool", "numpy-bool", "bytes", "tuple", "array"],
    )
    def test_non_numbers_are_parameter_errors(self, site, value, message):
        # a non-number used to escape as a bare TypeError from the comparison
        from qso import is_associative, is_volterra, refute_associativity, volterra_certificate

        V, x = validate(uniform_tensor(3)), SimplexPoint.barycenter(3)
        call = {
            "is_volterra": lambda: is_volterra(V, value),
            "iterate": lambda: iterate(V, x, tol=value),
            "is_associative": lambda: is_associative(V, value),
            "volterra_certificate": lambda: volterra_certificate(V, value),
            "refute_associativity": lambda: refute_associativity(1, value),
        }[site]
        with pytest.raises(ParameterOutOfRange, match=f"^{message}"):
            call()

    @pytest.mark.parametrize("value", [0, 1e-9, np.float32(1e-3), np.int64(0), np.float64(0.5)])
    def test_numpy_and_int_tolerances_still_pass(self, value):
        from qso.core import check_tol

        check_tol("eps", value)

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
    def test_positive_form_keeps_its_message(self, value):
        from qso.core import check_tol

        with pytest.raises(ParameterOutOfRange, match=rf"^tol must be positive, got {value!r}$"):
            check_tol("tol", value, positive=True)

    @pytest.mark.parametrize(
        "value, want",
        [(1e-9, 1e-9), (0, 0.0), (3, 3.0), (np.float32(0.5), 0.5), (np.float64(0.25), 0.25),
         (np.int64(2), 2.0), (Fraction(1, 10**9), 1e-9), (float("inf"), float("inf"))],
    )
    def test_returns_the_tolerance_as_a_float(self, value, want):
        from qso.core import check_tol

        got = check_tol("eps", value)
        assert type(got) is float and got == want

    def test_a_positive_fraction_that_rounds_to_zero_is_not_positive(self):
        from qso.core import check_tol

        assert check_tol("eps", Fraction(1, 10**400)) == 0.0
        with pytest.raises(ParameterOutOfRange, match=r"^tol must be positive, got Fraction\("):
            check_tol("tol", Fraction(1, 10**400), positive=True)

    @pytest.mark.parametrize(
        "value, rounded",
        [(Fraction(1, 10**5000), "0.0"), (Fraction(-10**5000, 10**5000 + 1), "-1.0")],
    )
    def test_a_fraction_past_the_str_digit_limit_is_worded_by_its_float(self, value, rounded):
        # its repr raises ValueError past 4 300 digits, which used to escape
        # from the message of the rule error
        V, x = validate(uniform_tensor(3)), SimplexPoint.barycenter(3)
        with pytest.raises(ParameterOutOfRange,
                           match=rf"^tol must be positive, got a Fraction that rounds to {rounded}$"):
            iterate(V, x, tol=value)

    @pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3)])
    @pytest.mark.parametrize(
        "site",
        ["iterate", "fixed_points_on_vertices", "is_volterra", "to_canonical",
         "volterra_certificate", "is_orthogonality_preserving", "classify_op-eps",
         "classify_op-vertex_tol", "is_associative", "assoc_solutions_v2",
         "kernel_is_volterra", "volterra_violation_witness", "support", "validate",
         "SimplexPoint"],
    )
    def test_past_the_float_range_is_a_parameter_error(self, site, value):
        # float() overflows on these: the guard used to accept them, and the
        # call then raised a bare OverflowError (or decided on the int)
        from qso import (assoc_solutions_v2, fixed_points_on_vertices, is_associative,
                         to_canonical, volterra_violation_witness)

        V = op_family(OpFamilySpec(1, 0.2, 0.3, 0.4))
        x = SimplexPoint.barycenter(3)
        K = FiniteKernel(3, V.p)
        call, name = {
            "iterate": (lambda: iterate(V, x, tol=value), "tol"),
            "fixed_points_on_vertices": (lambda: fixed_points_on_vertices(V, value), "tol"),
            "is_volterra": (lambda: is_volterra(V, value), "eps"),
            "to_canonical": (lambda: to_canonical(V, value), "eps"),
            "volterra_certificate": (lambda: volterra_certificate(V, value), "eps"),
            "is_orthogonality_preserving":
                (lambda: is_orthogonality_preserving(V, eps_supp=value), "eps_supp"),
            "classify_op-eps": (lambda: classify_op(V, eps=value), "eps"),
            "classify_op-vertex_tol": (lambda: classify_op(V, vertex_tol=value), "vertex_tol"),
            "is_associative": (lambda: is_associative(V, value), "eps"),
            "assoc_solutions_v2": (lambda: assoc_solutions_v2(value), "eps"),
            "kernel_is_volterra": (lambda: kernel_is_volterra(K, value), "eps"),
            "volterra_violation_witness": (lambda: volterra_violation_witness(K, value), "eps"),
            "support": (lambda: support(x, value), "eps_supp"),
            "validate": (lambda: validate(V.p, eps=value), "eps"),
            "SimplexPoint": (lambda: SimplexPoint([0.5, 0.5], eps=value), "eps"),
        }[site]
        kind = type(value).__name__
        with pytest.raises(ParameterOutOfRange,
                           match=rf"^{name} must fit in a float; this {kind} overflows it$"):
            call()

    def test_iterate_with_a_fraction_runs_on_its_float(self):
        # a Fraction tolerance was compared with the float arrays in object
        # mode, with numpy RuntimeWarnings
        V = op_family(OpFamilySpec(1, 0.2, 0.3, 0.4))
        for x0 in (SimplexPoint.barycenter(3), SimplexPoint([0.7, 0.1, 0.2])):
            for tol in (Fraction(1, 10**9), Fraction(1, 3)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = iterate(V, x0, max_iter=300, tol=tol)
                want = iterate(V, x0, max_iter=300, tol=float(tol))
                assert got.coords.tobytes() == want.coords.tobytes()
                assert (got.status, got.cycle_length) == (want.status, want.cycle_length)


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
