"""Volterra detection, canonical form, and the finite certificate."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from helpers import (
    canonical_image,
    rand_kernel,
    rand_simplex,
    rand_skew,
    rand_tensor,
    rand_volterra_kernel,
    rand_volterra_tensor,
    reference_certificate,
    reference_forbidden_max,
    reference_from_canonical,
)
from qso import (
    EPS_VAL,
    NotVolterra,
    OpFamilySpec,
    QsoTensor,
    SimplexPoint,
    SkewMatrix,
    apply,
    check_abs_continuity_property,
    from_canonical,
    is_volterra,
    kernel_is_volterra,
    op_family,
    to_canonical,
    validate,
    volterra_certificate,
)
from qso.errors import DimensionMismatch, InvalidSkew, ParameterOutOfRange
from qso.volterra import _forbidden_max


def volterra_like_with_forbidden_mass(value: float) -> QsoTensor:
    """Vertex conditions hold, but slice (1, 2) leaks ``value`` onto k = 3."""
    p = np.zeros((3, 3, 3))
    for k in range(3):
        p[k, k, k] = 1.0
    p[0, 1] = p[1, 0] = [(1 - value) / 2, (1 - value) / 2, value]
    p[0, 2] = p[2, 0] = [0.5, 0.0, 0.5]
    p[1, 2] = p[2, 1] = [0.0, 0.5, 0.5]
    return QsoTensor(3, p)


class TestIsVolterra:
    @pytest.mark.parametrize("params", [(0, 0, 0), (0.2, 0.7, 1.0), (1, 1, 1)])
    def test_family2_is_volterra(self, params):
        assert is_volterra(op_family(OpFamilySpec(2, *params)))

    def test_zero_skew_gives_identity_and_is_volterra(self):
        V = from_canonical(SkewMatrix(3, np.zeros((3, 3))))
        assert is_volterra(V)
        x = SimplexPoint([0.2, 0.3, 0.5])
        assert np.allclose(apply(V, x).coords, x.coords, atol=1e-15)

    def test_family1_is_not_volterra(self):
        V = op_family(OpFamilySpec(1, 0.4, 0.5, 0.6))
        assert V.p[0, 0, 2] == 1.0
        assert not is_volterra(V)


class TestCanonicalForm:
    def test_family2_parameters(self):
        a, b, g = 0.3, 0.6, 0.9
        skew = to_canonical(op_family(OpFamilySpec(2, a, b, g)))
        assert skew.a[0, 1] == pytest.approx(2 * a - 1, abs=1e-15)
        assert skew.a[0, 2] == pytest.approx(2 * g - 1, abs=1e-15)
        assert skew.a[1, 2] == pytest.approx(2 * b - 1, abs=1e-15)
        assert np.allclose(skew.a, -skew.a.T)

    def test_half_coefficients_give_zero_matrix(self):
        V = from_canonical(SkewMatrix(4, np.zeros((4, 4))))
        assert np.array_equal(to_canonical(V).a, np.zeros((4, 4)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_round_trip_from_skew(self, m):
        rng = np.random.default_rng(20 + m)
        for _ in range(50):
            a = rand_skew(rng, m)
            back = to_canonical(from_canonical(a))
            assert np.abs(back.a - a.a).max() <= 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_round_trip_from_tensor(self, m):
        rng = np.random.default_rng(30 + m)
        for _ in range(50):
            V = rand_volterra_tensor(rng, m)
            back = from_canonical(to_canonical(V))
            assert np.abs(back.p - V.p).max() <= 1e-12

    def test_two_species_closed_form(self):
        # a[1,2] = 1 gives (x + xy, y - xy)
        V = from_canonical(SkewMatrix(2, np.array([[0.0, 1.0], [-1.0, 0.0]])))
        rng = np.random.default_rng(2)
        for _ in range(20):
            pt = rand_simplex(rng, 2)
            x, y = pt.coords
            assert np.allclose(apply(V, pt).coords, [x + x * y, y - x * y], atol=1e-14)

    def test_formula_agreement_on_samples(self):
        rng = np.random.default_rng(8)
        for m in (2, 3, 4):
            for _ in range(20):
                V = rand_volterra_tensor(rng, m)
                a = to_canonical(V)
                x = rand_simplex(rng, m, n_zeros=int(rng.integers(0, m)))
                assert np.allclose(
                    apply(V, x).coords, canonical_image(a.a, x.coords), atol=1e-10
                )

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 13, 30])
    def test_from_canonical_matches_the_loop_bit_for_bit(self, m):
        rng = np.random.default_rng(90 + m)
        skews = [rand_skew(rng, m) for _ in range(5)]
        corners = np.triu(rng.choice([-1.0, 0.0, 1.0], size=(m, m)), 1)
        skews += [SkewMatrix(m, corners - corners.T), SkewMatrix(m, np.zeros((m, m)))]
        for a in skews:
            got, want = from_canonical(a), reference_from_canonical(a)
            assert got.p.tobytes() == want.p.tobytes()
            assert not got.p.flags.writeable

    def test_one_species_skew_matrix_is_no_operator(self):
        a = SkewMatrix(1, np.zeros((1, 1)))
        with pytest.raises(DimensionMismatch, match="^a QSO needs at least two species$"):
            from_canonical(a)

    def test_skew_size_is_an_integer(self):
        a = SkewMatrix(2.0, np.zeros((2, 2)))
        assert type(a.m) is int and a.m == 2
        same = from_canonical(SkewMatrix(2, np.zeros((2, 2))))
        assert from_canonical(a).p.tobytes() == same.p.tobytes()
        for m in (2.5, True, float("nan"), "2"):
            with pytest.raises(DimensionMismatch, match="skew matrix size must be an integer"):
                SkewMatrix(m, np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch, match="at least one species"):
            SkewMatrix(0, np.zeros((0, 0)))

    def test_from_canonical_always_volterra(self):
        rng = np.random.default_rng(9)
        for m in (2, 3, 5):
            assert is_volterra(from_canonical(rand_skew(rng, m)))

    def test_to_canonical_rejects_non_volterra(self):
        with pytest.raises(NotVolterra):
            to_canonical(op_family(OpFamilySpec(1, 0.1, 0.2, 0.3)))

    def test_to_canonical_tolerates_noise_level_forbidden_mass(self):
        V = volterra_like_with_forbidden_mass(1e-10)
        assert is_volterra(V)
        skew = to_canonical(V)
        assert np.allclose(skew.a, -skew.a.T)

    def test_to_canonical_accepts_what_is_volterra_accepts(self):
        # forbidden mass eps at three outputs of slice (1, 2) moves
        # a[0, 1] + a[1, 0] off zero by 6 eps, beyond SkewMatrix's tolerance
        p = from_canonical(rand_skew(np.random.default_rng(14), 5)).p.copy()
        for k in (2, 3, 4):
            p[0, 1, k] = p[1, 0, k] = EPS_VAL
        p[0, 1, 0] -= 3 * EPS_VAL
        p[1, 0, 0] -= 3 * EPS_VAL
        V = validate(p)
        assert is_volterra(V)
        raw = 2.0 * np.einsum("kik->ki", V.p) - 1.0
        assert np.abs(raw + raw.T).max() / 2.0 > EPS_VAL
        a = to_canonical(V).a
        assert np.array_equal(a, (raw - raw.T) / 2.0)
        assert np.array_equal(a, -a.T)

    def test_invalid_skew_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidSkew, match="^matrix contains non-finite entries$"):
                SkewMatrix(2, np.array([[0.0, bad], [-bad, 0.0]]))
        with pytest.raises(InvalidSkew):
            SkewMatrix(2, np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(InvalidSkew):
            SkewMatrix(2, np.array([[0.0, 1.5], [-1.5, 0.0]]))

    def test_fixed_vertices_exactly(self):
        rng = np.random.default_rng(10)
        for m in (2, 3, 4):
            V = rand_volterra_tensor(rng, m)
            for k in range(1, m + 1):
                e = SimplexPoint.vertex(m, k)
                assert np.array_equal(apply(V, e).coords, e.coords)


class TestAbsContinuityProperty:
    def test_volterra_passes_on_random_samples(self):
        rng = np.random.default_rng(12)
        V = rand_volterra_tensor(rng, 3)
        samples = [rand_simplex(rng, 3, n_zeros=int(rng.integers(0, 3))) for _ in range(50)]
        assert check_abs_continuity_property(V, samples)

    def test_family1_fails_at_first_vertex(self):
        V = op_family(OpFamilySpec(1, 0.4, 0.5, 0.6))
        assert not check_abs_continuity_property(V, [SimplexPoint.vertex(3, 1)])

    def test_full_support_samples_never_violate(self):
        rng = np.random.default_rng(13)
        V = rand_tensor(rng, 3)
        samples = [rand_simplex(rng, 3) for _ in range(20)]
        assert check_abs_continuity_property(V, samples)

    def test_empty_samples_rejected(self):
        V = rand_tensor(np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            check_abs_continuity_property(V, [])


class TestCertificate:
    def test_true_for_volterra(self):
        rng = np.random.default_rng(14)
        for m in (2, 3, 4):
            assert volterra_certificate(rand_volterra_tensor(rng, m))

    def test_detects_forbidden_mass_at_midpoint(self):
        V = volterra_like_with_forbidden_mass(0.1)
        # vertex images are exact vertices, so only the midpoint can tell
        for k in range(1, 4):
            e = SimplexPoint.vertex(3, k)
            assert np.array_equal(apply(V, e).coords, e.coords)
        assert not volterra_certificate(V)
        assert not is_volterra(V)

    def test_uniform_kernel_fails_at_a_vertex(self):
        V = validate(np.full((3, 3, 3), 1.0 / 3.0))
        assert not check_abs_continuity_property(V, [SimplexPoint.vertex(3, 1)], eps_supp=1e-9)
        assert not volterra_certificate(V)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_certificate_equals_is_volterra_on_random_tensors(self, m):
        rng = np.random.default_rng(40 + m)
        for trial in range(100):
            V = rand_volterra_tensor(rng, m) if trial % 2 else rand_tensor(rng, m)
            assert volterra_certificate(V) == is_volterra(V)


def test_empty_samples_raise_a_typed_error():
    V = rand_tensor(np.random.default_rng(0), 3)
    with pytest.raises(ParameterOutOfRange, match="samples must be nonempty"):
        check_abs_continuity_property(V, [])


class TestCertificateMatchesReference:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_random_tensors(self, m):
        rng = np.random.default_rng(80 + m)
        for trial in range(6):
            V = rand_volterra_tensor(rng, m) if trial % 2 else rand_tensor(rng, m)
            got = volterra_certificate(V)
            assert got == reference_certificate(V) == is_volterra(V)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("factor", [0.25, 4.0])
    def test_one_forbidden_entry_outside_the_straddle_band(self, m, factor):
        rng = np.random.default_rng(90 + m)
        for _ in range(10):
            p = rand_volterra_tensor(rng, m).p.copy()
            k = int(rng.integers(m))
            i, j = sorted(int(a) for a in rng.choice([c for c in range(m) if c != k], size=2))
            value = factor * EPS_VAL
            for a, b in {(i, j), (j, i)}:
                p[a, b, k] = value
                p[a, b, i] -= value
            V = QsoTensor(m, p)
            got = volterra_certificate(V)
            assert got == reference_certificate(V) == is_volterra(V) == (factor < 1)

    @pytest.mark.parametrize("eps", [1e-3, 0.3, 0.5, 0.7, 1.0, 2.0])
    def test_large_eps_shrinks_the_probe_supports_alike(self, eps):
        rng = np.random.default_rng(95)
        for m in (2, 3, 4):
            for trial in range(10):
                V = rand_volterra_tensor(rng, m) if trial % 2 else rand_tensor(rng, m)
                assert volterra_certificate(V, eps) == reference_certificate(V, eps)

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1e-9])
    def test_eps_must_be_positive(self, eps):
        uniform = validate(np.full((3, 3, 3), 1.0 / 3.0))
        with pytest.raises(ParameterOutOfRange):
            volterra_certificate(uniform, eps)


@pytest.mark.parametrize("values", [(0.01, 0.03), (0.03, 0.01), (1e-8, 0.0)])
def test_not_volterra_message_names_the_largest_forbidden_entry(values):
    p = from_canonical(SkewMatrix(3, np.zeros((3, 3)))).p.copy()
    for (i, j, k), v in zip(((0, 1, 2), (0, 2, 1)), values):
        p[i, j, k] = p[j, i, k] = v
        p[i, j, i] = p[j, i, i] = p[i, j, i] - v
    V = QsoTensor(3, p)
    with pytest.raises(NotVolterra, match=f"^forbidden mass {max(values):.3e} exceeds 1e-09$"):
        to_canonical(V)


def assert_forbidden_max_matches_gather(p: np.ndarray) -> None:
    """_forbidden_max and every verdict built on it agree with the gather oracle."""
    want = reference_forbidden_max(p)
    assert _forbidden_max(p) == want
    V = QsoTensor(p.shape[0], p)
    assert is_volterra(V) == (want <= EPS_VAL)
    if want <= EPS_VAL:  # past the forbidden test; the skew check may still refuse it
        with contextlib.suppress(InvalidSkew):
            to_canonical(V)
    else:
        with pytest.raises(NotVolterra, match=f"^forbidden mass {want:.3e} exceeds 1e-09$"):
            to_canonical(V)


class TestForbiddenMaxMatchesGather:
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 30])
    def test_random_volterra_and_near_volterra(self, m):
        rng = np.random.default_rng(300 + m)
        for trial in range(6):
            V = rand_volterra_tensor(rng, m) if trial % 2 else rand_tensor(rng, m)
            assert_forbidden_max_matches_gather(V.p)
            if m > 2:  # one forbidden entry just below or above eps
                p = rand_volterra_tensor(rng, m).p.copy()
                p[0, 1, 2] = p[1, 0, 2] = EPS_VAL * (0.5 if trial % 2 else 2.0)
                assert_forbidden_max_matches_gather(p)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, -0.5])
    def test_unvalidated_entries(self, value):
        # QsoTensor checks only shape and exact symmetry (which rules out NaN),
        # so it can hold these
        p = from_canonical(rand_skew(np.random.default_rng(310), 4)).p.copy()
        p[0, 1, 2] = p[1, 0, 2] = value
        assert_forbidden_max_matches_gather(p)
        p[:] = -1.0  # every forbidden entry negative: the maximum is the initial 0
        assert_forbidden_max_matches_gather(p)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_kernels(self, n):
        # at n = 1 no entry is forbidden; at n = 2 only q[x, x, y] with y != x is
        rng = np.random.default_rng(320 + n)
        K = rand_kernel(rng, n)
        assert kernel_is_volterra(K) == (n == 1)
        for K in (K, rand_volterra_kernel(rng, n)):
            want = reference_forbidden_max(K.q)
            assert _forbidden_max(K.q) == want
            assert kernel_is_volterra(K) == (want <= EPS_VAL)
