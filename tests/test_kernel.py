"""Finite measure-kernel operators and the exhaustive Volterra oracle."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    rand_kernel,
    rand_measure,
    rand_simplex,
    rand_skew,
    rand_tensor,
    rand_volterra_kernel,
    reference_violation_witness,
    with_forbidden_entry,
)
from qso import (
    EPS_VAL,
    DiscreteMeasure,
    FiniteKernel,
    InvalidPoint,
    ParameterOutOfRange,
    SimplexPoint,
    TooLarge,
    apply,
    from_canonical,
    is_volterra,
    kernel_apply,
    kernel_is_volterra,
    kernel_volterra_oracle,
    volterra_violation_witness,
)
from qso import kernel as kernel_module
from qso.errors import DimensionMismatch, NegativeCoefficient, NotStochastic, NotSymmetric


def diagonal_kernel(n: int) -> FiniteKernel:
    """q[x, y] = (delta_x + delta_y) / 2: offspring repeat a parent."""
    q = np.zeros((n, n, n))
    for x in range(n):
        for y in range(n):
            q[x, y, x] += 0.5
            q[x, y, y] += 0.5
    return FiniteKernel(n, q)


class TestDiscreteMeasure:
    def test_point_mass(self):
        mu = DiscreteMeasure.point_mass(4, 3)
        assert mu.weights.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidPoint):
            DiscreteMeasure([0.5, 0.6])
        with pytest.raises(InvalidPoint):
            DiscreteMeasure([1.2, -0.2])

    def test_point_mass_reads_its_atom_as_an_integer(self):
        assert DiscreteMeasure.point_mass(3, 2.0).weights.tolist() == [0.0, 1.0, 0.0]
        for atom in (1.5, True, "2", 0, 4):
            with pytest.raises(DimensionMismatch):
                DiscreteMeasure.point_mass(3, atom)


class TestMeasureIsAPoint:
    def test_a_measure_is_a_simplex_point(self):
        mu = DiscreteMeasure([0.25, 0.75])
        assert isinstance(mu, SimplexPoint)
        assert mu.weights is mu.coords
        assert mu.n == mu.m == 2
        assert repr(mu).startswith("DiscreteMeasure([")
        assert repr(SimplexPoint([0.25, 0.75])).startswith("SimplexPoint([")

    def test_errors_call_it_a_measure(self):
        with pytest.raises(InvalidPoint, match="^measure sums to"):
            DiscreteMeasure([0.5, 0.6])
        with pytest.raises(InvalidPoint, match="^simplex point sums to"):
            SimplexPoint([0.5, 0.6])

    def test_immutable(self):
        mu = DiscreteMeasure([0.25, 0.75])
        with pytest.raises(AttributeError):
            mu.weights = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            mu.weights[0] = 0.5

    @pytest.mark.parametrize("m", range(2, 9))
    def test_kernel_image_is_apply_bit_for_bit(self, m):
        rng = np.random.default_rng(900 + m)
        for _ in range(10):
            V = rand_tensor(rng, m)
            mu = rand_measure(rng, m, n_zeros=int(rng.integers(0, m)))
            image = apply(V, mu)  # apply takes a measure as it takes any point
            assert type(image) is SimplexPoint
            got = kernel_apply(FiniteKernel.from_tensor(V), mu)
            assert type(got) is DiscreteMeasure
            assert np.array_equal(got.weights, image.coords)


class TestFiniteKernel:
    def test_rejects_asymmetry(self):
        q = np.zeros((2, 2, 2))
        q[0, 0, 0] = q[1, 1, 1] = 1.0
        q[0, 1, 0] = 1.0
        q[1, 0, 1] = 1.0
        with pytest.raises(NotSymmetric):
            FiniteKernel(2, q)

    def test_rejects_bad_row_sums(self):
        q = np.full((2, 2, 2), 0.4)
        with pytest.raises(NotStochastic):
            FiniteKernel(2, q)

    def test_size_is_an_integer(self):
        q = np.full((2, 2, 2), 0.5)
        for n in (2.0, np.int64(2)):
            K = FiniteKernel(n, q)
            assert type(K.n) is int and K.n == 2
        for n in (2.5, True, float("nan"), "2"):
            with pytest.raises(DimensionMismatch, match="kernel size must be an integer"):
                FiniteKernel(n, q)

    def test_rejects_no_atoms(self):
        with pytest.raises(DimensionMismatch, match="^a kernel needs at least one atom$"):
            FiniteKernel(0, np.zeros((0, 0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        q = np.full((2, 2, 2), 0.5)
        q[0, 1, 0] = q[1, 0, 0] = bad
        with pytest.raises(NotStochastic, match="^kernel contains non-finite entries$"):
            FiniteKernel(2, q)

    def test_rejects_negative_entries(self):
        q = np.full((2, 2, 2), 0.5)
        q[0, 1] = q[1, 0] = (1.5, -0.5)
        with pytest.raises(NegativeCoefficient, match="^kernel entry below zero: -5.000e-01$"):
            FiniteKernel(2, q)

    def test_one_atom_kernel_is_no_tensor(self):
        K = FiniteKernel(1, np.ones((1, 1, 1)))
        with pytest.raises(DimensionMismatch, match="^a QSO tensor needs at least two species$"):
            K.to_tensor()

    def test_tensor_round_trip(self):
        V = rand_tensor(np.random.default_rng(1), 3)
        K = FiniteKernel.from_tensor(V)
        assert np.array_equal(K.to_tensor().p, V.p)


class TestKernelApply:
    def test_point_mass_returns_slice(self):
        rng = np.random.default_rng(60)
        K = rand_kernel(rng, 4)
        for atom in range(1, 5):
            out = kernel_apply(K, DiscreteMeasure.point_mass(4, atom))
            assert np.allclose(out.weights, K.q[atom - 1, atom - 1, :], atol=1e-12)

    def test_two_point_mixture_formula(self):
        rng = np.random.default_rng(61)
        K = rand_kernel(rng, 5)
        for x, y in ((0, 1), (1, 4), (2, 3)):
            w = np.zeros(5)
            w[x] = w[y] = 0.5
            out = kernel_apply(K, DiscreteMeasure(w))
            expected = (K.q[x, x] + K.q[y, y] + 2.0 * K.q[x, y]) / 4.0
            assert np.allclose(out.weights, expected, atol=1e-13)

    def test_embedding_matches_tensor_apply(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            V = rand_tensor(rng, 3)
            K = FiniteKernel.from_tensor(V)
            x = rand_simplex(rng, 3, n_zeros=int(rng.integers(0, 3)))
            got = kernel_apply(K, DiscreteMeasure(x.coords)).weights
            assert np.abs(got - apply(V, x).coords).max() <= 1e-12

    def test_dimension_mismatch(self):
        K = rand_kernel(np.random.default_rng(0), 3)
        with pytest.raises(DimensionMismatch):
            kernel_apply(K, DiscreteMeasure([0.5, 0.5]))


class TestSharedForbiddenMask:
    @pytest.mark.parametrize("value", [0.0, EPS_VAL, np.nextafter(EPS_VAL, 1.0)])
    @pytest.mark.parametrize("eps", [EPS_VAL, 0.0, float("nan")])
    def test_tensor_and_kernel_verdicts_agree(self, value, eps):
        V = with_forbidden_entry(value)
        if eps != eps:  # NaN is no tolerance: both raise instead of answering False
            with pytest.raises(ParameterOutOfRange):
                is_volterra(V, eps)
            with pytest.raises(ParameterOutOfRange):
                kernel_is_volterra(FiniteKernel.from_tensor(V), eps)
            return
        verdict = is_volterra(V, eps)
        assert verdict == (value <= eps)
        assert kernel_is_volterra(FiniteKernel.from_tensor(V), eps) == verdict


class TestVolterraPredicates:
    def test_volterra_tensor_kernel_is_volterra(self):
        from helpers import rand_volterra_tensor

        V = rand_volterra_tensor(np.random.default_rng(63), 4)
        assert kernel_is_volterra(FiniteKernel.from_tensor(V))

    def test_leaky_entry_is_detected(self):
        K = diagonal_kernel(3)
        q = K.q.copy()
        q[0, 1, 2] = q[1, 0, 2] = 0.2
        q[0, 1, 0] = q[1, 0, 0] = 0.4
        q[0, 1, 1] = q[1, 0, 1] = 0.4
        leaky = FiniteKernel(3, q)
        assert not kernel_is_volterra(leaky)
        witness = volterra_violation_witness(leaky)
        assert witness is not None
        subset, x, y = witness
        assert 3 in subset and x not in subset and y not in subset

    def test_diagonal_kernel_is_volterra(self):
        assert kernel_is_volterra(diagonal_kernel(5))
        assert kernel_volterra_oracle(diagonal_kernel(5))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_oracle_equals_fast_predicate(self, n):
        rng = np.random.default_rng(70 + n)
        cases = [(rand_volterra_kernel(rng, n) if trial % 2 else rand_kernel(rng, n), EPS_VAL)
                 for trial in range(12)]
        for eps in (0.0, EPS_VAL, 5e-324):  # 5e-324 is the smallest subnormal
            near = (eps / 2, eps, np.nextafter(eps, 1.0), 2 * eps)
            cases += [(kernel_with_forbidden(rng, n, rate, near), eps) for rate in (0.1, 0.5, 1.0)]
        verdicts = set()
        for K, eps in cases:
            want = kernel_is_volterra(K, eps)
            verdicts.add(want)
            assert kernel_volterra_oracle(K, eps) == want
            for n_measures in (0, 1, 300):
                spare = np.random.default_rng(n_measures)
                state = spare.bit_generator.state
                assert kernel_volterra_oracle(K, eps, n_measures=n_measures, rng=spare) == want
                assert spare.bit_generator.state == state  # the oracle draws nothing
        assert len(verdicts) == (2 if n > 1 else 1)  # one atom has no forbidden entry

    def test_single_atom_space_is_trivially_volterra(self):
        K = FiniteKernel(1, np.ones((1, 1, 1)))
        assert kernel_is_volterra(K)
        assert kernel_volterra_oracle(K)
        out = kernel_apply(K, DiscreteMeasure([1.0]))
        assert out.weights.tolist() == [1.0]

    def test_oracle_rejects_large_spaces(self):
        q = np.zeros((13, 13, 13))
        for x in range(13):
            for y in range(13):
                q[x, y, x] += 0.5
                q[x, y, y] += 0.5
        with pytest.raises(TooLarge):
            kernel_volterra_oracle(FiniteKernel(13, q))

    def test_null_sets_stay_null(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            K = rand_volterra_kernel(rng, n)
            mu = rand_measure(rng, n, n_zeros=int(rng.integers(1, n)))
            out = kernel_apply(K, mu)
            assert out.weights[mu.weights == 0.0].sum() <= 1e-12


FORBIDDEN_VALUES = (0.0, EPS_VAL / 2, EPS_VAL, 2 * EPS_VAL, 1e-3)


def kernel_with_forbidden(rng: np.random.Generator, n: int, rate: float,
                          values=FORBIDDEN_VALUES) -> FiniteKernel:
    """Kernel whose forbidden entries are, with probability ``rate``,
    drawn from ``values``; each row's remaining mass sits on x and y."""
    q = np.zeros((n, n, n))
    for x in range(n):
        for y in range(x, n):
            for k in range(n):
                if k not in (x, y) and rng.random() < rate:
                    q[x, y, k] = values[rng.integers(len(values))]
            rest = 1.0 - q[x, y].sum()
            a = rng.uniform(0.2, 0.8) if x != y else 1.0
            q[x, y, x] += a * rest
            q[x, y, y] += rest - a * rest
            q[y, x] = q[x, y]
    return FiniteKernel(n, q)


def near_volterra_kernel(V, x: int, y: int) -> FiniteKernel:
    """Kernel of V with mass 1e-3 of the pair (x, y) moved onto the last atom."""
    q = V.p.copy()
    keep = x if q[x, y, x] >= q[x, y, y] else y
    for a, b in ((x, y), (y, x)):
        q[a, b, V.m - 1] = 1e-3
        q[a, b, keep] -= 1e-3
    return FiniteKernel(V.m, q)


class TestSubsetScanMatchesReference:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("eps", [EPS_VAL, 0.0])
    def test_random_forbidden_entries(self, n, eps):
        rng = np.random.default_rng(700 + n)
        for rate in (0.0, 0.02, 0.1, 0.5, 1.0) * 4:
            K = kernel_with_forbidden(rng, n, rate)
            assert volterra_violation_witness(K, eps) == reference_violation_witness(K, eps)

    @pytest.mark.parametrize("n", [10, 12])
    def test_volterra_and_near_volterra(self, n):
        rng = np.random.default_rng(710 + n)
        V = from_canonical(rand_skew(rng, n))
        x, y = (int(a) for a in rng.choice(n - 1, size=2, replace=False))
        for K in (FiniteKernel.from_tensor(V), near_volterra_kernel(V, x, y)):
            assert volterra_violation_witness(K) == reference_violation_witness(K)

    def test_near_volterra_witness_is_the_last_atom(self):
        V = from_canonical(rand_skew(np.random.default_rng(720), 10))
        assert volterra_violation_witness(near_volterra_kernel(V, 2, 5)) == ((10,), 3, 6)


class TestWitnessAgreesWithEntrywiseTest:
    """A sum of |A| entries at eps may round above |A| * eps; no verdict may."""

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_every_forbidden_entry_at_eps(self, n):
        K = kernel_with_forbidden(np.random.default_rng(750 + n), n, 1.0, values=(EPS_VAL,))
        assert kernel_is_volterra(K)
        assert volterra_violation_witness(K) is None
        assert kernel_volterra_oracle(K)

    @pytest.mark.parametrize("n", [3, 11, 12])
    def test_one_entry_just_above_eps_is_a_singleton_witness(self, n):
        K = kernel_with_forbidden(np.random.default_rng(760 + n), n, 1.0, values=(EPS_VAL,))
        q = K.q.copy()
        q[0, 1, n - 1] = q[1, 0, n - 1] = np.nextafter(EPS_VAL, 1.0)
        K = FiniteKernel(n, q)
        assert not kernel_is_volterra(K)
        assert volterra_violation_witness(K) == ((n,), 1, 2)
        assert not kernel_volterra_oracle(K)


class TestEpsAndCountChecks:
    @pytest.mark.parametrize("eps", [float("nan"), -1e-9, -1.0])
    def test_witness_rejects_nan_and_negative_eps(self, eps):
        with pytest.raises(ParameterOutOfRange):
            volterra_violation_witness(rand_kernel(np.random.default_rng(0), 3), eps)

    @pytest.mark.parametrize("eps", [float("nan"), -1e-9])
    def test_oracle_rejects_nan_and_negative_eps(self, eps):
        uniform = FiniteKernel(3, np.full((3, 3, 3), 1.0 / 3.0))
        with pytest.raises(ParameterOutOfRange):
            kernel_volterra_oracle(uniform, eps)

    def test_zero_eps_is_the_exact_test(self):
        assert kernel_volterra_oracle(diagonal_kernel(4), 0.0)
        assert volterra_violation_witness(diagonal_kernel(4), 0.0) is None
        K = kernel_with_forbidden(np.random.default_rng(742), 4, 1.0)
        assert not kernel_volterra_oracle(K, 0.0)

    def test_negative_measure_count_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            kernel_volterra_oracle(diagonal_kernel(3), n_measures=-5)

    @pytest.mark.parametrize("n_measures", [2.5, float("nan"), True, "3", None])
    def test_non_integral_measure_count_rejected(self, n_measures):
        with pytest.raises(ParameterOutOfRange, match="n_measures must be an integer"):
            kernel_volterra_oracle(diagonal_kernel(3), n_measures=n_measures)

    def test_integral_measure_count_is_the_int_count(self):
        K = rand_volterra_kernel(np.random.default_rng(31), 3)
        assert kernel_volterra_oracle(K, n_measures=3.0) == kernel_volterra_oracle(K, n_measures=3)


class TestOracleScansOnce:
    def test_cli_scans_the_subsets_once(self, monkeypatch, tmp_path, capsys):
        from qso.cli import main
        from qso.serialize import dumps, kernel_to_obj

        K = kernel_with_forbidden(np.random.default_rng(760), 8, 0.3)
        want = volterra_violation_witness(K)
        assert want is not None
        calls = []

        def counted(*args):
            calls.append(args)
            return want

        monkeypatch.setattr(kernel_module, "volterra_violation_witness", counted)
        path = tmp_path / "k.json"
        path.write_text(dumps(kernel_to_obj(K)), encoding="utf-8")
        assert main(["kernel", "oracle", "--op", str(path), "--json"]) == 1
        assert len(calls) == 1
        subset, x, y = want
        assert capsys.readouterr().out == dumps(
            {"volterra": False, "witness": {"A": list(subset), "x": x, "y": y}}
        ) + "\n"

    def test_errors_keep_their_order(self, tmp_path, capsys):
        from qso.cli import main
        from qso.serialize import dumps, kernel_to_obj

        big = diagonal_kernel(13)
        with pytest.raises(ParameterOutOfRange, match="n_measures"):
            kernel_volterra_oracle(big, float("nan"), n_measures=-1)
        with pytest.raises(ParameterOutOfRange, match="eps must be nonnegative"):
            kernel_volterra_oracle(big, float("nan"), n_measures=0)
        with pytest.raises(TooLarge):
            kernel_volterra_oracle(big, EPS_VAL, n_measures=0)
        path = tmp_path / "big.json"
        path.write_text(dumps(kernel_to_obj(big)), encoding="utf-8")
        assert main(["kernel", "oracle", "--op", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: TooLarge")

    @pytest.mark.parametrize("seed", range(5))
    def test_verdict_and_witness_match_the_public_calls(self, seed, tmp_path, capsys):
        from qso.cli import main
        from qso.serialize import dumps, kernel_to_obj

        K = kernel_with_forbidden(np.random.default_rng(770 + seed), 6, 0.1 * seed)
        path = tmp_path / "k.json"
        path.write_text(dumps(kernel_to_obj(K)), encoding="utf-8")
        code = main(["kernel", "oracle", "--op", str(path), "--json"])
        verdict = kernel_volterra_oracle(K)
        want = {"volterra": verdict}
        witness = volterra_violation_witness(K)
        if witness is not None:
            subset, x, y = witness
            want["witness"] = {"A": list(subset), "x": x, "y": y}
        assert (witness is None) == verdict
        assert code == (0 if verdict else 1)
        assert capsys.readouterr().out == dumps(want) + "\n"
