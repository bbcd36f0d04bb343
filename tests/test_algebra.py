"""Algebra product, associativity decisions, and the family-2 oracle."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    product_loops,
    rand_simplex,
    rand_skew,
    rand_tensor,
    reference_associator_residual,
    reference_commutator_residual,
    reference_one_product_residual,
    reference_refute,
    reference_residuals,
    reference_slab_residuals,
)
from qso import (
    algebra,
    EPS_ASSOC,
    InvalidFamily,
    OpFamilySpec,
    ParameterOutOfRange,
    Permutation,
    TooLarge,
    apply,
    assoc_solutions_v2,
    associator_residual,
    conjugate,
    from_canonical,
    is_associative,
    op_family,
    product,
    refute_associativity,
    v2_condition_system,
    validate,
)
from qso.errors import DimensionMismatch

#: corner triples where the family-2 member is genuinely associative
#: (frozen from the basis-triple decision; the transitive-tournament corners)
ASSOCIATIVE_V2_CORNERS = {
    (0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 1.0, 1.0),
    (1.0, 0.0, 0.0),
    (1.0, 0.0, 1.0),
    (1.0, 1.0, 1.0),
}

IDENTITY_RESIDUAL = 0.25  # associator of the identity operator, frozen


class TestProduct:
    def test_basis_products_are_slices(self):
        rng = np.random.default_rng(41)
        V = rand_tensor(rng, 3)
        eye = np.eye(3)
        for i in range(3):
            for j in range(3):
                assert np.allclose(product(V, eye[i], eye[j]), V.p[i, j, :], atol=1e-15)

    def test_square_equals_apply(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            V = rand_tensor(rng, 3)
            x = rand_simplex(rng, 3)
            assert np.allclose(product(V, x.coords, x.coords), apply(V, x).coords, atol=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(43)
        V = rand_tensor(rng, 4)
        for _ in range(20):
            x = rng.uniform(-2, 2, 4)
            y = rng.uniform(-2, 2, 4)
            assert np.allclose(product(V, x, y), product(V, y, x), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(44)
        V = rand_tensor(rng, 3)
        x = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        assert np.allclose(product(V, x, y), product_loops(V.p, x, y), atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        V = rand_tensor(rng, m)
        x, xp, y = (rng.uniform(-1, 1, m) for _ in range(3))
        a, b = rng.uniform(-2, 2, 2)
        lhs = product(V, a * x + b * xp, y)
        rhs = a * product(V, x, y) + b * product(V, xp, y)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_dimension_mismatch(self):
        V = rand_tensor(np.random.default_rng(0), 3)
        with pytest.raises(DimensionMismatch):
            product(V, [1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("bad, shown", [
        (["a", "b", "c"], "is not a vector of real numbers"),
        ([float("nan"), 0.0, 0.0], "has a non-finite entry"),
        ([0.0, float("inf"), 0.0], "has a non-finite entry"),
        ([0.0, 0.0, -np.inf], "has a non-finite entry"),
        ([None, 0.0, 0.0], "has a non-finite entry"),
        ([1j, 0.0, 0.0], "is not a vector of real numbers"),
        (np.array([1.0 + 1j, 0.0, 0.0]), "is not a vector of real numbers"),
        ([10**400, 0.0, 0.0], "is not a vector of real numbers"),
    ])
    def test_unusable_operand_is_a_typed_error(self, bad, shown):
        # these used to raise a bare ValueError or return NaN
        V = rand_tensor(np.random.default_rng(0), 3)
        e1 = [1.0, 0.0, 0.0]
        with pytest.raises(ParameterOutOfRange, match=f"^operand x {shown}"):
            product(V, bad, e1)
        with pytest.raises(ParameterOutOfRange, match=f"^operand y {shown}"):
            product(V, e1, bad)

    def test_valid_operands_keep_their_bits(self):
        rng = np.random.default_rng(49)
        for m in (2, 3, 7):
            V = rand_tensor(rng, m)
            for x, y in [(rng.uniform(-2, 2, m), rng.uniform(-2, 2, m)),
                         (list(range(m)), [True] + [False] * (m - 1)),
                         (np.full(m, 1e300), np.full(m, -1e-300))]:
                want = np.einsum("ijk,i,j->k", V.p, np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))
                assert product(V, x, y).tobytes() == want.tobytes()


class TestAssociativityDecision:
    def test_basis_triples_detect_random_nonassociativity(self):
        # random tensors are generically far from associative, and random
        # vector triples must witness the same verdict as the basis triples
        rng = np.random.default_rng(45)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            V = rand_tensor(rng, m)
            basis = associator_residual(V)
            worst = 0.0
            for _ in range(20):
                x, y, z = (rng.uniform(-1, 1, m) for _ in range(3))
                lhs = product(V, product(V, x, y), z)
                rhs = product(V, x, product(V, y, z))
                worst = max(worst, float(np.abs(lhs - rhs).max()))
            if basis > 1e-6:
                assert worst > 1e-9
            else:
                assert worst <= 1e-9

    def test_associative_members_associate_on_random_vectors(self):
        rng = np.random.default_rng(46)
        for corner in sorted(ASSOCIATIVE_V2_CORNERS):
            V = op_family(OpFamilySpec(2, *corner))
            assert associator_residual(V) <= 1e-12
            for _ in range(10):
                x, y, z = (rng.uniform(-1, 1, 3) for _ in range(3))
                lhs = product(V, product(V, x, y), z)
                rhs = product(V, x, product(V, y, z))
                assert np.abs(lhs - rhs).max() <= 1e-9

    def test_origin_corner_is_associative(self):
        assert is_associative(op_family(OpFamilySpec(2, 0.0, 0.0, 0.0)))

    def test_identity_operator_is_not_associative(self):
        V = op_family(OpFamilySpec(2, 0.5, 0.5, 0.5))
        assert not is_associative(V)
        assert associator_residual(V) == pytest.approx(IDENTITY_RESIDUAL, abs=1e-12)

    @pytest.mark.parametrize("params", list(itertools.product((0.0, 0.5, 1.0), repeat=3)))
    def test_family1_never_associative(self, params):
        assert not is_associative(op_family(OpFamilySpec(1, *params)))

    @pytest.mark.parametrize("eps", [float("nan"), -1e-12, -1.0])
    def test_nan_or_negative_tolerance_is_a_typed_error(self, eps):
        # these used to answer False, whatever the residual
        with pytest.raises(ParameterOutOfRange, match="eps must be nonnegative"):
            is_associative(op_family(OpFamilySpec(2, 0.0, 0.0, 0.0)), eps=eps)

    def test_zero_tolerance_asks_for_exact_associativity(self):
        assert is_associative(op_family(OpFamilySpec(2, 0.0, 0.0, 0.0)), eps=0.0)
        assert not is_associative(op_family(OpFamilySpec(2, 0.5, 0.5, 0.5)), eps=0.0)

    def test_residual_invariant_under_conjugation(self):
        rng = np.random.default_rng(47)
        for family in range(1, 7):
            V = op_family(OpFamilySpec(family, *rng.random(3)))
            r = associator_residual(V)
            for sigma in itertools.permutations(range(3)):
                rc = associator_residual(conjugate(V, Permutation(sigma)))
                assert abs(rc - r) <= 1e-12


class TestV2ConditionSystem:
    def test_origin_gives_all_zeros(self):
        assert np.abs(v2_condition_system(0, 0, 0)).max() == 0.0

    def test_half_parameters_first_residual(self):
        res = v2_condition_system(0.5, 0.5, 0.5)
        assert res[0] == pytest.approx(0.25, abs=1e-15)

    def test_system_solution_corners(self):
        sols = {
            c
            for c in itertools.product((0.0, 1.0), repeat=3)
            if np.abs(v2_condition_system(*c)).max() <= EPS_ASSOC
        }
        assert sols == {
            (0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 1.0, 1.0),
            (1.0, 0.0, 0.0),
            (1.0, 1.0, 1.0),
        }

    def test_known_disagreement_corner(self):
        # (1, 0, 1) is associative but violates the split expressions 4 and 6
        assert is_associative(op_family(OpFamilySpec(2, 1.0, 0.0, 1.0)))
        res = v2_condition_system(1.0, 0.0, 1.0)
        assert res[3] == 1.0 and res[5] == 1.0

    def test_cyclic_corner_violates_both_routes(self):
        # (1, 1, 0) induces the cyclic basis product 1 > 2 > 3 > 1
        assert not is_associative(op_family(OpFamilySpec(2, 1.0, 1.0, 0.0)))
        assert np.abs(v2_condition_system(1.0, 1.0, 0.0)).max() >= 1.0

    def test_agreement_off_corners(self):
        for a, b, g in itertools.product((0.1, 0.5, 0.9), repeat=3):
            assert not is_associative(op_family(OpFamilySpec(2, a, b, g)))
            assert np.abs(v2_condition_system(a, b, g)).max() > EPS_ASSOC

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            v2_condition_system(1.2, 0.0, 0.0)


class TestSolutionsAndRefutation:
    def test_solutions_v2(self):
        sols = assoc_solutions_v2()
        assert sols == ASSOCIATIVE_V2_CORNERS
        assert (0.0, 1.0, 1.0) in sols
        assert len(sols) == 6

    @pytest.mark.parametrize("family", [1, 4])
    def test_refutation_floors(self, family):
        rep = refute_associativity(family, grid_step=0.1)
        assert rep.min_residual > 1e-6
        assert rep.corner_min_residual > 1e-9
        # frozen regression floors: the grid minimum sits at 3/4, corners at 1
        assert rep.min_residual == pytest.approx(0.75, abs=1e-9)
        assert rep.corner_min_residual == pytest.approx(1.0, abs=1e-12)

    def test_refutation_rejects_other_families(self):
        with pytest.raises(InvalidFamily):
            refute_associativity(2, 0.1)

    def test_refutation_family_is_read_as_an_integer(self):
        rep = refute_associativity(4.0, 0.1)
        assert type(rep.family) is int and rep == refute_associativity(4, 0.1)
        assert refute_associativity(np.int64(1), 0.1).family == 1
        for family in (True, 4.5, "4", None):
            with pytest.raises(InvalidFamily, match="refutation covers families 1 and 4"):
                refute_associativity(family, 0.1)

    def test_refutation_rejects_bad_step(self):
        with pytest.raises(ParameterOutOfRange):
            refute_associativity(1, 0.0)
        with pytest.raises(ParameterOutOfRange):
            refute_associativity(1, 0.5)

    @pytest.mark.parametrize("step, shown", [
        ("0.05", "'0.05'"), (0.5, "0.5"), (np.float64(0.25), "0.25"), (float("nan"), "nan"),
    ])
    def test_bad_step_is_quoted_as_given(self, step, shown):
        # text keeps its quotes, so "0.05" does not read like an in-range number
        with pytest.raises(ParameterOutOfRange) as exc:
            refute_associativity(1, step)
        assert str(exc.value) == f"grid_step must be in (0, 0.1], got {shown}"

    @pytest.mark.parametrize("family", [3, 5, 6])
    def test_remaining_families_inherit_nonassociativity(self, family):
        rng = np.random.default_rng(48)
        for _ in range(5):
            assert not is_associative(op_family(OpFamilySpec(family, *rng.random(3))))


class TestBatchedResidualMatchesReference:
    @pytest.mark.parametrize("m", [*range(2, 21), 25, 33, 40])
    def test_random_tensors(self, m):
        rng = np.random.default_rng(4900 + m)
        for _ in range(3):
            V = rand_tensor(rng, m)
            assert abs(associator_residual(V) - reference_associator_residual(V)) <= 1e-14

    @pytest.mark.parametrize("family", range(1, 7))
    def test_family_members(self, family):
        for params in itertools.product((0.0, 0.5, 1.0, 0.3), repeat=3):
            V = op_family(OpFamilySpec(family, *params))
            assert abs(associator_residual(V) - reference_associator_residual(V)) <= 1e-14

    @pytest.mark.parametrize("m", [2, 3, 7, 20])
    def test_associative_controls(self, m):
        # p[i, j, :] = c gives (x o y) = (sum x)(sum y) c, which associates
        c = np.random.default_rng(4950 + m).dirichlet(np.ones(m))
        V = validate(np.broadcast_to(c, (m, m, m)))
        assert associator_residual(V) <= 1e-12

    def test_family2_corner_verdicts(self):
        for corner in itertools.product((0.0, 1.0), repeat=3):
            V = op_family(OpFamilySpec(2, *corner))
            assert is_associative(V) == (reference_associator_residual(V) <= EPS_ASSOC)
            assert is_associative(V) == (corner in ASSOCIATIVE_V2_CORNERS)

    @pytest.mark.parametrize("whole_gap_max", [1, 750, 1 << 17])
    def test_stack_equals_single_calls(self, monkeypatch, whole_gap_max):
        # the gap is taken per i or in one piece: 1 forces the loop
        # everywhere, 750 loops over the stack of three m = 5 tensors
        # (1875 gap entries) but not over a single one (625)
        monkeypatch.setattr(algebra, "_WHOLE_GAP_MAX", whole_gap_max)
        rng = np.random.default_rng(4960)
        stack = [rand_tensor(rng, 5) for _ in range(3)]
        got = algebra._residuals(np.stack([V.p for V in stack]))
        want = [reference_associator_residual(V) for V in stack]
        assert np.abs(got - want).max() <= 1e-14
        assert got.tolist() == [associator_residual(V) for V in stack]


class TestSlabResidualMatchesOneProduct:
    # single tensors above the whole-gap size go slab by slab; the oracle
    # forms the whole left-product array L, as that path did before
    @pytest.mark.parametrize("m", range(14, 46))
    def test_random_controls_and_volterra(self, m):
        assert m**4 > algebra._WHOLE_GAP_MAX
        rng = np.random.default_rng(5000 + m)
        c = rng.dirichlet(np.ones(m))
        for V in (
            rand_tensor(rng, m),
            validate(np.broadcast_to(c, (m, m, m))),  # p[i, j, :] = c associates
            from_canonical(rand_skew(rng, m)),
        ):
            assert abs(associator_residual(V) - reference_one_product_residual(V)) <= 1e-15

    def test_peak_memory_is_a_few_slabs(self):
        # the whole-array path held L, m^4 floats (21 MB at m = 40)
        m = 40
        V = rand_tensor(np.random.default_rng(5100), m)
        associator_residual(V)  # warm up lazy allocations outside the trace
        tracemalloc.start()
        try:
            associator_residual(V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * m**3 * 8


class TestStackSlabs:
    # a stack above the whole-gap size takes the same slab loop as one
    # large tensor; the oracle forms the stack's whole array L instead

    @pytest.mark.parametrize("family", [1, 3, 4, 6])
    def test_family_stack_equals_single_calls_and_oracle(self, family):
        rng = np.random.default_rng(5200 + family)
        stack = [op_family(OpFamilySpec(family, *rng.random(3))) for _ in range(4096)]
        P = np.stack([V.p for V in stack])
        assert P.shape[0] * 3**4 > algebra._WHOLE_GAP_MAX
        got = algebra._residuals(P)
        assert got.tolist() == [associator_residual(V) for V in stack]
        assert got.tolist() == reference_residuals(P).tolist()

    @pytest.mark.parametrize("m", [2, 4, 5, 9])
    def test_random_stack_equals_oracle(self, m):
        rng = np.random.default_rng(5300 + m)
        P = np.stack([rand_tensor(rng, m).p for _ in range(2 * algebra._WHOLE_GAP_MAX // m**4)])
        got = algebra._residuals(P)
        assert got.tolist() == reference_residuals(P).tolist()
        assert got.tolist() == [associator_residual(validate(p)) for p in P]

    def test_refutation_chunk_holds_a_few_slabs(self):
        # the parent's stack path held L, n * m^4 floats: 3 slabs at m = 3
        n, m = algebra._REFUTE_CHUNK, 3
        rng = np.random.default_rng(5400)
        P = np.stack([op_family(OpFamilySpec(1, *rng.random(3))).p for _ in range(n)])
        algebra._residuals(P)  # warm up lazy allocations outside the trace
        tracemalloc.start()
        try:
            algebra._residuals(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * m**3 * 8


def _dirichlet_tensor(rng, m: int) -> np.ndarray:
    d = rng.dirichlet(np.ones(m), size=(m, m))
    return validate((d + d.transpose(1, 0, 2)) / 2.0).p


class TestCommutatorResidual:
    # above the whole-gap size the residual is the largest |[P_i, P_k]|,
    # i < k, from one pair of batched m x m products per i

    @pytest.mark.parametrize("m", range(14, 61))
    def test_single_tensors_against_slab_loop_and_commutators(self, m):
        # X[k] and Y[k] are equally shaped products, so each single tensor
        # keeps the bits of the plain 2-D commutators, and an associator
        # whose two sides sum the same products is exactly 0. The slab loop
        # took the two sides at different places of one m x m^2 product,
        # which BLAS may round differently: it must agree within the bound
        # of two m-term dot products of entries in [0, 1] that differ only
        # in rounding, 2 * m * eps.
        assert m**4 > algebra._WHOLE_GAP_MAX
        bound = 2 * m * np.finfo(float).eps
        rng = np.random.default_rng(5500 + m)
        c = rng.dirichlet(np.ones(m))
        control = validate(np.broadcast_to(c, (m, m, m)))  # p[i, j, :] = c associates
        stack = (rand_tensor(rng, m), control, from_canonical(rand_skew(rng, m)))
        for V in stack:
            got = algebra._residuals(V.p[np.newaxis])
            assert got.tolist() == [reference_commutator_residual(V)]
            assert abs(got[0] - reference_slab_residuals(V.p[np.newaxis])[0]) <= bound
        assert associator_residual(control) == 0.0
        assert is_associative(control, eps=0.0)

    @pytest.mark.parametrize("m", [2, 4, 5, 9])
    def test_dirichlet_stack_equals_slab_loop(self, m):
        rng = np.random.default_rng(5600 + m)
        P = np.stack([_dirichlet_tensor(rng, m)
                      for _ in range(2 * algebra._WHOLE_GAP_MAX // m**4)])
        assert P.shape[0] * m**4 > algebra._WHOLE_GAP_MAX
        assert algebra._residuals(P).tolist() == reference_slab_residuals(P).tolist()

    @pytest.mark.parametrize("family", [1, 3, 4, 6])
    def test_family_stack_equals_slab_loop(self, family):
        rng = np.random.default_rng(5700 + family)
        P = np.stack([op_family(OpFamilySpec(family, *rng.random(3))).p for _ in range(4096)])
        assert algebra._residuals(P).tolist() == reference_slab_residuals(P).tolist()

    @pytest.mark.parametrize("m", range(4, 9))
    def test_residual_is_the_largest_commutator(self, m):
        rng = np.random.default_rng(5800 + m)
        c = rng.dirichlet(np.ones(m))
        for V in (rand_tensor(rng, m), validate(_dirichlet_tensor(rng, m)),
                  validate(np.broadcast_to(c, (m, m, m))), from_canonical(rand_skew(rng, m))):
            assert associator_residual(V) == reference_commutator_residual(V)

    def test_family2_corners_commute_iff_associative(self):
        for corner in itertools.product((0.0, 1.0), repeat=3):
            p = op_family(OpFamilySpec(2, *corner)).p
            commute = all((p[i] @ p[k] == p[k] @ p[i]).all()
                          for i in range(3) for k in range(3))
            assert commute == (corner in ASSOCIATIVE_V2_CORNERS)


class TestBatchedRefutation:
    @pytest.mark.parametrize("family", [1, 4])
    @pytest.mark.parametrize("step", [0.1, 0.05, 0.07])
    def test_matches_pointwise_scan(self, family, step):
        assert refute_associativity(family, step) == reference_refute(family, step)

    @pytest.mark.parametrize("family", [1, 4])
    def test_chunk_boundaries_do_not_matter(self, monkeypatch, family):
        want = refute_associativity(family, 0.05)
        monkeypatch.setattr(algebra, "_REFUTE_CHUNK", 1000)  # does not divide 21^3
        assert refute_associativity(family, 0.05) == want

    @pytest.mark.parametrize("family", [1, 4])
    @pytest.mark.parametrize("step", [0.1, 0.05, 0.07])
    def test_minimum_recomputes_exactly(self, family, step):
        rep = refute_associativity(family, step)
        again = associator_residual(op_family(OpFamilySpec(family, *rep.argmin)))
        assert rep.min_residual == again

    # the last, one step below 0.005, gives 200.00000000000003 intervals per axis
    @pytest.mark.parametrize("step", [1e-300, 1e-6, 0.0049, float(np.nextafter(0.005, 0.0))])
    def test_grid_cap(self, step):
        with pytest.raises(TooLarge):
            refute_associativity(1, step)

    def test_cap_admits_exactly_its_axis_length(self):
        smallest = 1.0 / (algebra._REFUTE_MAX_AXIS - 1)
        assert algebra._grid(smallest).size == algebra._REFUTE_MAX_AXIS
