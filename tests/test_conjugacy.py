"""Permutation action, conjugation, and the three conjugacy classes."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from helpers import (
    rand_simplex,
    rand_tensor,
    rand_volterra_tensor,
    reference_conjugacy_classes,
    reference_conjugate,
)
from qso import (
    InvalidFamily,
    InvalidPermutation,
    OpFamilySpec,
    Permutation,
    QsoTensor,
    SimplexPoint,
    apply,
    classify_op,
    conjugacy_classes,
    conjugate,
    is_associative,
    is_orthogonality_preserving,
    op_family,
    permute_point,
    validate,
)
from qso.conjugacy import _inverse_index
from qso.errors import DimensionMismatch, ParameterOutOfRange
from qso.serialize import perm_from_obj

#: T_pi (x, y, z) -> (y, z, x) and T_pi1 (x, y, z) -> (x, z, y)
PI = Permutation((1, 2, 0))
PI1 = Permutation((0, 2, 1))

# conjugation identities: (source family, permutation, target family, map)
PARAMETER_MAPS = [
    (1, PI, 5, lambda a, b, g: (1 - g, 1 - a, b)),
    (5, PI, 3, lambda a, b, g: (1 - g, a, 1 - b)),
    (3, PI, 1, lambda a, b, g: (g, 1 - a, 1 - b)),
    (2, PI, 2, lambda a, b, g: (1 - g, a, 1 - b)),
    (4, PI, 4, lambda a, b, g: (1 - g, 1 - a, b)),
    (6, PI, 6, lambda a, b, g: (g, 1 - a, 1 - b)),
    (2, PI1, 2, lambda a, b, g: (g, 1 - b, a)),
    (4, PI1, 6, lambda a, b, g: (1 - g, b, a)),
]


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutation):
            Permutation((0, 0, 2))

    def test_one_based_round_trip(self):
        p = Permutation.from_one_based([2, 3, 1])
        assert p.sigma == (1, 2, 0)
        assert p.one_based == (2, 3, 1)

    def test_inverse(self):
        p = Permutation((1, 2, 0))
        assert p.compose(p.inverse()) == Permutation.identity(3)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="^size mismatch: 3 vs 2$"):
            PI.compose(Permutation((1, 0)))
        with pytest.raises(DimensionMismatch, match="^permutation size 3 vs point size 2$"):
            permute_point(PI, SimplexPoint([0.5, 0.5]))

    def test_permute_point_vertex(self):
        out = permute_point(PI, SimplexPoint([1, 0, 0]))
        assert out.coords.tolist() == [0.0, 0.0, 1.0]

    def test_identity_permutation_fixes_points(self):
        x = SimplexPoint([0.2, 0.3, 0.5])
        assert np.array_equal(permute_point(Permutation.identity(3), x).coords, x.coords)

    def test_order_three_cycle(self):
        x = SimplexPoint([0.2, 0.3, 0.5])
        out = x
        for _ in range(3):
            out = permute_point(PI, out)
        assert np.array_equal(out.coords, x.coords)


class TestConjugate:
    def test_identity_permutation_is_neutral(self):
        V = op_family(OpFamilySpec(3, 0.3, 0.6, 0.9))
        assert np.array_equal(conjugate(V, Permutation.identity(3)).p, V.p)

    @pytest.mark.parametrize("family", range(1, 7))
    def test_same_bits_as_the_inverse_and_checked_constructor(self, family):
        rng = np.random.default_rng(300 + family)
        tensors = [op_family(OpFamilySpec(family, *rng.random(3)))]
        tensors.append(validate(rng.random((3, 3, 3)), mode="normalize"))
        for V in tensors:
            for sigma in itertools.permutations(range(3)):
                got = conjugate(V, Permutation(sigma))
                want = reference_conjugate(V, Permutation(sigma))
                assert got.p.tobytes() == want.p.tobytes()
                assert not got.p.flags.writeable

    def test_functional_correctness(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            V = rand_tensor(rng, m)
            perm = Permutation(tuple(int(i) for i in rng.permutation(m)))
            x = rand_simplex(rng, m, n_zeros=int(rng.integers(0, m)))
            lhs = apply(conjugate(V, perm), x).coords
            rhs = permute_point(perm.inverse(), apply(V, permute_point(perm, x))).coords
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_group_action_composition(self):
        rng = np.random.default_rng(32)
        V = rand_tensor(rng, 3)
        for s1 in itertools.permutations(range(3)):
            for s2 in itertools.permutations(range(3)):
                p1, p2 = Permutation(s1), Permutation(s2)
                twice = conjugate(conjugate(V, p1), p2)
                once = conjugate(V, p1.compose(p2))
                assert np.array_equal(twice.p, once.p)

    @pytest.mark.parametrize("family", range(1, 7))
    def test_op_invariance(self, family):
        V = op_family(OpFamilySpec(family, 0.3, 0.6, 0.9))
        for sigma in itertools.permutations(range(3)):
            assert is_orthogonality_preserving(conjugate(V, Permutation(sigma)))

    @pytest.mark.parametrize("family", range(1, 7))
    def test_associativity_invariance(self, family):
        V = op_family(OpFamilySpec(family, 0.3, 0.6, 0.9))
        status = is_associative(V)
        for sigma in itertools.permutations(range(3)):
            assert is_associative(conjugate(V, Permutation(sigma))) == status

    @pytest.mark.parametrize("src,perm,dst,pmap", PARAMETER_MAPS)
    def test_parameter_maps(self, src, perm, dst, pmap):
        for a, b, g in itertools.product((0.0, 0.25, 0.5, 1.0), repeat=3):
            got = conjugate(op_family(OpFamilySpec(src, a, b, g)), perm)
            want = op_family(OpFamilySpec(dst, *pmap(a, b, g)))
            assert np.abs(got.p - want.p).max() <= 1e-15

    def test_spec_examples(self):
        a, b, g = 0.3, 0.6, 0.9
        got = conjugate(op_family(OpFamilySpec(1, a, b, g)), PI)
        assert np.allclose(got.p, op_family(OpFamilySpec(5, 1 - g, 1 - a, b)).p, atol=1e-15)
        got = conjugate(op_family(OpFamilySpec(4, a, b, g)), PI1)
        assert np.allclose(got.p, op_family(OpFamilySpec(6, 1 - g, b, a)).p, atol=1e-15)

    def test_pi_orbit_of_family1(self):
        a, b, g = 0.3, 0.6, 0.9
        once = classify_op(conjugate(op_family(OpFamilySpec(1, a, b, g)), PI))
        assert once.family == 5
        twice = classify_op(conjugate(op_family(OpFamilySpec(once.family, *once.params)), PI))
        assert twice.family == 3


class TestClasses:
    def test_partition_of_all_six(self):
        assert conjugacy_classes() == [
            frozenset({1, 3, 5}),
            frozenset({2}),
            frozenset({4, 6}),
        ]

    def test_family2_alone_is_singleton(self):
        assert conjugacy_classes([2]) == [frozenset({2})]

    def test_subset_partition(self):
        assert conjugacy_classes([1, 4, 5, 6]) == [frozenset({1, 5}), frozenset({4, 6})]

    @pytest.mark.parametrize("params", [(0.3, 0.6, 0.9), (0, 0, 0), (1, 1, 1), (0.5, 0, 1)])
    def test_cycle_types_equal_the_orbit_oracle_on_every_subset(self, params):
        subsets = [
            subset
            for size in range(1, 7)
            for subset in itertools.combinations(range(1, 7), size)
        ]
        assert len(subsets) == 63
        for subset in subsets:
            assert conjugacy_classes(subset, params) == reference_conjugacy_classes(subset, params)

    @pytest.mark.parametrize("families,params,error", [
        ([1, 7], (0.3, 0.6, 0.9), InvalidFamily),
        ([1.5], (0.3, 0.6, 0.9), InvalidFamily),  # not truncated to 1
        ([True], (0.3, 0.6, 0.9), InvalidFamily),
        ([2], (2.0, 0.6, 0.9), ParameterOutOfRange),
        ([2, 4], (0.3, -0.1, 0.9), ParameterOutOfRange),
    ])
    def test_bad_family_or_parameter_raises_as_the_oracle_does(self, families, params, error):
        with pytest.raises(error):
            reference_conjugacy_classes(families, params)
        with pytest.raises(error):
            conjugacy_classes(families, params)

    def test_integral_family_groups_as_the_int(self):
        for classes in (conjugacy_classes, reference_conjugacy_classes):
            assert classes([2.0]) == [frozenset({2})]
            assert classes([np.int64(2), 2, 4.0]) == [frozenset({2}), frozenset({4})]
            assert all(type(f) is int for c in classes([2.0, np.int64(5)]) for f in c)


def permuted_volterra(rng: np.random.Generator, m: int) -> QsoTensor:
    """An OP operator of size m: a Volterra tensor with its outputs permuted."""
    W = rand_volterra_tensor(rng, m)
    return QsoTensor(m, W.p[:, :, rng.permutation(m)])


class TestCachedInverseGather:
    """The gather through the cached inverse images gives the bits of the
    reference conjugation, and its cache stays within its stated bytes."""

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 15, 16, 17, 18, 25, 40])
    def test_bits_match_reference(self, m):
        rng = np.random.default_rng(700 + m)
        tensors = [rand_tensor(rng, m), rand_volterra_tensor(rng, m), permuted_volterra(rng, m)]
        perms = [Permutation.identity(m), Permutation(tuple(range(1, m)) + (0,))]
        perms += [Permutation(tuple(int(s) for s in rng.permutation(m))) for _ in range(3)]
        for V in tensors:
            for perm in perms:
                got = conjugate(V, perm)
                want = reference_conjugate(V, perm)
                assert got.p.tobytes() == want.p.tobytes()
                assert got.p.shape == (m, m, m) and not got.p.flags.writeable

    @pytest.mark.parametrize("m", [16, 40])
    def test_the_cache_holds_at_most_64_arrays_of_m_intp(self, m):
        rng = np.random.default_rng(41 + m)
        V = rand_tensor(rng, m)
        sigmas = [tuple(int(s) for s in rng.permutation(m)) for _ in range(100)]
        _inverse_index.cache_clear()
        for sigma in sigmas:
            conjugate(V, Permutation(sigma))
        info = _inverse_index.cache_info()
        assert info.currsize == 64
        # the 64 most recent permutations are the ones held: reading them misses none
        held = [_inverse_index(sigma) for sigma in sigmas[-64:]]
        assert _inverse_index.cache_info().misses == info.misses
        for i, j, inv in held:
            assert inv.base is None and i.base is inv and j.base is inv
            assert inv.dtype == np.intp and inv.shape == (m,)
        assert sum(inv.nbytes for *_, inv in held) <= 512 * m

    def test_the_cached_index_is_read_only(self):
        conjugate(op_family(OpFamilySpec(3, 0.3, 0.6, 0.9)), PI)
        for index in _inverse_index(PI.sigma):
            with pytest.raises(ValueError):
                index[(0,) * index.ndim] = 0


class TestOneBasedErrors:
    """A bad 1-based permutation is named as it was given, 1-based."""

    @pytest.mark.parametrize("images", [[4, 2, 1], [1, 1, 2], [0, 1, 2], [2.0, 2.0], [-1]])
    def test_from_one_based_names_its_images(self, images):
        shown = [int(i) for i in images]
        message = rf"^{re.escape(str(shown))} is not a bijection of 1\.\.{len(images)}$"
        with pytest.raises(InvalidPermutation, match=message):
            Permutation.from_one_based(images)
        with pytest.raises(InvalidPermutation, match=message):
            perm_from_obj({"sigma": images})

    def test_the_zero_based_constructor_keeps_its_message(self):
        with pytest.raises(InvalidPermutation, match=r"^\(3, 1, 0\) is not a bijection of 0\.\.2$"):
            Permutation((3, 1, 0))

    def test_valid_images_still_build(self):
        assert Permutation.from_one_based([]).sigma == ()
        assert Permutation.from_one_based([np.int64(2), 1.0]).sigma == (1, 0)
