"""Orthogonality-preserving families: construction, certificate, classifier."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    family_polynomial,
    rand_simplex,
    reference_classify_op,
    reference_conjugate,
    reference_family_array,
    reference_is_op_grid,
    reference_is_op_loop,
)
from qso import (
    FAMILY_VERTEX_IMAGES,
    Permutation,
    InvalidFamily,
    NotOrthogonalityPreserving,
    OpFamilySpec,
    ParameterOutOfRange,
    QsoTensor,
    SimplexPoint,
    VertexImageNotVertex,
    apply,
    classify_op,
    conjugate,
    is_orthogonality_preserving,
    op_family,
    validate,
)
from qso.core import EPS_SUPP, EPS_VAL
from qso.errors import DimensionUnsupported
from qso.serialize import dumps, spec_to_obj

GENERIC = (0.3, 0.6, 0.9)


def uniform_qso() -> QsoTensor:
    return validate(np.full((3, 3, 3), 1.0 / 3.0))


class TestOpFamily:
    @pytest.mark.parametrize("family", range(1, 7))
    def test_matches_polynomial_oracle(self, family):
        rng = np.random.default_rng(50 + family)
        for _ in range(30):
            a, b, g = rng.random(3)
            V = op_family(OpFamilySpec(family, a, b, g))
            x = rand_simplex(rng, 3, n_zeros=int(rng.integers(0, 3)))
            assert np.allclose(
                apply(V, x).coords,
                family_polynomial(family, a, b, g, x.coords),
                atol=1e-12,
            )

    @pytest.mark.parametrize("family", range(1, 7))
    def test_min_sigma_rule_writes_the_paper_table(self, family):
        """Each parameter sits at output min(sigma(i), sigma(j)) of its edge
        exactly where the paper's table puts it, bit for bit."""
        rng = np.random.default_rng(80 + family)
        triples = list(itertools.product((0.0, 0.5, 1.0), repeat=3)) + rng.random((200, 3)).tolist()
        for a, b, g in triples:
            spec = OpFamilySpec(family, a, b, g)
            assert op_family(spec).p.tobytes() == reference_family_array(spec).tobytes()

    def test_family1_table_entries(self):
        a, b, g = GENERIC
        p = op_family(OpFamilySpec(1, a, b, g)).p
        assert p[0, 0, 2] == 1.0 and p[1, 1, 1] == 1.0 and p[2, 2, 0] == 1.0
        assert p[0, 1, 1] == a and p[1, 2, 0] == b and p[0, 2, 0] == g

    def test_family1_linear_constraints(self):
        for a, b, g in itertools.product((0.0, 0.25, 1.0), repeat=3):
            p = op_family(OpFamilySpec(1, a, b, g)).p
            assert p[0, 1, 1] + p[0, 1, 2] == pytest.approx(1.0, abs=1e-15)
            assert p[1, 2, 0] + p[1, 2, 1] == pytest.approx(1.0, abs=1e-15)
            assert p[0, 2, 0] + p[0, 2, 2] == pytest.approx(1.0, abs=1e-15)

    def test_half_parameters_family2_is_identity(self):
        V = op_family(OpFamilySpec(2, 0.5, 0.5, 0.5))
        x = SimplexPoint([0.1, 0.6, 0.3])
        assert np.allclose(apply(V, x).coords, x.coords, atol=1e-15)

    def test_half_parameters_family1_swaps_first_and_third(self):
        V = op_family(OpFamilySpec(1, 0.5, 0.5, 0.5))
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rand_simplex(rng, 3)
            assert np.allclose(apply(V, x).coords, x.coords[[2, 1, 0]], atol=1e-14)

    @pytest.mark.parametrize("family", range(1, 7))
    def test_passes_strict_validation(self, family):
        rng = np.random.default_rng(60 + family)
        for _ in range(10):
            V = op_family(OpFamilySpec(family, *rng.random(3)))
            validate(V.p, mode="strict")

    @pytest.mark.parametrize("family", range(1, 7))
    def test_vertex_images_match_table(self, family):
        V = op_family(OpFamilySpec(family, *GENERIC))
        images = []
        for k in (1, 2, 3):
            img = apply(V, SimplexPoint.vertex(3, k)).coords
            images.append(int(np.argmax(img)) + 1)
            assert img.max() == 1.0
        assert tuple(images) == FAMILY_VERTEX_IMAGES[family]

    def test_bad_spec_rejected(self):
        with pytest.raises(InvalidFamily):
            OpFamilySpec(7, 0.1, 0.2, 0.3)
        with pytest.raises(ParameterOutOfRange):
            OpFamilySpec(1, 1.5, 0.2, 0.3)


class TestSpecFamilyType:
    @pytest.mark.parametrize("family", [True, False, 2.5, "2", None])
    def test_non_integral_family_rejected(self, family):
        with pytest.raises(InvalidFamily, match="must be an integer"):
            OpFamilySpec(family, 0.1, 0.2, 0.3)

    @pytest.mark.parametrize("family", [2.0, np.int64(2), np.float64(2.0)])
    def test_integral_family_stored_as_int(self, family):
        spec = OpFamilySpec(family, 0.1, 0.2, 0.3)
        assert type(spec.family) is int and spec.family == 2
        assert dumps(spec_to_obj(spec)) == dumps(spec_to_obj(OpFamilySpec(2, 0.1, 0.2, 0.3)))


class TestCertificate:
    @pytest.mark.parametrize("family", range(1, 7))
    def test_families_preserve_orthogonality(self, family):
        rng = np.random.default_rng(70 + family)
        for _ in range(5):
            assert is_orthogonality_preserving(op_family(OpFamilySpec(family, *rng.random(3))))

    def test_uniform_kernel_fails(self):
        assert not is_orthogonality_preserving(uniform_qso())

    def test_identity_passes(self):
        assert is_orthogonality_preserving(op_family(OpFamilySpec(2, 0.5, 0.5, 0.5)))

    def test_wrong_dimension_rejected(self):
        rng = np.random.default_rng(1)
        from helpers import rand_tensor

        with pytest.raises(DimensionUnsupported):
            is_orthogonality_preserving(rand_tensor(rng, 4))


class TestClassify:
    def test_round_trip_generic(self):
        # the parameters are read straight from the tensor entries, so the round
        # trip is exact; the 1e-12 bound below is looser than it needs to be
        spec = OpFamilySpec(1, *GENERIC)
        got = classify_op(op_family(spec))
        assert got.family == spec.family
        assert np.abs(np.array(got.params) - np.array(spec.params)).max() <= 1e-12

    @pytest.mark.parametrize("family", range(1, 7))
    def test_round_trip_small_grid(self, family):
        for a, b, g in itertools.product((0.0, 0.3, 0.5, 1.0), repeat=3):
            spec = OpFamilySpec(family, a, b, g)
            got = classify_op(op_family(spec))
            assert got.family == family
            assert np.allclose(got.params, (a, b, g), atol=1e-12)

    def test_identity_classifies_to_family2_halves(self):
        got = classify_op(op_family(OpFamilySpec(2, 0.5, 0.5, 0.5)))
        assert got == OpFamilySpec(2, 0.5, 0.5, 0.5)

    def test_uniform_kernel_raises_not_op(self):
        with pytest.raises(NotOrthogonalityPreserving):
            classify_op(uniform_qso())

    def test_interior_vertex_images_raise_vertex_error(self):
        with pytest.raises(VertexImageNotVertex):
            classify_op(uniform_qso())

    def test_vertex_structure_without_family_membership_raises(self):
        # family-1 vertex slices, but slice (1,2) leaks onto coordinate 1
        p = op_family(OpFamilySpec(1, *GENERIC)).p.copy()
        p[0, 1] = p[1, 0] = [0.2, 0.3, 0.5]
        V = QsoTensor(3, p)
        with pytest.raises(NotOrthogonalityPreserving, match="residual"):
            classify_op(V)

    def test_wrong_dimension_rejected(self):
        from helpers import rand_tensor

        with pytest.raises(DimensionUnsupported):
            classify_op(rand_tensor(np.random.default_rng(2), 4))

    def test_tied_vertex_image_goes_to_its_first_maximum(self):
        # V(e_1) = (1/2, 1/2, 0) is within 1/2 of e_1 and of e_2; argmax picks e_1
        p = op_family(OpFamilySpec(2, *GENERIC)).p.copy()
        p[0, 0] = [0.5, 0.5, 0.0]
        V = QsoTensor(3, p)
        got = classify_op(V, eps=0.5, vertex_tol=0.5)
        assert got == reference_classify_op(V, eps=0.5, vertex_tol=0.5) == OpFamilySpec(2, *GENERIC)

    def test_completeness_random_search(self):
        # random tensors conditioned on vertex-images-being-vertices: any
        # that pass the OP certificate must classify into the six families
        rng = np.random.default_rng(99)
        found_op = 0
        for _ in range(300):
            sigma = rng.permutation(3)
            p = rng.random((3, 3, 3))
            p = (p + p.transpose(1, 0, 2)) / 2.0
            p /= p.sum(axis=2, keepdims=True)
            for k in range(3):
                p[k, k, :] = 0.0
                p[k, k, sigma[k]] = 1.0
            V = QsoTensor(3, p)
            if is_orthogonality_preserving(V):
                found_op += 1
                spec = classify_op(V)
                assert np.abs(op_family(spec).p - V.p).max() <= 1e-9
        # generic random off-diagonal slices are essentially never OP
        assert found_op <= 3

    def test_classifies_all_op_tensors_found_by_search(self):
        # seed the search with genuine family members hidden behind noise-free
        # reconstruction: classify must recover them for every family
        rng = np.random.default_rng(123)
        for family in range(1, 7):
            for _ in range(20):
                spec = OpFamilySpec(family, *rng.random(3))
                V = op_family(spec)
                assert is_orthogonality_preserving(V)
                got = classify_op(V)
                assert got.family == family
                assert np.allclose(got.params, spec.params, atol=1e-12)


CORNER_VALUES = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)


def random_sparse_vertex_tensor(rng: np.random.Generator) -> QsoTensor:
    """Random m = 3 tensor whose diagonal slices are vertices and whose
    off-diagonal slices have random supports with entries well above noise."""
    p = np.zeros((3, 3, 3))
    # every third draw may send two vertices to the same vertex
    images = rng.integers(0, 3, 3) if rng.random() < 1 / 3 else rng.permutation(3)
    for k in range(3):
        p[k, k, images[k]] = 1.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        mask = rng.random(3) < 0.45
        mask[rng.integers(0, 3)] = True
        w = np.where(mask, rng.random(3) + 0.05, 0.0)
        p[i, j] = p[j, i] = w / w.sum()
    return QsoTensor(3, p)


class TestExactCriterionMatchesGrid:
    @pytest.mark.parametrize("family", range(1, 7))
    def test_family_members_and_their_conjugates(self, family):
        for a, b, g in itertools.product((0.0, 0.5, 1.0, 0.3), repeat=3):
            V = op_family(OpFamilySpec(family, a, b, g))
            for sigma in itertools.permutations(range(3)):
                W = conjugate(V, Permutation(sigma))
                assert is_orthogonality_preserving(W) is True
                assert reference_is_op_grid(W) is True

    def test_random_sparse_tensors(self):
        rng = np.random.default_rng(2024)
        verdicts = []
        for _ in range(600):
            V = random_sparse_vertex_tensor(rng)
            verdict = is_orthogonality_preserving(V)
            assert verdict == reference_is_op_grid(V)
            verdicts.append(verdict)
        # both verdicts occur, so the comparison is not vacuous
        assert 10 <= sum(verdicts) <= 590

    def test_random_dense_tensors_fail_both(self):
        rng = np.random.default_rng(2025)
        for _ in range(20):
            V = validate(rng.random((3, 3, 3)), mode="normalize")
            assert not is_orthogonality_preserving(V)
            assert not reference_is_op_grid(V)

    def test_nonpositive_support_threshold_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            is_orthogonality_preserving(op_family(OpFamilySpec(2, *GENERIC)), eps_supp=0.0)


class TestExactRoundTrip:
    @pytest.mark.parametrize("family", range(1, 7))
    def test_classify_inverts_build_exactly(self, family):
        for a, b, g in itertools.product(CORNER_VALUES, repeat=3):
            spec = OpFamilySpec(family, a, b, g)
            assert classify_op(op_family(spec)) == spec

    @pytest.mark.parametrize("family", range(1, 7))
    def test_conjugates_rebuild_to_the_last_ulp(self, family):
        # a conjugate may hold 1 - t where the family chart holds t, and
        # rebuilding recomputes 1 - (1 - t), which can differ from t by an ulp
        for a, b, g in itertools.product(CORNER_VALUES, repeat=3):
            V = op_family(OpFamilySpec(family, a, b, g))
            for sigma in itertools.permutations(range(3)):
                W = conjugate(V, Permutation(sigma))
                assert np.abs(op_family(classify_op(W)).p - W.p).max() <= 2.0**-52


def outcome(f, *args, **kwargs):
    """What a call gives, comparable across implementations: the value or
    (exception type, message). A spec is compared by the bits of its fields."""
    try:
        got = f(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    if isinstance(got, OpFamilySpec):
        return got.family, tuple(v.hex() for v in got.params)
    return got


EPS_CHOICES = (EPS_VAL, 0.0, 1e-6, 0.05)
VERTEX_TOL_CHOICES = (1e-6, 0.0, 1e-3, 0.4)
#: the last four leave a vertex support empty or holding several outputs
EPS_SUPP_CHOICES = (EPS_SUPP, 1e-9, 1e-3, 0.2, 1 / 3, 0.5, 2.0)
#: relative offsets of a perturbation from a tolerance: just inside, on, just outside
TOL_OFFSETS = (-(2.0**-20), 0.0, 2.0**-20)


@st.composite
def s2_cases(draw):
    """An m = 3 QsoTensor with tolerances for the classifier and the OP test.

    Kinds: a family member at random or corner parameters (maybe conjugated),
    the same with one symmetric entry pair moved by a tolerance times
    1 - 2^-20, 1 or 1 + 2^-20 (either sign), a random tensor with a random
    sparsity pattern, and a family member with one entry pair replaced by a
    negative or infinite value (NaN fails the constructor's symmetry check).
    The corner parameters include -0.0, which a spec keeps as it is.
    """
    eps = draw(st.sampled_from(EPS_CHOICES))
    vertex_tol = draw(st.sampled_from(VERTEX_TOL_CHOICES))
    eps_supp = draw(st.sampled_from(EPS_SUPP_CHOICES))
    kind = draw(st.sampled_from(("family", "perturbed", "random", "special")))
    if kind == "random":
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=27, max_size=27))
        keep = draw(st.lists(st.booleans(), min_size=27, max_size=27))
        p = np.where(keep, values, 0.0).reshape(3, 3, 3)
        p = (p + p.transpose(1, 0, 2)) / 2.0
        if draw(st.booleans()):  # a vertex image that is a vertex, so the classifier goes on
            for k in range(3):
                p[k, k] = 0.0
                p[k, k, draw(st.integers(0, 2))] = 1.0
        return QsoTensor(3, p), eps, vertex_tol, eps_supp
    param = st.one_of(st.sampled_from(CORNER_VALUES + (-0.0,)), st.floats(0.0, 1.0))
    spec = OpFamilySpec(draw(st.integers(1, 6)), draw(param), draw(param), draw(param))
    V = op_family(spec)
    if draw(st.booleans()):
        V = conjugate(V, Permutation(draw(st.permutations(range(3)))))
    if kind == "family":
        return V, eps, vertex_tol, eps_supp
    p = V.p.copy()
    i, j, k = (draw(st.integers(0, 2)) for _ in range(3))
    if kind == "perturbed":
        tol = draw(st.sampled_from([t for t in (eps, vertex_tol, eps_supp) if t > 0]))
        delta = tol * (1.0 + draw(st.sampled_from(TOL_OFFSETS)))
        value = p[i, j, k] + draw(st.sampled_from((delta, -delta)))
    else:
        value = draw(st.sampled_from((-1e-3, -EPS_VAL, -1.0, np.inf, -np.inf)))
    p[i, j, k] = p[j, i, k] = value
    return QsoTensor(3, p), eps, vertex_tol, eps_supp


class TestOnePassMatchesReference:
    """The one-pass classifier, the forbidden-mask OP test and the trusted
    conjugate give the same bits, verdicts and errors as the code they replaced."""

    @settings(max_examples=600, deadline=None)
    @given(case=s2_cases())
    def test_classify_op_and_op_test(self, case):
        V, eps, vertex_tol, eps_supp = case
        assert outcome(classify_op, V, eps=eps, vertex_tol=vertex_tol) == outcome(
            reference_classify_op, V, eps=eps, vertex_tol=vertex_tol
        )
        assert outcome(is_orthogonality_preserving, V, eps_supp=eps_supp) == outcome(
            reference_is_op_loop, V, eps_supp=eps_supp
        )
        assert outcome(classify_op, V) == outcome(reference_classify_op, V)
        assert outcome(is_orthogonality_preserving, V) == outcome(reference_is_op_loop, V)

    @settings(max_examples=200, deadline=None)
    @given(case=s2_cases(), sigma=st.permutations(range(3)))
    def test_conjugate_bits(self, case, sigma):
        V = case[0]
        got, want = conjugate(V, Permutation(sigma)), reference_conjugate(V, Permutation(sigma))
        assert got.p.tobytes() == want.p.tobytes()

    def test_all_six_slot_pairs_decide(self):
        # each disjoint slot pair alone breaks orthogonality preservation
        base = op_family(OpFamilySpec(2, 1.0, 1.0, 1.0)).p
        slots = [(i, j) for i in range(3) for j in range(i, 3)]
        pairs = [(a, b) for a, b in itertools.combinations(slots, 2) if not set(a) & set(b)]
        assert len(pairs) == 6
        for (i, j), (k, l) in pairs:
            p = base.copy()
            shared = int(np.argmax(p[k, l]))
            p[i, j, shared] = p[j, i, shared] = 1e-3
            V = QsoTensor(3, p)
            assert is_orthogonality_preserving(V) is False
            assert reference_is_op_loop(V) is False


def field_bits(spec: OpFamilySpec) -> tuple:
    return type(spec.family), spec.family, tuple(v.hex() for v in spec.params)


class TestTrustedSpec:
    """``classify_op`` builds its spec unchecked; it must equal the checked one."""

    @settings(max_examples=300, deadline=None)
    @given(case=s2_cases())
    def test_equals_the_checked_spec(self, case):
        V, eps, vertex_tol, _ = case
        try:
            got = classify_op(V, eps=eps, vertex_tol=vertex_tol)
        except (NotOrthogonalityPreserving, VertexImageNotVertex):
            return
        want = OpFamilySpec(got.family, *got.params)
        assert got == want and hash(got) == hash(want)
        assert field_bits(got) == field_bits(want)
        assert type(got.family) is int and all(type(v) is float for v in got.params)

    @pytest.mark.parametrize("family", range(1, 7))
    def test_negative_zero_corner_keeps_its_sign(self, family):
        spec = OpFamilySpec(family, -0.0, 0.5, -0.0)
        got = classify_op(op_family(spec))
        zero = (-0.0).hex()
        assert field_bits(got) == field_bits(spec) == (int, family, (zero, (0.5).hex(), zero))
        assert got == spec and hash(got) == hash(spec)

    def test_is_immutable(self):
        got = classify_op(op_family(OpFamilySpec(3, *GENERIC)))
        for name in ("family", "alpha", "beta", "gamma"):
            with pytest.raises(AttributeError):
                setattr(got, name, 0)
        assert got.params == GENERIC


class TestToleranceGuards:
    """NaN or negative tolerances raise instead of deciding a verdict."""

    @pytest.mark.parametrize("eps_supp", [float("nan"), 0.0, -1e-12])
    def test_op_test_rejects_nan_and_nonpositive_eps_supp(self, eps_supp):
        with pytest.raises(ParameterOutOfRange, match="eps_supp must be positive"):
            is_orthogonality_preserving(uniform_qso(), eps_supp=eps_supp)

    @pytest.mark.parametrize("name", ["eps", "vertex_tol"])
    @pytest.mark.parametrize("value", [float("nan"), -1e-12, -1.0, -np.inf])
    def test_classify_rejects_nan_and_negative_tolerances(self, name, value):
        V = op_family(OpFamilySpec(4, *GENERIC))
        with pytest.raises(ParameterOutOfRange, match=f"^{name} must be nonnegative"):
            classify_op(V, **{name: value})

    @pytest.mark.parametrize("family", range(1, 7))
    def test_zero_tolerances_classify_exact_members(self, family):
        spec = OpFamilySpec(family, *GENERIC)
        assert classify_op(op_family(spec), eps=0.0, vertex_tol=0.0) == spec

    def test_dimension_is_checked_before_the_tolerances(self):
        from helpers import rand_tensor

        V = rand_tensor(np.random.default_rng(3), 4)
        with pytest.raises(DimensionUnsupported):
            classify_op(V, eps=float("nan"))
        with pytest.raises(DimensionUnsupported):
            is_orthogonality_preserving(V, eps_supp=float("nan"))
