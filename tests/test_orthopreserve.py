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
    NegativeCoefficient,
    NotOrthogonalityPreserving,
    NotStochastic,
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
from qso.orthopreserve import _DIAGONAL_TO_FAMILY, _read_diagonal
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
    """An m = 3 coefficient array with tolerances for the classifier and the OP test.

    Kinds: a family member at random or corner parameters (maybe conjugated),
    the same with one symmetric entry pair moved by a tolerance times
    1 - 2^-20, 1 or 1 + 2^-20 (either sign) and balanced by the largest
    other entry of its slice where that entry can pay, a random tensor with
    a random sparsity pattern, and a family member with one entry pair
    replaced by a negative or infinite value (NaN fails the constructor's
    symmetry check). The corner parameters include -0.0, which a spec keeps
    as it is. The array is symmetric; :func:`s2_tensor` makes it a tensor,
    or sees the constructor refuse a negative or infinite entry.
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
        return p, eps, vertex_tol, eps_supp
    param = st.one_of(st.sampled_from(CORNER_VALUES + (-0.0,)), st.floats(0.0, 1.0))
    spec = OpFamilySpec(draw(st.integers(1, 6)), draw(param), draw(param), draw(param))
    V = op_family(spec)
    if draw(st.booleans()):
        V = conjugate(V, Permutation(draw(st.permutations(range(3)))))
    if kind == "family":
        return V.p, eps, vertex_tol, eps_supp
    p = V.p.copy()
    i, j, k = (draw(st.integers(0, 2)) for _ in range(3))
    if kind == "perturbed":
        tol = draw(st.sampled_from([t for t in (eps, vertex_tol, eps_supp) if t > 0]))
        delta = tol * (1.0 + draw(st.sampled_from(TOL_OFFSETS)))
        delta = draw(st.sampled_from((delta, -delta)))
        # the largest other entry of the slice pays for the move, so the slice
        # stays stochastic and the entry moves by delta; when none can,
        # the slice is left off and s2_tensor divides it by its sum
        other = max((c for c in range(3) if c != k), key=lambda c: p[i, j, c])
        p[i, j, k] += delta
        if p[i, j, other] >= delta:
            p[i, j, other] -= delta
        p[j, i] = p[i, j]
        return p, eps, vertex_tol, eps_supp
    p[i, j, k] = p[j, i, k] = draw(st.sampled_from((-1e-3, -EPS_VAL, -1.0, np.inf, -np.inf)))
    return p, eps, vertex_tol, eps_supp


def s2_tensor(p: np.ndarray) -> QsoTensor | None:
    """The tensor of p with stochastic slices, or None once the constructor refuses p.

    A negative entry raises :class:`NegativeCoefficient` and an infinite one
    :class:`NotStochastic`; no tensor holds either. Otherwise slices that
    miss one by more than ``EPS_VAL`` raise :class:`NotStochastic` and are
    divided by their sums, which keeps every entry's zero or nonzero; a
    slice (i, j) of zeros becomes (e_i + e_j) / 2, as in a Volterra operator.
    """
    if p.min() < 0:
        with pytest.raises(NegativeCoefficient, match="^coefficient below zero"):
            QsoTensor(3, p)
        return None
    sums = p.sum(axis=2, keepdims=True)
    if np.abs(sums - 1.0).max() <= EPS_VAL:
        return QsoTensor(3, p)
    with pytest.raises(NotStochastic, match=r"^slice \(\d, \d\) sums to "):
        QsoTensor(3, p)
    if np.isinf(sums).any():
        return None
    empty = sums[..., 0] == 0.0
    p = np.divide(p, sums, out=np.zeros_like(p), where=sums > 0.0)
    i, j = np.nonzero(empty)
    p[i, j, i] += 0.5
    p[i, j, j] += 0.5
    return QsoTensor(3, p)


class TestOnePassMatchesReference:
    """The one-pass classifier, the forbidden-mask OP test and the trusted
    conjugate give the same bits, verdicts and errors as the code they replaced."""

    @settings(max_examples=600, deadline=None)
    @given(case=s2_cases())
    def test_classify_op_and_op_test(self, case):
        p, eps, vertex_tol, eps_supp = case
        if (V := s2_tensor(p)) is None:
            return
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
        if (V := s2_tensor(case[0])) is None:
            return
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
            for a, b in {(i, j), (j, i)}:  # 1e-3 of the slice moved onto the shared output
                p[a, b, np.argmax(p[a, b])] -= 1e-3
                p[a, b, shared] += 1e-3
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
        p, eps, vertex_tol, _ = case
        if (V := s2_tensor(p)) is None:
            return
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


def takes_the_lookup(V: QsoTensor) -> bool:
    """True when the exact-diagonal table names V's family, False where the vertex match runs."""
    return _read_diagonal(V.p.ravel().tolist()) in _DIAGONAL_TO_FAMILY


def parameter_slots(family: int, edge: int) -> tuple:
    """Both halves of the slot holding parameter ``edge``, found by moving it from 0 to 1."""
    params = [1.0, 1.0, 1.0]
    high = op_family(OpFamilySpec(family, *params)).p
    params[edge] = 0.0
    low = op_family(OpFamilySpec(family, *params)).p
    return np.nonzero(high > low)


class TestDiagonalLookupMatchesReference:
    """Both sides of the exact-diagonal lookup give the reference classifier's outcome."""

    @pytest.mark.parametrize("family", range(1, 7))
    def test_members_and_their_conjugates_take_the_lookup(self, family):
        rng = np.random.default_rng(900 + family)
        corners = list(itertools.product((0.0, 0.5, 1.0), repeat=3))
        for params in corners + [tuple(rng.random(3)) for _ in range(10)]:
            for sigma in itertools.permutations(range(3)):
                V = conjugate(op_family(OpFamilySpec(family, *params)), Permutation(sigma))
                assert takes_the_lookup(V)
                for kwargs in ({}, {"eps": 0.0, "vertex_tol": 0.0}):
                    got = outcome(classify_op, V, **kwargs)
                    assert got == outcome(reference_classify_op, V, **kwargs)
                    assert type(got[0]) is int  # a spec, never an error

    @pytest.mark.parametrize("family", range(1, 7))
    def test_vertex_rows_moved_within_vertex_tol_take_the_match(self, family):
        vertex_tol = 1e-3
        base = op_family(OpFamilySpec(family, *GENERIC)).p
        kinds = set()
        for k, shift in itertools.product(range(3), (1, 2)):
            for delta in (vertex_tol / 4, vertex_tol, vertex_tol * (1 + 2.0**-20)):
                p = base.copy()
                s = int(np.argmax(p[k, k]))
                p[k, k, s] -= delta
                p[k, k, (s + shift) % 3] += delta
                V = QsoTensor(3, p)
                assert not takes_the_lookup(V)
                for eps in (EPS_VAL, vertex_tol / 2, 0.05):
                    got = outcome(classify_op, V, eps=eps, vertex_tol=vertex_tol)
                    assert got == outcome(reference_classify_op, V, eps=eps, vertex_tol=vertex_tol)
                    kinds.add(got[0] if isinstance(got[0], type) else "spec")
        assert kinds == {"spec", NotOrthogonalityPreserving, VertexImageNotVertex}

    def test_exact_vertex_rows_that_are_not_a_permutation(self):
        for images in itertools.product(range(3), repeat=3):
            if len(set(images)) == 3:
                continue
            p = np.full((3, 3, 3), 1.0 / 3.0)
            for k, s in enumerate(images):
                p[k, k] = np.eye(3)[s]
            V = QsoTensor(3, p)
            assert not takes_the_lookup(V)
            got = outcome(classify_op, V)
            assert got == outcome(reference_classify_op, V)
            assert got == (
                NotOrthogonalityPreserving,
                f"vertex images {tuple(s + 1 for s in images)} are not mutually orthogonal",
            )

    @pytest.mark.parametrize("row", [(0.5, 0.5, 0.0), (1 / 3, 1 / 3, 1 / 3), (0.9, 0.0, 0.1)])
    def test_a_row_far_from_every_vertex(self, row):
        for k in range(3):
            p = op_family(OpFamilySpec(3, *GENERIC)).p.copy()
            p[k, k] = row
            V = QsoTensor(3, p)
            assert not takes_the_lookup(V)
            got = outcome(classify_op, V)
            assert got == outcome(reference_classify_op, V)
            assert got[0] is VertexImageNotVertex and got[1].startswith(f"image of vertex {k + 1}")

    @pytest.mark.parametrize("family", range(1, 7))
    def test_parameters_within_eps_of_the_interval_are_clamped(self, family):
        for edge in range(3):
            rows, cols, outs = parameter_slots(family, edge)
            above = op_family(OpFamilySpec(family, 1.0, 1.0, 1.0)).p.copy()
            above[rows, cols, outs] += EPS_VAL / 2  # the slice sums stay within EPS_VAL
            params = [0.5, 0.5, 0.5]
            params[edge] = 0.0
            signed = op_family(OpFamilySpec(family, *params)).p.copy()
            signed[rows, cols, outs] = -0.0
            for p in (above, signed):
                V = QsoTensor(3, p)
                assert takes_the_lookup(V)
                for eps in (EPS_VAL, 0.0):
                    got = outcome(classify_op, V, eps=eps)
                    assert got == outcome(reference_classify_op, V, eps=eps)
            spec = classify_op(QsoTensor(3, above))
            assert spec.params == (1.0, 1.0, 1.0)
            assert str(classify_op(QsoTensor(3, signed)).params[edge]) == "-0.0"
