"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's computation paths:
family operators are evaluated from their displayed polynomials, algebra
products are recomputed with nested Python loops, and canonical Volterra
images come from the closed-form coordinate expression. Tests compare
library output against these independent routes.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from qso import (
    EPS_SUPP,
    EPS_VAL,
    DiscreteMeasure,
    FiniteKernel,
    NotStochastic,
    NotOrthogonalityPreserving,
    OpFamilySpec,
    ParameterOutOfRange,
    Permutation,
    QsoError,
    QsoTensor,
    RefutationReport,
    SimplexPoint,
    SkewMatrix,
    Trajectory,
    VertexImageNotVertex,
    apply,
    associator_residual,
    certificate_points,
    check_abs_continuity_property,
    classify_op,
    conjugate,
    from_canonical,
    op_family,
    support,
    validate,
)
from qso.core import _VALIDATE_MODES, as_integer, check_tol
from qso.errors import (
    DimensionMismatch,
    DimensionUnsupported,
    NegativeCoefficient,
    NotSymmetric,
)
from qso.orthopreserve import FAMILY_VERTEX_IMAGES

#: The edges (i, j), 0-based, of S^2 that carry alpha, beta and gamma.
FAMILY_EDGES = ((0, 1), (1, 2), (0, 2))

#: The paper's family table: per family, the endpoint (1-based) of each edge
#: in ``FAMILY_EDGES`` at which the Volterra entry W[i, j, endpoint] holds
#: alpha, beta and gamma, where p[:, :, sigma] = W. The other endpoint holds
#: one minus that parameter.
FAMILY_PARAM_ENDPOINTS: dict[int, tuple[int, int, int]] = {
    1: (2, 3, 3),
    2: (1, 2, 1),
    3: (1, 3, 1),
    4: (2, 2, 3),
    5: (2, 2, 1),
    6: (1, 3, 3),
}


def rand_simplex(rng: np.random.Generator, m: int, n_zeros: int = 0) -> SimplexPoint:
    """Random interior point, optionally with exactly n_zeros zero coordinates."""
    w = rng.exponential(size=m) + 1e-3
    if n_zeros:
        dead = rng.choice(m, size=min(n_zeros, m - 1), replace=False)
        w[dead] = 0.0
    return SimplexPoint(w / w.sum())


def rand_tensor(rng: np.random.Generator, m: int) -> QsoTensor:
    return validate(rng.random((m, m, m)), mode="normalize")


def sparse_operator(rng, m: int, support: int, outputs) -> QsoTensor:
    """An m-species operator, built by the public constructor, on its first coordinates.

    Each slice (i, j) with i, j < ``support`` splits its mass over
    ``outputs(i, j)`` random outputs below ``support``; every other slice
    puts its mass on output max(i, j). An orbit from a start on the first
    coordinates stays on them and never reads those other slices.
    """
    p = np.zeros((m, m, m))
    for i in range(support):
        for j in range(i, support):
            ks = rng.choice(support, outputs(i, j), replace=False)
            w = rng.exponential(size=ks.size)
            p[i, j, ks] = p[j, i, ks] = w / w.sum()
    i, j = np.nonzero(p.sum(axis=2) == 0.0)
    p[i, j, np.maximum(i, j)] = 1.0
    return QsoTensor(m, p)


def rand_skew(rng: np.random.Generator, m: int) -> SkewMatrix:
    r = rng.uniform(-1.0, 1.0, (m, m))
    return SkewMatrix(m, (r - r.T) / 2.0)


def rand_volterra_tensor(rng: np.random.Generator, m: int) -> QsoTensor:
    """Random Volterra operator, alternating two construction routes."""
    if rng.random() < 0.5:
        return from_canonical(rand_skew(rng, m))
    p = rng.random((m, m, m))
    p = (p + p.transpose(1, 0, 2)) / 2.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if k != i and k != j:
                    p[i, j, k] = 0.0
    p /= p.sum(axis=2, keepdims=True)
    return QsoTensor(m, p)


def rand_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    q = rng.random((n, n, n))
    q = (q + q.transpose(1, 0, 2)) / 2.0
    q /= q.sum(axis=2, keepdims=True)
    return FiniteKernel(n, q)


def rand_volterra_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    q = rng.random((n, n, n))
    q = (q + q.transpose(1, 0, 2)) / 2.0
    for x in range(n):
        for y in range(n):
            for k in range(n):
                if k != x and k != y:
                    q[x, y, k] = 0.0
    q /= q.sum(axis=2, keepdims=True)
    return FiniteKernel(n, q)


def with_forbidden_entry(value: float) -> QsoTensor:
    """The identity Volterra operator on 3 species with p[1,2,3] = p[2,1,3] = value."""
    p = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            p[i, j, i] += 0.5
            p[i, j, j] += 0.5
    p[0, 1] = p[1, 0] = [0.5 - value / 2, 0.5 - value / 2, value]
    return QsoTensor(3, p)


def rand_measure(rng: np.random.Generator, n: int, n_zeros: int = 0) -> DiscreteMeasure:
    w = rng.exponential(size=n) + 1e-3
    if n_zeros:
        dead = rng.choice(n, size=min(n_zeros, n - 1), replace=False)
        w[dead] = 0.0
    return DiscreteMeasure(w / w.sum())


def family_polynomial(family: int, a: float, b: float, g: float, v) -> np.ndarray:
    """Oracle: the displayed image polynomials of the six OP families."""
    x, y, z = v
    if family == 1:
        return np.array([
            z * z + 2 * g * x * z + 2 * b * y * z,
            y * y + 2 * a * x * y + 2 * (1 - b) * y * z,
            x * x + 2 * (1 - a) * x * y + 2 * (1 - g) * x * z,
        ])
    if family == 2:
        return np.array([
            x * x + 2 * a * x * y + 2 * g * x * z,
            y * y + 2 * (1 - a) * x * y + 2 * b * y * z,
            z * z + 2 * (1 - g) * x * z + 2 * (1 - b) * y * z,
        ])
    if family == 3:
        return np.array([
            x * x + 2 * a * x * y + 2 * g * x * z,
            z * z + 2 * (1 - g) * x * z + 2 * b * y * z,
            y * y + 2 * (1 - a) * x * y + 2 * (1 - b) * y * z,
        ])
    if family == 4:
        return np.array([
            y * y + 2 * a * x * y + 2 * b * y * z,
            z * z + 2 * g * x * z + 2 * (1 - b) * y * z,
            x * x + 2 * (1 - a) * x * y + 2 * (1 - g) * x * z,
        ])
    if family == 5:
        return np.array([
            y * y + 2 * a * x * y + 2 * b * y * z,
            x * x + 2 * (1 - a) * x * y + 2 * g * x * z,
            z * z + 2 * (1 - g) * x * z + 2 * (1 - b) * y * z,
        ])
    if family == 6:
        return np.array([
            z * z + 2 * g * x * z + 2 * b * y * z,
            x * x + 2 * a * x * y + 2 * (1 - g) * x * z,
            y * y + 2 * (1 - a) * x * y + 2 * (1 - b) * y * z,
        ])
    raise ValueError(family)


def reference_family_array(spec: OpFamilySpec) -> np.ndarray:
    """Oracle: a family's coefficient array, written from the paper's table.

    The table-driven writer that the min(sigma(i), sigma(j)) rule of
    ``qso.orthopreserve`` replaced: each parameter goes to the endpoint
    ``FAMILY_PARAM_ENDPOINTS`` names, relabeled by the family's sigma.
    """
    sigma = [s - 1 for s in FAMILY_VERTEX_IMAGES[spec.family]]
    p = np.zeros((3, 3, 3))
    for k in range(3):
        p[k, k, sigma[k]] = 1.0
    for (i, j), end, t in zip(FAMILY_EDGES, FAMILY_PARAM_ENDPOINTS[spec.family], spec.params):
        own, other = (sigma[i], sigma[j]) if end - 1 == i else (sigma[j], sigma[i])
        p[i, j, own] = p[j, i, own] = t
        p[i, j, other] = p[j, i, other] = 1.0 - t
    return p


def product_loops(p: np.ndarray, x, y) -> np.ndarray:
    """Oracle: the algebra product computed with plain nested loops."""
    m = p.shape[0]
    out = np.zeros(m)
    for k in range(m):
        acc = 0.0
        for i in range(m):
            for j in range(m):
                acc += p[i, j, k] * x[i] * y[j]
        out[k] = acc
    return out


def canonical_image(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Oracle: coordinates x_k * (1 + sum_i a[k, i] x_i)."""
    return x * (1.0 + a @ x)


def reference_associator_residual(V: QsoTensor) -> float:
    """Oracle: both sides of the associator contracted separately by einsum."""
    left = np.einsum("ija,aku->ijku", V.p, V.p)
    right = np.einsum("jkb,ibu->ijku", V.p, V.p)
    return float(np.abs(left - right).max())


def reference_one_product_residual(V: QsoTensor) -> float:
    """Oracle: the associator residual through the whole left-product array.

    L = P(m^2 x m) @ P(m x m^2) holds every ((e_i o e_j) o e_k)_u, and the
    gap to L[j, k, i, u] is taken one i at a time. This is the single-tensor
    path that the slab-by-slab residual replaced, kept to check it.
    """
    m = V.m
    L = (V.p.reshape(m * m, m) @ V.p.reshape(m, m * m)).reshape(m, m, m, m)
    return max(float(np.abs(L[i] - L[:, :, i]).max()) for i in range(m))


def reference_residuals(P: np.ndarray, whole_gap_max: int = 1 << 15) -> np.ndarray:
    """Oracle: the residual kernel with a stack path through the left-product array.

    The three-path kernel the single slab loop replaced: whole gap when
    n * m^4 fits ``whole_gap_max``; slab by slab for one large tensor; for
    a large stack, the whole (n, m, m, m, m) array L and a loop over i.
    """
    n, m = P.shape[:2]
    if n == 1 and m**4 > whole_gap_max:
        p = P[0]
        flat = p.reshape(m, m * m)
        slab = np.empty((m, m, m))
        gap = np.empty((m, m, m))
        worst = np.empty(m)
        for j in range(m):
            np.matmul(p[j], flat, out=slab.reshape(m, m * m))
            np.subtract(slab, slab.transpose(1, 0, 2), out=gap)
            worst[j] = gap.max()
        return worst.max(keepdims=True)
    L = (P.reshape(n, m * m, m) @ P.reshape(n, m, m * m)).reshape(n, m, m, m, m)
    if n * m**4 <= whole_gap_max:
        gap = L - L.transpose(0, 3, 1, 2, 4)
        return np.abs(gap, out=gap).reshape(n, -1).max(axis=1)
    out = np.zeros(n)
    gap = np.empty((n, m, m, m))
    for i in range(m):
        np.subtract(L[:, i], L[:, :, :, i], out=gap)
        np.maximum(out, np.abs(gap, out=gap).reshape(n, -1).max(axis=1), out=out)
    return out


def reference_forbidden_max(p: np.ndarray) -> float:
    """Oracle: the largest entry p[i, j, k] with k not in {i, j}, by a gather (0 if none)."""
    i, j, k = np.indices(p.shape)
    return float(p[(k != i) & (k != j)].max(initial=0.0))


def reference_refute(family: int, grid_step: float) -> RefutationReport:
    """Oracle: the refutation scan as one op_family call per grid point.

    Each point is evaluated with the library's single-tensor
    ``associator_residual`` (itself checked against
    :func:`reference_associator_residual`), so the report must equal the
    batched scan exactly, tie-breaks included: a strict ``<`` keeps the
    first minimum in lexicographic (alpha, beta, gamma) order.
    """
    vals = np.arange(0.0, 1.0 + grid_step / 2.0, grid_step)
    vals[-1] = min(vals[-1], 1.0)
    if vals[-1] < 1.0:
        vals = np.append(vals, 1.0)
    best = np.inf
    argbest = (0.0, 0.0, 0.0)
    for a in vals:
        for b in vals:
            for g in vals:
                r = associator_residual(op_family(OpFamilySpec(family, a, b, g)))
                if r < best:
                    best = r
                    argbest = (float(a), float(b), float(g))
    corner_min = min(
        associator_residual(op_family(OpFamilySpec(family, a, b, g)))
        for a in (0.0, 1.0)
        for b in (0.0, 1.0)
        for g in (0.0, 1.0)
    )
    return RefutationReport(family, float(grid_step), float(best), argbest, float(corner_min))


def reference_validate(p, mode: str = "strict", *, eps: float = EPS_VAL) -> QsoTensor:
    """Oracle: ``validate`` as it was before it worked in place, verbatim.

    Check (and optionally repair) a raw cubic array of coefficients.

    In ``strict`` mode the input must already satisfy the invariants within
    ``eps``; it is symmetrized exactly but otherwise untouched. In
    ``normalize`` mode the array is symmetrized via (p[i,j,k]+p[j,i,k])/2
    and every (i, j) slice is rescaled to sum to one. The input is read in
    C order, so the result depends only on its values, not on their layout.

    Raw entries below -eps raise :class:`NegativeCoefficient` and entries
    above 1 + eps raise :class:`NotStochastic` in both modes. ``eps`` must be
    nonnegative; NaN or a negative value raises :class:`ParameterOutOfRange`.
    """
    if mode not in _VALIDATE_MODES:
        raise ParameterOutOfRange(f"mode must be one of {_VALIDATE_MODES}, got {mode!r}")
    check_tol("eps", eps)
    arr = np.asarray(p, dtype=float, order="C")
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise DimensionMismatch(f"expected a cubic m x m x m array, got shape {arr.shape}")
    m = arr.shape[0]
    if m < 2:
        raise DimensionMismatch("a QSO needs at least two species")
    lo, hi = arr.min(), arr.max()
    # NaN and +-inf always reach an extreme, so these two decide finiteness
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NotStochastic("tensor contains non-finite entries")
    if lo < -eps:
        raise NegativeCoefficient(f"coefficient below zero: min entry = {lo:.3e}")
    if hi > 1.0 + eps:
        raise NotStochastic(f"coefficient above one: max entry = {hi:.6g}")

    if mode == "strict":
        asym = np.abs(arr - arr.transpose(1, 0, 2)).max()
        if asym > eps:
            raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {eps:g}")
    sym = (arr + arr.transpose(1, 0, 2)) / 2.0

    sums = sym.sum(axis=2)
    if mode == "strict":
        worst = np.abs(sums - 1.0).max()
        if worst > eps:
            bad = np.unravel_index(np.abs(sums - 1.0).argmax(), sums.shape)
            raise NotStochastic(
                f"slice ({bad[0] + 1}, {bad[1] + 1}) sums to {float(sums[bad])!r}; "
                f"off by {worst:.3e}"
            )
    elif sums.min() <= 0.0:
        raise NotStochastic("cannot rescale a slice with non-positive sum")
    # every raw entry is >= -eps, so is every mean of two: only noise is clamped
    sym[sym < 0.0] = 0.0
    if mode == "normalize":
        sym = sym / sym.sum(axis=2, keepdims=True)

    # (a + a^T) / 2 is exactly symmetric, and mirrored slices hold the same
    # values in the same order, so the clamp and the rescaling keep it so
    return QsoTensor._trusted(m, sym)


def reference_iterate(V: QsoTensor, x0: SimplexPoint, max_iter: int, tol: float,
                      window: int = 64) -> Trajectory:
    """Oracle: iteration with one max-norm test per lag, smallest lag first."""
    points = [x0]
    for t in range(1, max_iter + 1):
        nxt = apply(V, points[-1])
        points.append(nxt)
        if np.abs(nxt.coords - points[-2].coords).max() <= tol:
            return Trajectory(np.array([p.coords for p in points]), "converged")
        for dist in range(2, min(window, t) + 1):
            if np.abs(nxt.coords - points[t - dist].coords).max() <= tol:
                return Trajectory(np.array([p.coords for p in points]), "cycle", dist)
    return Trajectory(np.array([p.coords for p in points]), "budget_exhausted")


def reference_fixed_points(V: QsoTensor, tol: float = 1e-10) -> frozenset:
    """Oracle: apply the operator to each vertex and compare in max norm."""
    fixed = set()
    for k in range(1, V.m + 1):
        e = SimplexPoint.vertex(V.m, k)
        if np.abs(apply(V, e).coords - e.coords).max() <= tol:
            fixed.add(k)
    return frozenset(fixed)


def reference_is_op_grid(V: QsoTensor, grid: int = 101, eps_supp: float = EPS_SUPP) -> bool:
    """Oracle: orthogonality preservation on S^2 probed by operator images.

    Every orthogonal pair on S^2 is two vertices or an edge point and the
    opposite vertex, so this compares the image supports of the three
    vertex pairs, and of ``grid`` points on each edge against the opposite
    vertex's image. The edge images are evaluated in one batch per edge.
    """
    assert V.m == 3
    vertex_supports = [support(apply(V, SimplexPoint.vertex(3, k)), eps_supp) for k in (1, 2, 3)]
    for k in range(3):
        for l in range(k + 1, 3):
            if vertex_supports[k] & vertex_supports[l]:
                return False
    t = np.linspace(0.0, 1.0, grid)
    for k in range(3):
        i, j = (o for o in range(3) if o != k)
        x = np.zeros((grid, 3))
        x[:, i], x[:, j] = t, 1.0 - t
        images = np.einsum("ijk,ni,nj->nk", V.p, x, x)
        opposite = [c - 1 for c in vertex_supports[k]]
        if (images[:, opposite] > eps_supp).any():
            return False
    return True


def reference_certificate(V: QsoTensor, eps: float = EPS_VAL) -> bool:
    """Oracle: the Volterra certificate as one ``apply`` per probe point."""
    return check_abs_continuity_property(V, certificate_points(V.m), eps_supp=eps)


def reference_violation_witness(K: FiniteKernel, eps: float = EPS_VAL):
    """Oracle: the subset scan as a loop over masks, then x, then y."""
    n = K.n
    atoms = np.arange(n)
    for mask in range(1, 1 << n):
        inside = atoms[[bool(mask >> k & 1) for k in range(n)]]
        outside = atoms[[not bool(mask >> k & 1) for k in range(n)]]
        threshold = len(inside) * eps
        mass = K.q[:, :, inside].sum(axis=2)
        for x in outside:
            for y in outside:
                if mass[x, y] > threshold:
                    return (tuple(int(a) + 1 for a in inside), int(x) + 1, int(y) + 1)
    return None


def reference_dumps(obj) -> str:
    """Oracle: the deterministic JSON emitter as one ``isinstance`` chain."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{reference_dumps(str(k))}:{reference_dumps(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(str(obj), ensure_ascii=False)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_array_to_entries(p: np.ndarray) -> list[dict]:
    """Oracle: the nonzero entries with i <= j by a triple loop."""
    m = p.shape[0]
    entries = []
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                if p[i, j, k] != 0.0:
                    entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "p": float(p[i, j, k])})
    return entries


def reference_entries_to_array(m: int, entries, payload: str) -> np.ndarray:
    """Oracle: an entry payload read one entry at a time.

    This is the per-entry loop of ``serialize._entries_to_array``, the one
    place its error messages are worded.
    """
    if not isinstance(entries, (list, tuple)):
        raise QsoError(f"{payload} entries must be a list, got {type(entries).__name__}")
    values = {}
    for ent in entries:
        try:
            i, j, k, v = ent["i"], ent["j"], ent["k"], ent["p"]
            if type(v) is not int and type(v) is not float:  # only a JSON number
                raise TypeError(f"p must be a number, got {type(v).__name__}")
            v = float(v)
        except (KeyError, TypeError, OverflowError) as exc:
            raise QsoError(f"bad {payload} entry {ent!r}: {exc}") from exc
        if not type(i) is type(j) is type(k) is int:  # JSON integers need no further check
            i, j, k = as_integer(i), as_integer(j), as_integer(k)
            if None in (i, j, k):
                raise QsoError(f"bad {payload} entry {ent!r}: indices must be integers")
        if not (1 <= i <= m and 1 <= j <= m and 1 <= k <= m):
            raise QsoError(f"{payload} entry indices {(i, j, k)} outside 1..{m}")
        if i > j:
            raise QsoError(f"{payload} entries must have i <= j, got {(i, j, k)}")
        if (i, j, k) in values:
            raise QsoError(f"duplicate {payload} entry for {(i, j, k)}")
        values[i, j, k] = v
    need = m * (m + 1) // 2
    if len(values) < need:
        raise NotStochastic(
            f"{payload} lists {len(values)} entries, fewer than the {need} slices i <= j "
            f"of size {m}"
        )
    p = np.zeros((m, m, m))
    for (i, j, k), v in values.items():
        p[i - 1, j - 1, k - 1] = v
        p[j - 1, i - 1, k - 1] = v
    return p


def reference_conjugacy_classes(
    families=range(1, 7), params=(0.3, 0.6, 0.9)
) -> list[frozenset[int]]:
    """Oracle: the OP families grouped by their orbit under conjugation.

    Conjugates one member of each family (at ``params``) by all 6
    permutations of S_3 and classifies the results; families with the
    same orbit form one class, sorted by their smallest member.
    """
    classes: dict[frozenset[int], set[int]] = {}
    for f in sorted({OpFamilySpec(f, *params).family for f in families}):
        V = op_family(OpFamilySpec(f, *params))
        orbit = frozenset(
            classify_op(conjugate(V, Permutation(sigma))).family
            for sigma in itertools.permutations(range(3))
        )
        classes.setdefault(orbit, set()).add(f)
    return sorted((frozenset(c) for c in classes.values()), key=min)


def reference_is_op_loop(V: QsoTensor, eps_supp: float = EPS_SUPP) -> bool:
    """Oracle: the exact OP test as a loop over every pair of disjoint slots.

    The slice-pair criterion of ``qso.orthopreserve`` with one Python
    comparison per pair of slots {i, j}, {k, l} from ``itertools``. Its
    guard is written ``eps_supp <= 0``, so a NaN threshold gives a verdict
    here where the library raises.
    """
    if V.m != 3:
        raise DimensionUnsupported(f"classification is defined for m = 3, got m = {V.m}")
    if eps_supp <= 0:
        raise ParameterOutOfRange("eps_supp must be positive")
    supp = V.p > eps_supp
    slots = [(i, j) for i in range(V.m) for j in range(i, V.m)]
    return not any(
        (supp[i, j] & supp[k, l]).any()
        for (i, j), (k, l) in itertools.combinations(slots, 2)
        if not {i, j} & {k, l}
    )


def reference_classify_op(V: QsoTensor, *, eps: float = EPS_VAL,
                          vertex_tol: float = 1e-6) -> OpFamilySpec:
    """Oracle: the classifier one vertex at a time, rebuilding a whole tensor.

    Each vertex image is matched against a fresh identity row, the
    parameters are read from the relabeled copy p[:, :, sigma] at the
    endpoints of the paper's table, and the residual is taken against
    :func:`reference_family_array` of the recovered spec. It takes
    the tolerances unchecked: a NaN or negative one gives a verdict or a
    different error here where the library raises ``ParameterOutOfRange``.
    """
    if V.m != 3:
        raise DimensionUnsupported(f"classification is defined for m = 3, got m = {V.m}")
    sigma = []
    for k in range(3):
        img = V.p[k, k]
        nearest = int(np.argmax(img))
        if np.abs(img - np.eye(3)[nearest]).max() > vertex_tol:
            raise VertexImageNotVertex(
                f"image of vertex {k + 1} is {np.round(img, 6).tolist()}, "
                f"not within {vertex_tol:g} of any vertex"
            )
        sigma.append(nearest)
    images = tuple(s + 1 for s in sigma)
    if len(set(images)) != 3:
        raise NotOrthogonalityPreserving(
            f"vertex images {images} are not mutually orthogonal"
        )
    family = {v: f for f, v in FAMILY_VERTEX_IMAGES.items()}[images]
    w = V.p[:, :, sigma]
    values = [
        float(w[i, j, e - 1])
        for (i, j), e in zip(FAMILY_EDGES, FAMILY_PARAM_ENDPOINTS[family])
    ]
    if any(not -eps <= v <= 1.0 + eps for v in values):
        raise NotOrthogonalityPreserving(
            f"recovered parameters {values} fall outside [0, 1]"
        )
    spec = OpFamilySpec(family, *(min(max(v, 0.0), 1.0) for v in values))
    residual = np.abs(reference_family_array(spec) - V.p).max()
    if residual > eps:
        raise NotOrthogonalityPreserving(
            f"reconstruction residual {residual:.3e} exceeds {eps:g}; "
            f"the tensor is outside the six families"
        )
    return spec


def reference_conjugate(V: QsoTensor, perm: Permutation) -> QsoTensor:
    """Oracle: conjugation through ``Permutation.inverse`` and the checked constructor."""
    inv = list(perm.inverse().sigma)
    return QsoTensor(V.m, V.p[np.ix_(inv, inv, inv)])


def reference_from_canonical(a: SkewMatrix) -> QsoTensor:
    """Oracle: the Volterra tensor of a skew matrix, one entry pair at a time."""
    m = a.m
    p = np.zeros((m, m, m))
    half = (1.0 + a.a) / 2.0
    for k in range(m):
        p[k, k, k] = 1.0
        for i in range(m):
            if i != k:
                p[k, i, k] = half[k, i]
                p[i, k, k] = half[k, i]
    return QsoTensor(m, p)
