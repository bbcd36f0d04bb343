"""The commutative algebra induced by a QSO and its associativity.

Every tensor of heredity coefficients defines a bilinear product on R^m,

    (x o y)_k = sum_{i,j} p[i, j, k] * x_i * y_j,

commutative because p is symmetric in (i, j) and generally nonassociative.
By multilinearity, associativity holds for all vectors iff it holds on the
m^3 basis triples, so the decision procedure here is exact up to floating
point: compare (e_i o e_j) o e_k with e_i o (e_j o e_k) for every triple.

All m^4 left products are entries of one matrix product,

    L = P(m^2 x m) @ P(m x m^2),    L[i, j, k, u] = ((e_i o e_j) o e_k)_u,

and the right products need no second one: :class:`QsoTensor` keeps p
exactly symmetric in (i, j), so e_i o (e_j o e_k) = (e_j o e_k) o e_i =
L[j, k, i, :]. The residual is the largest entry of |L - L[j, k, i, u]|.
Only small inputs form L. Anything larger goes slab by slab: slab j,

    M_j = p[j] @ P(m x m^2),    M_j[i, k, u] = L[j, i, k, u] = L[i, j, k, u],

also holds L[j, k, i, :] = M_j[k, i, :], so the associator of (i, j, k) is
M_j[i, k, :] - M_j[k, i, :], and one m^3 slab at a time keeps the memory
at O(m^3) per tensor. A stack of tensors (the refutation grid) takes the
same slabs, one batched product per j. Row (j, i) of p is row (i, j)
bit for bit, so M_j sums the same products as L and the residual does not
depend on the path.
The refutation grid evaluates stacks of family tensors with the same
kernel in batches of ``_REFUTE_CHUNK`` points, and is capped at
``_REFUTE_MAX_AXIS`` values per parameter (a step of at least 0.005).

For family 2 a reduced system of seven polynomial conditions in the
parameters is kept verbatim as a cross-check oracle
(:func:`v2_condition_system`). Note it is stricter than the basis-triple
decision at exactly one corner, (alpha, beta, gamma) = (1, 0, 1): the
system splits the constraint alpha*(gamma-beta) == gamma*(1-beta) into two
separate zero conditions, which that (associative) corner violates.
:func:`assoc_solutions_v2` therefore filters by the basis-triple decision.

The corners read as tournaments. At a family-2 corner every product
e_i o e_j (i != j) is e_i or e_j, so the corner is a tournament on
{1, 2, 3} in which i beats j when e_i o e_j = e_i. Such a product is
associative iff the tournament is transitive (then e_i o e_j = e_max(i,j)
for a total order): the six transitive tournaments are the six
associative corners, and (1, 1, 0) and (0, 0, 1) are the two 3-cycles
(at (1, 1, 0), 1 beats 2, 2 beats 3 and 3 beats 1). The paper's solution
list, pinned by the acceptance test, keeps the 3-cycle (1, 1, 0) and
omits the transitive corner (1, 0, 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import QsoTensor, _is_real, _plain, as_integer, check_tol, check_unit
from .errors import DimensionMismatch, InvalidFamily, ParameterOutOfRange, TooLarge
from .orthopreserve import OpFamilySpec, op_family

EPS_ASSOC = 1e-9

#: Most values per parameter axis of the refutation grid, i.e. the smallest
#: step is 0.005: 201^3 (about 8.1 million) grid points, whose residuals
#: take 65 MB; the scan takes about 11 s on one core of a 2-core x86-64
#: host. Smaller steps raise :class:`TooLarge` before anything is allocated.
_REFUTE_MAX_AXIS = 201

#: Grid points per batch of the refutation scan; bounds its temporaries at
#: a few MB whatever the step.
_REFUTE_CHUNK = 4096

#: Largest gap (elements of 8 bytes) that :func:`_residuals` takes in one
#: piece. Small inputs skip the slab loop's call overhead; on larger ones
#: the strided pass over the whole gap is slower than the loop (one tensor
#: crosses over between m = 12 and m = 15). Above it a tensor or a stack
#: goes slab by slab.
_WHOLE_GAP_MAX = 1 << 15


def product(V: QsoTensor, x, y) -> np.ndarray:
    """Algebra product (x o y)_k = sum_{i,j} p[i, j, k] x_i y_j.

    Accepts arbitrary vectors of R^m (not only simplex points) and returns
    a plain array; bilinear in both arguments and commutative.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != (V.m,) or yv.shape != (V.m,):
        raise DimensionMismatch(
            f"operands must be vectors of length {V.m}, got {xv.shape} and {yv.shape}"
        )
    return np.einsum("ijk,i,j->k", V.p, xv, yv)


def _residuals(P: np.ndarray) -> np.ndarray:
    """Associator residual of every tensor in an (n, m, m, m) stack.

    Each tensor must be exactly symmetric in its first two indices (see
    the module docstring). When the whole gap to L[j, k, i, u] fits in
    ``_WHOLE_GAP_MAX`` elements it is taken in one piece. Above that the
    stack takes two (n, m, m, m) arrays, the slabs M_j and their gap,
    reused for each j, and keeps one maximum per tensor and slab.
    """
    n, m = P.shape[:2]
    if n * m**4 <= _WHOLE_GAP_MAX:
        L = (P.reshape(n, m * m, m) @ P.reshape(n, m, m * m)).reshape(n, m, m, m, m)
        gap = L - L.transpose(0, 3, 1, 2, 4)
        return np.abs(gap, out=gap).reshape(n, -1).max(axis=1)
    flat = P.reshape(n, m, m * m)
    slab = np.empty((n, m, m, m))
    gap = np.empty((n, m, m, m))
    worst = np.empty((m, n))
    for j in range(m):
        np.matmul(P[:, j], flat, out=slab.reshape(n, m, m * m))
        np.subtract(slab, slab.transpose(0, 2, 1, 3), out=gap)
        # gap[k, i] is exactly -gap[i, k], so its max is its largest |entry|
        gap.reshape(n, -1).max(axis=1, out=worst[j])
    return worst.max(axis=0)


def associator_residual(V: QsoTensor) -> float:
    """Largest associator entry over all basis triples.

    Computes max over (i, j, k, u) of the coordinate-u gap between
    (e_i o e_j) o e_k and e_i o (e_j o e_k). Zero (up to floating point)
    iff the algebra is associative.
    """
    return float(_residuals(V.p[np.newaxis])[0])


def is_associative(V: QsoTensor, eps: float = EPS_ASSOC) -> bool:
    """True iff all basis triples associate within ``eps``.

    ``eps`` must be nonnegative (0 asks for exact associativity); NaN or a
    negative value raises :class:`ParameterOutOfRange` instead of a verdict.
    """
    check_tol("eps", eps)
    return associator_residual(V) <= eps


def v2_condition_system(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The seven reduced residuals (left minus right) for family 2.

    The expressions, in order:

        beta * (1 - beta)
        alpha * (1 - gamma) - (alpha - gamma) * (1 - beta)
        alpha * (1 - alpha)
        alpha * (gamma - beta)
        gamma * (1 - gamma)
        gamma * (1 - beta)
        (beta - gamma) * (1 - alpha) - beta * (1 - gamma)

    All seven vanishing is sufficient for associativity of the family-2
    member but not necessary: see the module docstring for the one corner
    where the split expressions 4 and 6 over-reject.
    """
    a, b, g = check_unit("alpha", alpha), check_unit("beta", beta), check_unit("gamma", gamma)
    return np.array(
        [
            b * (1 - b),
            a * (1 - g) - (a - g) * (1 - b),
            a * (1 - a),
            a * (g - b),
            g * (1 - g),
            g * (1 - b),
            (b - g) * (1 - a) - b * (1 - g),
        ]
    )


def assoc_solutions_v2(eps: float = EPS_ASSOC) -> set[tuple[float, float, float]]:
    """All corner parameter triples for which family 2 is associative.

    The parameter corners {0, 1}^3 are the only candidates (the basis
    triples force alpha*(1-alpha), beta*(1-beta) and gamma*(1-gamma) to
    vanish); each corner is decided by the basis-triple residual. ``eps``
    must be nonnegative, as for :func:`is_associative`.
    """
    check_tol("eps", eps)
    corners = list(itertools.product((0.0, 1.0), repeat=3))
    res = _residuals(np.stack([op_family(OpFamilySpec(2, *c)).p for c in corners]))
    return {c for c, r in zip(corners, res) if r <= eps}


@dataclass(frozen=True)
class RefutationReport:
    """Grid-scan evidence that a family is nowhere associative."""

    family: int
    grid_step: float
    min_residual: float
    argmin: tuple[float, float, float]
    corner_min_residual: float


def _grid(step: float) -> np.ndarray:
    vals = np.arange(0.0, 1.0 + step / 2.0, step)
    vals[-1] = min(vals[-1], 1.0)
    if vals[-1] < 1.0:
        vals = np.append(vals, 1.0)
    return vals


def refute_associativity(family: int, grid_step: float = 0.05) -> RefutationReport:
    """Scan a parameter grid (corners included) for the smallest residual.

    Only families 1 and 4 are accepted; the remaining families inherit
    their status by conjugation. The family is read as
    :class:`OpFamilySpec` reads it: 4.0 is the int 4, a bool is rejected.
    Ties are broken by lexicographic parameter order, so the report is
    deterministic.

    A family tensor is affine in its parameters, so the grid's tensors
    are base + alpha*d_alpha + beta*d_beta + gamma*d_gamma, built from
    four :func:`op_family` calls; every entry holds 0, 1, t or 1 - t
    exactly as :func:`op_family` writes it. They are evaluated
    ``_REFUTE_CHUNK`` grid points at a time.
    """
    fam = family if type(family) is int else as_integer(family)
    if fam not in (1, 4):
        raise InvalidFamily(f"refutation covers families 1 and 4, got {family!r}")
    family = fam
    if not (_is_real(grid_step) and 0.0 < grid_step <= 0.1):
        raise ParameterOutOfRange(f"grid_step must be in (0, 0.1], got {_plain(grid_step)!r}")
    if 1.0 / grid_step > _REFUTE_MAX_AXIS - 1:
        raise TooLarge(
            f"grid_step {grid_step!r} gives more than {_REFUTE_MAX_AXIS} values per "
            f"axis; use a step of at least {1.0 / (_REFUTE_MAX_AXIS - 1):g}"
        )

    vals = _grid(grid_step)
    shape = (vals.size,) * 3
    base = op_family(OpFamilySpec(family, 0.0, 0.0, 0.0)).p
    slopes = [op_family(OpFamilySpec(family, *e)).p - base for e in np.eye(3)]
    res = np.empty(vals.size**3)
    for start in range(0, res.size, _REFUTE_CHUNK):
        idx = np.arange(start, min(start + _REFUTE_CHUNK, res.size))
        a, b, g = (vals[k][:, None, None, None] for k in np.unravel_index(idx, shape))
        res[idx] = _residuals(base + a * slopes[0] + b * slopes[1] + g * slopes[2])

    # argmin returns the first minimum in C order, i.e. in lexicographic order
    best = int(res.argmin())
    argbest = tuple(float(vals[k]) for k in np.unravel_index(best, shape))
    ends = [0, vals.size - 1]
    corner_min = res.reshape(shape)[np.ix_(ends, ends, ends)].min()
    return RefutationReport(
        family, float(grid_step), float(res[best]), argbest, float(corner_min)
    )
