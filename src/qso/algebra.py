"""The commutative algebra induced by a QSO and its associativity.

Every tensor of heredity coefficients defines a bilinear product on R^m,

    (x o y)_k = sum_{i,j} p[i, j, k] * x_i * y_j,

commutative because p is symmetric in (i, j) and generally nonassociative.
By multilinearity, associativity holds for all vectors iff it holds on the
m^3 basis triples, so the decision procedure here is exact up to floating
point: compare (e_i o e_j) o e_k with e_i o (e_j o e_k) for every triple.

The associator is a commutator. Write P_i = p[i] for the matrix of
multiplication by e_i: row j of P_i is e_i o e_j. :class:`QsoTensor`
keeps p exactly symmetric in (i, j), so

    ((e_i o e_j) o e_k)_u = sum_s p[i, j, s] p[k, s, u] = (P_i P_k)[j, u],
    (e_i o (e_j o e_k))_u = sum_s p[k, j, s] p[i, s, u] = (P_k P_i)[j, u],

and the algebra is associative iff its multiplication operators commute
(Woerz-Busekros, Algebras in Genetics, 1980). The residual is the largest
entry of |[P_i, P_k]| over i < k only: [P_k, P_i] = -[P_i, P_k] exactly
and [P_i, P_i] = 0. For each i the kernel forms two batched products over
the partners k > i,

    X[k, j, u] = (P_i P_k)[j, u],    Y[k, j, u] = (P_k P_i)[j, u],

both contiguous in (k, j, u), so the gap X - Y needs no transpose, and it
keeps a running maximum of |X - Y| per tensor. That is the m^5
multiply-adds of the whole left-product array L = P(m^2 x m) @ P(m x m^2),
L[i, j, k, u] = ((e_i o e_j) o e_k)_u, but half its m^4 gap entries and
at most 2 (m - 1) m^2 floats at a time. A stack of tensors (the
refutation grid) takes the same two products per i, batched over the
stack. X[k] and Y[k] are products of one shape, so an associator whose
two sides sum the same products in the same order comes out exactly 0.
Only small inputs form L, and take its gap to
L[j, k, i, u] = (e_i o (e_j o e_k))_u in one piece. BLAS may round a dot
product differently in a product of another shape, so the two paths, and
the slab loop the commutators replaced (README, "Associativity"), can
differ in the last bits of a residual.
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
#: piece, through the whole left-product array; above it a tensor or a stack
#: takes the commutator loop. In process, one BLAS thread, 2-core x86-64 VM,
#: one piece against the loop: one tensor at m = 12 (20 736 entries) 0.04-0.07
#: against 0.11-0.23 ms, at m = 13 (28 561) 0.09-0.28 against 0.13-0.27 ms,
#: at m = 15 (50 625) 0.36 against 0.17 ms; a stack of m = 3 tensors at
#: n = 300 (24 300) 0.18 against 0.23 ms, at n = 404 (32 724) 0.15-0.44
#: against 0.17-0.28 ms, at n = 1 024 (82 944) 0.80 against 0.41 ms. The
#: crossover lies between ~25 000 and ~33 000 entries and moves from run to
#: run, so the bound stays where the slab loop put it.
_WHOLE_GAP_MAX = 1 << 15


def product(V: QsoTensor, x, y) -> np.ndarray:
    """Algebra product (x o y)_k = sum_{i,j} p[i, j, k] x_i y_j.

    Accepts arbitrary vectors of R^m (not only simplex points) and returns
    a plain array; bilinear in both arguments and commutative. An operand
    that is not a vector of finite real numbers raises
    :class:`ParameterOutOfRange`, one of another length
    :class:`DimensionMismatch`.
    """
    xv, yv = _operand("x", x), _operand("y", y)
    if xv.shape != (V.m,) or yv.shape != (V.m,):
        raise DimensionMismatch(
            f"operands must be vectors of length {V.m}, got {xv.shape} and {yv.shape}"
        )
    return np.einsum("ijk,i,j->k", V.p, xv, yv)


def _operand(name: str, value) -> np.ndarray:
    """``value`` as a float array, or :class:`ParameterOutOfRange` naming the operand."""
    if np.iscomplexobj(value):  # a float cast would drop the imaginary parts
        raise ParameterOutOfRange(f"operand {name} is not a vector of real numbers: complex")
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterOutOfRange(
            f"operand {name} is not a vector of real numbers: {exc}"
        ) from None
    if not np.isfinite(v).all():
        raise ParameterOutOfRange(f"operand {name} has a non-finite entry")
    return v


def _residuals(P: np.ndarray) -> np.ndarray:
    """Associator residual of every tensor in an (n, m, m, m) stack.

    Each tensor must be exactly symmetric in its first two indices (see
    the module docstring). When the whole gap to L[j, k, i, u] fits in
    ``_WHOLE_GAP_MAX`` elements it is taken in one piece. Above that, for
    each i the stack forms the products P_i P_k and P_k P_i for all k > i,
    two (n, m - 1 - i, m, m) arrays, and keeps one maximum per tensor.
    """
    n, m = P.shape[:2]
    if n * m**4 <= _WHOLE_GAP_MAX:
        L = (P.reshape(n, m * m, m) @ P.reshape(n, m, m * m)).reshape(n, m, m, m, m)
        gap = L - L.transpose(0, 3, 1, 2, 4)
        return np.abs(gap, out=gap).reshape(n, -1).max(axis=1)
    worst = np.zeros(n)
    for i in range(m - 1):
        gap = P[:, i:i + 1] @ P[:, i + 1:]
        gap -= P[:, i + 1:] @ P[:, i:i + 1]
        np.maximum(worst, np.abs(gap, out=gap).reshape(n, -1).max(axis=1), out=worst)
    return worst


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
