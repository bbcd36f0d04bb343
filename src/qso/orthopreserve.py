"""Orthogonality-preserving (OP) operators on the 2-simplex.

An operator V preserves orthogonality when V(x) and V(y) have disjoint
supports whenever x and y do. On S^2 every OP quadratic stochastic
operator belongs to one of six three-parameter families. Their image
coordinates (x, y, z are the input coordinates) are:

    family 1:  x' = z^2 + 2g xz + 2b yz
               y' = y^2 + 2a xy + 2(1-b) yz
               z' = x^2 + 2(1-a) xy + 2(1-g) xz

    family 2:  x' = x^2 + 2a xy + 2g xz
               y' = y^2 + 2(1-a) xy + 2b yz
               z' = z^2 + 2(1-g) xz + 2(1-b) yz

    family 3:  x' = x^2 + 2a xy + 2g xz
               y' = z^2 + 2(1-g) xz + 2b yz
               z' = y^2 + 2(1-a) xy + 2(1-b) yz

    family 4:  x' = y^2 + 2a xy + 2b yz
               y' = z^2 + 2g xz + 2(1-b) yz
               z' = x^2 + 2(1-a) xy + 2(1-g) xz

    family 5:  x' = y^2 + 2a xy + 2b yz
               y' = x^2 + 2(1-a) xy + 2g xz
               z' = z^2 + 2(1-g) xz + 2(1-b) yz

    family 6:  x' = z^2 + 2g xz + 2b yz
               y' = x^2 + 2a xy + 2(1-g) xz
               z' = y^2 + 2(1-a) xy + 2(1-b) yz

with a, b, g (alpha, beta, gamma) in [0, 1].

Each family is a vertex permutation sigma (``FAMILY_VERTEX_IMAGES``; the
six are exactly S_3) applied to the outputs of a Volterra tensor:
p[k, k, sigma(k)] = 1, and the edge slice (i, j) carries alpha, beta and
gamma for the edges (1, 2), (2, 3) and (1, 3). One rule places every
parameter t, so sigma alone fixes the family: p[i, j, min(sigma(i),
sigma(j))] = t and p[i, j, max(sigma(i), sigma(j))] = 1 - t. The family is
read off the diagonal slices p[k, k, :] = V(e_k), and the parameters are
then plain entries.

Both directions read one table, built at import from
``FAMILY_VERTEX_IMAGES`` by that rule: per family, a code for each of the
27 entries p[i, j, k] saying whether it holds 0, 1, t or 1 - t, and for
which parameter t. ``op_family`` writes its array from the codes, and
``classify_op`` reads the tensor once as 27 floats, matches the vertex
images (an exact family diagonal is looked up whole), reads the
parameters at their slots and compares every entry with the value
its code gives.

Orthogonality preservation is decided exactly. Every QsoTensor holds
coefficients >= 0, so supp V(x) is the union of supp p[i, j, :] over i,
j in supp x. Hence V preserves orthogonality iff supp p[i, j, :] and
supp p[k, l, :] are disjoint whenever {i, j} and {k, l} are (necessary
because (e_i + e_j)/2 and (e_k + e_l)/2 are orthogonal points). On S^2
one of two disjoint index sets is a vertex {k}, so no slot (i, j) may share
an output with V(e_k) = p[k, k, :], k outside {i, j}: the forbidden mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, sub

import numpy as np

from .core import EPS_SUPP, EPS_VAL, QsoTensor, _probe_mask, as_integer, check_tol, check_unit
from .errors import (
    DimensionUnsupported,
    InvalidFamily,
    NotOrthogonalityPreserving,
    VertexImageNotVertex,
)

#: Vertex image permutation per family: entry f gives (image of e_1, e_2, e_3),
#: 1-based. The six tuples exhaust S_3, so the lookup is unambiguous.
FAMILY_VERTEX_IMAGES: dict[int, tuple[int, int, int]] = {
    1: (3, 2, 1),
    2: (1, 2, 3),
    3: (1, 3, 2),
    4: (3, 1, 2),
    5: (2, 1, 3),
    6: (2, 3, 1),
}

_VERTEX_IMAGES_TO_FAMILY = {v: f for f, v in FAMILY_VERTEX_IMAGES.items()}

#: The edges (i, j), 0-based, whose slices carry alpha, beta and gamma.
_EDGES = ((0, 1), (1, 2), (0, 2))

#: Reads the diagonal slices p[k, k, :] = V(e_k), k = 0, 1, 2, from the 27
#: floats q[9 i + 3 j + k] = p[i, j, k] as one tuple of 9.
_read_diagonal = itemgetter(0, 1, 2, 12, 13, 14, 24, 25, 26)

#: Entry codes: the entry of code c is ``_fills(a, b, g)[c]``, that is 0, 1,
#: the parameter t of edge e (code _T + e) or 1 - t (code _ONE_MINUS_T + e).
_ONE, _T, _ONE_MINUS_T = 1, 2, 5


def _fills(a: float, b: float, g: float) -> tuple[float, ...]:
    return (0.0, 1.0, a, b, g, 1.0 - a, 1.0 - b, 1.0 - g)


def _slot_row(images: tuple[int, int, int]) -> tuple[itemgetter, itemgetter]:
    """The slot table row of the family with vertex images ``images``.

    Two getters: one that maps ``_fills(a, b, g)`` to the 27 entries
    p[i, j, k] in flat order (index 9 i + 3 j + k), and one that reads
    (alpha, beta, gamma) from the 27 floats at their slots. The codes: 1
    at p[k, k, sigma(k)]; on edge (i, j) t at output min(sigma(i),
    sigma(j)) and 1 - t at the other, in both halves of the slice; 0
    elsewhere.
    """
    sigma = [s - 1 for s in images]
    codes = [0] * 27
    for k in range(3):
        codes[12 * k + sigma[k]] = _ONE
    for e, (i, j) in enumerate(_EDGES):
        lo, hi = sorted((sigma[i], sigma[j]))
        for n in (9 * i + 3 * j, 9 * j + 3 * i):
            codes[n + lo] = _T + e
            codes[n + hi] = _ONE_MINUS_T + e
    return itemgetter(*codes), itemgetter(*(codes.index(_T + e) for e in range(3)))


#: Per family, its row of the slot table (:func:`_slot_row`).
_SLOTS = {f: _slot_row(images) for f, images in FAMILY_VERTEX_IMAGES.items()}

#: The vertices e_1, e_2, e_3 as rows of floats.
_VERTICES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

#: Per family, its exact vertex images as ``_read_diagonal`` reads them, 9
#: floats (-0.0 matches 0.0). Six 9-tuples: a fixed table, not a cache.
_DIAGONAL_TO_FAMILY = {
    sum((_VERTICES[s - 1] for s in images), ()): f
    for f, images in FAMILY_VERTEX_IMAGES.items()
}


@dataclass(frozen=True)
class OpFamilySpec:
    """Names one OP operator: a family index 1..6 and parameters in [0, 1]."""

    family: int
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        family = self.family
        if type(family) is not int:
            object.__setattr__(self, "family", as_integer(family))
        if self.family not in FAMILY_VERTEX_IMAGES:
            raise InvalidFamily(f"family must be an integer in 1..6, got {family!r}")
        for name in ("alpha", "beta", "gamma"):
            v = check_unit(name, getattr(self, name))
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))

    @classmethod
    def _trusted(cls, family: int, alpha: float, beta: float, gamma: float) -> "OpFamilySpec":
        """A spec from an int family in 1..6 and floats in [0, 1], unchecked.

        The twin of :meth:`QsoTensor._trusted`, for ``classify_op``: its family
        comes from a table lookup and its parameters are clamped into [0, 1],
        so the checked constructor could not fail. Anything else goes through
        the constructor.
        """
        spec = object.__new__(cls)
        vars(spec).update(family=family, alpha=alpha, beta=beta, gamma=gamma)
        return spec

    @property
    def params(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


def _require_s2(V: QsoTensor) -> None:
    if V.m != 3:
        raise DimensionUnsupported(f"classification is defined for m = 3, got m = {V.m}")


def op_family(spec: OpFamilySpec) -> QsoTensor:
    """Build the m = 3 tensor of the named family member.

    Each entry is the 0, 1, t or 1 - t its code in the family's slot table
    names: 1 at p[k, k, sigma(k)] and each parameter t in its edge slice
    (i, j) at output min(sigma(i), sigma(j)), with 1 - t at the other output.
    """
    entries, _ = _SLOTS[spec.family]
    p = np.empty((3, 3, 3))
    p.flat = entries(_fills(*spec.params))
    return QsoTensor._trusted(3, p)


def is_orthogonality_preserving(V: QsoTensor, *, eps_supp: float = EPS_SUPP) -> bool:
    """Exact test of orthogonality preservation on S^2.

    No slot p[i, j, :] may share a support entry (one above ``eps_supp``)
    with V(e_k) = p[k, k, :] for a vertex k outside {i, j}: the module's
    slice-pair rule, exact on S^2 since of two disjoint index sets one is a
    vertex. The forbidden mask, ``core._probe_mask(3, 0.0)``, times the
    vertex supports gives what each slot must not reach. ``eps_supp`` must
    be positive; NaN raises :class:`ParameterOutOfRange` too.
    """
    _require_s2(V)
    eps_supp = check_tol("eps_supp", eps_supp, positive=True)
    supp = V.p > eps_supp
    # reached[i, j] = union of supp[k, k, :] (row k of diagonal().T) over k not in {i, j}
    reached = _probe_mask(3, 0.0) @ supp.diagonal().T
    return not (supp & reached).any()


def _vertex_family(V: QsoTensor, q: list[float], vertex_tol: float) -> int:
    """The family whose vertex images the diagonal slices of ``q`` lie within ``vertex_tol`` of.

    Matches each p[k, k, :] to the vertex at its first maximum, as argmax
    picks it; raises for the first k farther than ``vertex_tol`` from it,
    or when the images are not a permutation.
    """
    images = []
    for k in range(3):
        row = q[12 * k:12 * k + 3]  # p[k, k, :] = V(e_k)
        nearest = row.index(max(row))
        if max(map(abs, map(sub, row, _VERTICES[nearest]))) > vertex_tol:
            raise VertexImageNotVertex(
                f"image of vertex {k + 1} is {np.round(V.p[k, k], 6).tolist()}, "
                f"not within {vertex_tol:g} of any vertex"
            )
        images.append(nearest + 1)
    images = tuple(images)
    if len(set(images)) != 3:
        raise NotOrthogonalityPreserving(
            f"vertex images {images} are not mutually orthogonal"
        )
    return _VERTEX_IMAGES_TO_FAMILY[images]


def classify_op(
    V: QsoTensor,
    *,
    eps: float = EPS_VAL,
    vertex_tol: float = 1e-6,
) -> OpFamilySpec:
    """Recover (family, alpha, beta, gamma) from an OP tensor.

    Matches each vertex image p[k, k, :] = V(e_k) to the vertex at its
    first maximum (one farther than ``vertex_tol`` from it raises
    :class:`VertexImageNotVertex`, for the first such k), looks the
    permutation sigma up in ``FAMILY_VERTEX_IMAGES`` and reads each
    parameter straight from its slot p[i, j, min(sigma[i], sigma[j])], so
    a family member is recovered exactly. Every entry must then lie within
    ``eps`` of the 0, 1, t or 1 - t that the family's slot table (the one
    :func:`op_family` writes from) puts there; otherwise the input lies
    outside the six families and :class:`NotOrthogonalityPreserving` is
    raised.

    One pass over the 27 entries read once as Python floats. When the nine
    diagonal entries are exactly the vertex images of a family (every
    family member), ``_DIAGONAL_TO_FAMILY`` names it at once: those rows
    are at distance 0 from their vertices, so the match could name no
    other. Any other diagonal, a near-vertex or an error, takes the
    vertex match. The residual is taken over all 27 entries either way.
    Numpy only words the vertex error. ``eps`` and ``vertex_tol`` must be
    nonnegative (0 asks for exact matches); NaN or a negative value
    raises :class:`ParameterOutOfRange`.
    """
    _require_s2(V)
    eps = check_tol("eps", eps)
    vertex_tol = check_tol("vertex_tol", vertex_tol)

    q = V.p.ravel().tolist()  # q[9 i + 3 j + k] = p[i, j, k]
    family = _DIAGONAL_TO_FAMILY.get(_read_diagonal(q))
    if family is None:
        family = _vertex_family(V, q, vertex_tol)
    entries, params = _SLOTS[family]
    a, b, g = params(q)
    if not (-eps <= a <= 1.0 + eps and -eps <= b <= 1.0 + eps and -eps <= g <= 1.0 + eps):
        raise NotOrthogonalityPreserving(
            f"recovered parameters {[a, b, g]} fall outside [0, 1]"
        )
    # min(max(t, 0.0), 1.0) for each t; like max, it keeps a -0.0
    a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
    b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
    g = 0.0 if g < 0.0 else 1.0 if g > 1.0 else g

    residual = max(map(abs, map(sub, entries(_fills(a, b, g)), q)))
    if residual > eps:
        raise NotOrthogonalityPreserving(
            f"reconstruction residual {residual:.3e} exceeds {eps:g}; "
            f"the tensor is outside the six families"
        )
    return OpFamilySpec._trusted(family, a, b, g)
