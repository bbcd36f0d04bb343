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

Orthogonality preservation is decided exactly. Coefficients are
nonnegative, so supp V(x) is the union of supp p[i, j, :] over i, j in
supp x. Hence V preserves orthogonality iff supp p[i, j, :] and
supp p[k, l, :] are disjoint whenever {i, j} and {k, l} are (necessary
because (e_i + e_j)/2 and (e_k + e_l)/2 are orthogonal points).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import EPS_SUPP, EPS_VAL, QsoTensor, as_integer, check_tol, check_unit
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

#: Index of the diagonal slots (k, k), and the vertices e_1, e_2, e_3 as rows.
_DIAG = np.arange(3)
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

#: The edges (i, j), 0-based, whose slices carry alpha, beta and gamma.
_EDGES = ((0, 1), (1, 2), (0, 2))


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

    @property
    def params(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


def _require_s2(V: QsoTensor) -> None:
    if V.m != 3:
        raise DimensionUnsupported(f"classification is defined for m = 3, got m = {V.m}")


def _family_array(spec: OpFamilySpec) -> np.ndarray:
    """The coefficient array of :func:`op_family`, written entry by entry,
    both halves of each slice; ``classify_op`` compares against it."""
    sigma = [s - 1 for s in FAMILY_VERTEX_IMAGES[spec.family]]
    p = np.zeros((3, 3, 3))
    for k in range(3):
        p[k, k, sigma[k]] = 1.0
    for (i, j), t in zip(_EDGES, spec.params):
        lo, hi = (sigma[i], sigma[j]) if sigma[i] < sigma[j] else (sigma[j], sigma[i])
        p[i, j, lo] = p[j, i, lo] = t
        p[i, j, hi] = p[j, i, hi] = 1.0 - t
    return p


def op_family(spec: OpFamilySpec) -> QsoTensor:
    """Build the m = 3 tensor of the named family member.

    Writes 1 at p[k, k, sigma(k)] and each parameter t into its edge slice
    (i, j) at output min(sigma(i), sigma(j)), with 1 - t at the other
    output, one entry at a time.
    """
    return QsoTensor._trusted(3, _family_array(spec))


#: The six pairs of disjoint slots {i, j}, {k, l} of S^2 (the three vertex
#: pairs, each edge against its opposite vertex) as two index arrays of shape
#: (2, 6): _S2_ROWS[side, n] and _S2_COLS[side, n] give i, j (side 0) or
#: k, l (side 1) of pair n.
_S2_SLOTS = [(i, j) for i in range(3) for j in range(i, 3)]
_S2_ROWS, _S2_COLS = np.array(
    [(a, b) for a, b in itertools.combinations(_S2_SLOTS, 2) if not set(a) & set(b)]
).transpose(2, 1, 0)


def is_orthogonality_preserving(V: QsoTensor, *, eps_supp: float = EPS_SUPP) -> bool:
    """Exact test of orthogonality preservation on S^2.

    Compares the supports (entries above ``eps_supp``) of the slices
    p[i, j, :] and p[k, l, :] for every pair of disjoint index sets
    {i, j} and {k, l}; the module docstring shows this is equivalent to
    the definition. On S^2 these are six slice pairs: the three vertex
    pairs and each edge against its opposite vertex. They are gathered
    at once through the precomputed ``_S2_ROWS``/``_S2_COLS``, and one
    ``any`` over the entrywise support overlap decides. ``eps_supp``
    must be positive; NaN raises :class:`ParameterOutOfRange` too.
    """
    _require_s2(V)
    check_tol("eps_supp", eps_supp, positive=True)
    supp = V.p[_S2_ROWS, _S2_COLS] > eps_supp  # supp[side, n, :]
    return not (supp[0] & supp[1]).any()


def classify_op(
    V: QsoTensor,
    *,
    eps: float = EPS_VAL,
    vertex_tol: float = 1e-6,
) -> OpFamilySpec:
    """Recover (family, alpha, beta, gamma) from an OP tensor.

    Matches each vertex image p[k, k, :] = V(e_k) to its nearest vertex
    (anything farther than ``vertex_tol`` from every vertex raises
    :class:`VertexImageNotVertex`, for the first such k), looks the
    permutation sigma up in ``FAMILY_VERTEX_IMAGES`` and reads each
    parameter straight from its entry p[i, j, min(sigma[i], sigma[j])], so
    a family member is recovered exactly. The family array rebuilt from the
    recovered spec must reproduce the input entrywise within ``eps``;
    otherwise the input lies outside the six families and
    :class:`NotOrthogonalityPreserving` is raised.

    One pass: the three vertex images are one gather, matched by one
    ``argmax`` and one distance row; no intermediate tensor is built.
    ``eps`` and ``vertex_tol`` must be nonnegative (0 asks for exact
    matches); NaN or a negative value raises :class:`ParameterOutOfRange`.
    """
    _require_s2(V)
    check_tol("eps", eps)
    check_tol("vertex_tol", vertex_tol)

    p = V.p
    rows = p[_DIAG, _DIAG]  # rows[k] = p[k, k, :] = V(e_k)
    nearest = rows.argmax(axis=1)
    far = np.flatnonzero(np.abs(rows - _EYE3[nearest]).max(axis=1) > vertex_tol)
    if far.size:
        k = int(far[0])
        raise VertexImageNotVertex(
            f"image of vertex {k + 1} is {np.round(rows[k], 6).tolist()}, "
            f"not within {vertex_tol:g} of any vertex"
        )
    sigma = nearest.tolist()
    images = tuple(s + 1 for s in sigma)
    if len(set(images)) != 3:
        raise NotOrthogonalityPreserving(
            f"vertex images {images} are not mutually orthogonal"
        )
    values = [float(p[i, j, min(sigma[i], sigma[j])]) for i, j in _EDGES]
    if any(not -eps <= v <= 1.0 + eps for v in values):
        raise NotOrthogonalityPreserving(
            f"recovered parameters {values} fall outside [0, 1]"
        )
    family = _VERTEX_IMAGES_TO_FAMILY[images]
    spec = OpFamilySpec(family, *(min(max(v, 0.0), 1.0) for v in values))

    residual = np.abs(_family_array(spec) - p).max()
    if residual > eps:
        raise NotOrthogonalityPreserving(
            f"reconstruction residual {residual:.3e} exceeds {eps:g}; "
            f"the tensor is outside the six families"
        )
    return spec
