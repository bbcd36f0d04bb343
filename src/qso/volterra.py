"""Volterra operators: detection, canonical form, and the finite certificate.

A QSO is Volterra when offspring always repeat a parental type:
p[i, j, k] == 0 whenever k is neither i nor j. Every such operator can be
written coordinate-wise as

    V(x)_k = x_k * (1 + sum_i a[k, i] * x_i)

with a skew-symmetric matrix a whose entries lie in [-1, 1]. The map
between the two representations is a[k, i] = 2 * p[k, i, k] - 1.

Being Volterra is equivalent to V(x) being absolutely continuous with
respect to x for every simplex point x, and that equivalence can be
decided on a finite set of probe points: the m vertices plus the
C(m, 2) edge midpoints (:func:`volterra_certificate`). Their images have
closed forms, V(e_k) = p[k, k, :] and

    V((e_i + e_j) / 2) = (p[i, i, :] + 2 p[i, j, :] + p[j, j, :]) / 4,

so all m + C(m, 2) images are one (m, m, m) array whose i = j diagonal is
the vertex image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable

import numpy as np

from .core import (
    EPS_SUPP,
    EPS_VAL,
    QsoTensor,
    SimplexPoint,
    _integer,
    abs_continuous,
    apply,
    check_tol,
)
from .errors import DimensionMismatch, InvalidSkew, NotVolterra, ParameterOutOfRange


@lru_cache(maxsize=8)
def _forbidden_mask(m: int) -> np.ndarray:
    """Read-only mask of the (i, j, k) triples with k not in {i, j}."""
    i, j, k = np.ogrid[:m, :m, :m]
    mask = (k != i) & (k != j)
    mask.flags.writeable = False
    return mask


def _forbidden_max(p: np.ndarray) -> float:
    """Largest entry p[i, j, k] of a cubic array with k not in {i, j} (0 if none).

    The one forbidden-entry test behind ``is_volterra``, ``to_canonical``
    and ``kernel_is_volterra``. A masked reduction, not a gather: the mask
    selects all but O(m^2) of the m^3 entries, so a gather would copy nearly
    all of p.
    """
    return p.max(where=_forbidden_mask(p.shape[0]), initial=0.0)


@dataclass(frozen=True, eq=False, repr=False)
class SkewMatrix:
    """Canonical Volterra parameters: skew-symmetric, entries in [-1, 1].

    Construction averages the two skew halves, zeroes the diagonal, and
    clamps to [-1, 1], so stored matrices are exactly skew-symmetric;
    deviations beyond the tolerance raise :class:`InvalidSkew`.
    """

    m: int
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _integer("skew matrix size", self.m, DimensionMismatch))
        a = np.asarray(self.a, dtype=float)
        if a.shape != (self.m, self.m):
            raise DimensionMismatch(f"expected a {self.m}x{self.m} matrix, got {a.shape}")
        if self.m < 1:
            raise DimensionMismatch("a skew matrix needs at least one species")
        if not np.all(np.isfinite(a)):
            raise InvalidSkew("matrix contains non-finite entries")
        dev = np.abs(a + a.T).max() / 2.0
        if dev > EPS_VAL:
            raise InvalidSkew(f"skew-symmetry violated by {dev:.3e}")
        if np.abs(a).max() > 1.0 + EPS_VAL:
            raise InvalidSkew(f"entry magnitude {np.abs(a).max():.6g} exceeds 1")
        a = np.clip((a - a.T) / 2.0, -1.0, 1.0)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    def __repr__(self) -> str:
        return f"SkewMatrix(m={self.m})"


def is_volterra(V: QsoTensor, eps: float = EPS_VAL) -> bool:
    """True iff every coefficient with k outside {i, j} is at most ``eps`` (>= 0)."""
    check_tol("eps", eps)
    return bool(_forbidden_max(V.p) <= eps)


def to_canonical(V: QsoTensor, eps: float = EPS_VAL) -> SkewMatrix:
    """Skew-symmetric parameters of a Volterra operator.

    Near-Volterra tensors (forbidden entries at most ``eps``) are accepted:
    the result is the skew part of 2 p[k, i, k] - 1, which drops the up to
    (m - 2) eps that forbidden mass adds to a[k, i] + a[i, k]. Raises
    :class:`NotVolterra` otherwise; NaN or a negative ``eps`` raises
    :class:`ParameterOutOfRange`.
    """
    check_tol("eps", eps)
    worst = _forbidden_max(V.p)
    if not worst <= eps:
        raise NotVolterra(f"forbidden mass {worst:.3e} exceeds {eps:g}")
    a = 2.0 * np.einsum("kik->ki", V.p) - 1.0
    return SkewMatrix(V.m, (a - a.T) / 2.0)  # its diagonal is exactly 0 for finite p


def from_canonical(a: SkewMatrix) -> QsoTensor:
    """Volterra tensor with image coordinates x_k * (1 + sum_i a[k, i] x_i).

    Sets p[k, k, k] = 1 and, for i != k, p[k, i, k] = (1 + a[k, i]) / 2
    together with its symmetric counterpart; every other entry is zero.
    """
    m = a.m
    if m < 2:  # a 1 x 1 skew matrix is valid, a one-species QSO is not
        raise DimensionMismatch("a QSO needs at least two species")
    p = np.zeros((m, m, m))
    half = (1.0 + a.a) / 2.0
    np.fill_diagonal(half, 1.0)  # p[k, k, k] = 1, written by both lines below
    d = np.arange(m)
    p[d, :, d] = half  # p[k, i, k] = half[k, i]
    p[:, d, d] = half.T  # p[i, k, k] = half[k, i]
    return QsoTensor._trusted(m, p)  # both halves written


def certificate_points(m: int) -> list[SimplexPoint]:
    """The finite probe set: all vertices, then all edge midpoints."""
    pts = [SimplexPoint.vertex(m, k) for k in range(1, m + 1)]
    for i in range(m):
        for j in range(i + 1, m):
            c = np.zeros(m)
            c[i] = c[j] = 0.5
            pts.append(SimplexPoint(c))
    return pts


def check_abs_continuity_property(
    V: QsoTensor,
    samples: Iterable[SimplexPoint],
    eps_supp: float = EPS_SUPP,
) -> bool:
    """True iff V(x) is absolutely continuous w.r.t. x for every sample.

    ``samples`` is read once, lazily, and only up to the first failure.
    """
    samples = iter(samples)
    try:
        first = next(samples)
    except StopIteration:
        raise ParameterOutOfRange("samples must be nonempty") from None
    return all(abs_continuous(apply(V, x), x, eps_supp) for x in chain([first], samples))


def volterra_certificate(V: QsoTensor, eps: float = EPS_VAL) -> bool:
    """Decide the Volterra property from finitely many probe points.

    Checks V(x) absolutely continuous w.r.t. x at the vertices (which pin
    the diagonal slices) and at the edge midpoints (which expose any
    remaining forbidden mass, scaled by 1/2, the largest possible factor).
    Supports are taken at ``eps`` so the verdict matches
    :func:`is_volterra`; forbidden entries within a factor of two of
    ``eps`` can straddle the midpoint test.

    No operator is applied: image[i, j] = (p[i, i] + p[j, j] + 2 p[i, j]) / 4
    is V((e_i + e_j) / 2), and its diagonal image[k, k] = p[k, k] = V(e_k)
    exactly. Each image is divided by its own sum, as :class:`SimplexPoint`
    does, and compared against the probe point's support; this is
    :func:`check_abs_continuity_property` on :func:`certificate_points`.
    Raises :class:`ParameterOutOfRange` unless ``eps`` is positive (NaN too).
    """
    check_tol("eps", eps, positive=True)
    vertex_images = np.einsum("kkj->kj", V.p)
    images = (vertex_images[:, None, :] + vertex_images[None, :, :] + 2.0 * V.p) / 4.0
    images /= images.sum(axis=2, keepdims=True)
    eye = np.eye(V.m)
    probes = (eye[:, None, :] + eye[None, :, :]) / 2.0  # probes[i, j] = (e_i + e_j) / 2
    return bool(images[probes <= eps].max(initial=0.0) <= eps)
