"""Volterra operators: detection, canonical form, and the finite certificate.

A QSO is Volterra when offspring always repeat a parental type:
p[i, j, k] == 0 whenever k is neither i nor j. Every such operator can be
written coordinate-wise as

    V(x)_k = x_k * (1 + sum_i a[k, i] * x_i)

with a skew-symmetric matrix a whose entries lie in [-1, 1]. The map
between the two representations is a[k, i] = 2 * p[k, i, k] - 1.

Being Volterra is equivalent to V(x) being absolutely continuous with
respect to x for every simplex point x, and that is decided on a finite
set of probe points: the m vertices plus the C(m, 2) edge midpoints
(:func:`volterra_certificate`). By the support map of :mod:`qso.core`,
the image of the probe (e_i + e_j) / 2 reaches a k outside {i, j} exactly
when p[i, i, k], p[i, j, k] or p[j, j, k] is in the support. Over all
probes these are the forbidden entries, so the certificate is the
forbidden-entry test of :func:`is_volterra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    EPS_SUPP,
    EPS_VAL,
    QsoTensor,
    SimplexPoint,
    _forbidden_max,
    _integer,
    abs_continuous,
    apply,
    check_tol,
)
from .errors import (
    DimensionMismatch,
    InvalidSkew,
    NotVolterra,
    ParameterOutOfRange,
)


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
        top = np.abs(a).max()
        # halved before the sum, so that entries of ~1e308 cannot sum to inf;
        # halving a normal float is exact
        dev = np.abs(a / 2.0 + a.T / 2.0).max()
        if dev > EPS_VAL:
            raise InvalidSkew(f"skew-symmetry violated by {dev:.3e}")
        if top > 1.0 + EPS_VAL:
            raise InvalidSkew(f"entry magnitude {top:.6g} exceeds 1")
        a = np.clip((a - a.T) / 2.0, -1.0, 1.0)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    def __repr__(self) -> str:
        return f"SkewMatrix(m={self.m})"


def is_volterra(V: QsoTensor, eps: float = EPS_VAL) -> bool:
    """True iff every coefficient with k outside {i, j} is at most ``eps`` (>= 0)."""
    eps = check_tol("eps", eps)
    return bool(_forbidden_max(V.p) <= eps)


def to_canonical(V: QsoTensor, eps: float = EPS_VAL) -> SkewMatrix:
    """Skew-symmetric parameters of a Volterra operator.

    Near-Volterra tensors (forbidden entries at most ``eps``) are accepted:
    the result is the skew part of 2 p[k, i, k] - 1, which drops the up to
    (m - 2) eps that forbidden mass adds to a[k, i] + a[i, k]. Raises
    :class:`NotVolterra` otherwise; NaN or a negative ``eps`` raises
    :class:`ParameterOutOfRange`.
    """
    eps = check_tol("eps", eps)
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

    The samples are checked in order, up to the first failure.
    """
    samples = list(samples)
    if not samples:
        raise ParameterOutOfRange("samples must be nonempty")
    return all(abs_continuous(apply(V, x), x, eps_supp) for x in samples)


def volterra_certificate(V: QsoTensor, eps: float = EPS_VAL) -> bool:
    """Decide the Volterra property from finitely many probe points.

    V(x) must be absolutely continuous w.r.t. x at every point of
    :func:`certificate_points`, with the image supports read from the
    coefficients at ``eps`` (module docstring): the probe (e_i + e_j) / 2
    leaves its support iff an entry p[a, b, k] with a, b in {i, j} and k
    outside is above ``eps``. Over all probes these are the forbidden
    entries, so the verdict is that of :func:`is_volterra` at every
    ``eps``, and no image is formed. Raises :class:`ParameterOutOfRange`
    unless ``eps`` is positive (NaN too).
    """
    eps = check_tol("eps", eps, positive=True)
    return bool(_forbidden_max(V.p) <= eps)
