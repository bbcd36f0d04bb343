"""Foundational types and predicates for quadratic stochastic operators.

A quadratic stochastic operator (QSO) on the simplex S^{m-1} is given by a
cubic array of heredity coefficients p[i, j, k] with

    p[i, j, k] >= 0,    p[i, j, k] == p[j, i, k],    sum_k p[i, j, k] == 1.

Applying the operator to a probability vector x produces the next
generation x' with x'_k = sum_{i,j} p[i, j, k] * x_i * x_j.

This module owns the two value types (:class:`SimplexPoint`,
:class:`QsoTensor`), tensor validation, operator application, and the
support-based order predicates (absolute continuity, orthogonality).

Conventions
-----------
* Arrays are indexed 0-based internally; index *sets* returned to callers
  (supports, vertex labels) and all JSON payloads are 1-based.
* ``EPS_VAL`` separates construction noise from genuine violations;
  ``EPS_SUPP`` decides support membership. Both can be overridden per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPoint,
    NegativeCoefficient,
    NotStochastic,
    NotSymmetric,
)

EPS_VAL = 1e-9
EPS_SUPP = 1e-12

# A support is a frozen set of 1-based coordinate indices.
SupportSet = frozenset

_VALIDATE_MODES = ("strict", "normalize")


def _clean_prob_vector(values, eps: float, what: str) -> np.ndarray:
    """Clamp noise-level negatives to zero and renormalize the sum to one.

    Entries in [-eps, 0) are rounded up to exactly 0 so that genuine zeros
    stay exact under iteration; anything more negative is an error.
    """
    v = np.array(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidPoint(f"{what} must be a nonempty 1-d vector")
    total = v.sum()
    # a non-finite entry makes the sum non-finite, so a finite sum needs no scan
    if not math.isfinite(total) and not np.isfinite(v).all():
        raise InvalidPoint(f"{what} contains non-finite entries")
    lo = v.min()
    if lo < -eps:
        raise InvalidPoint(f"{what} has a negative entry: min = {lo:.3e}")
    if lo < 0.0:
        v[v < 0.0] = 0.0
        total = v.sum()
    if abs(total - 1.0) > eps:
        raise InvalidPoint(f"{what} sums to {total!r}, expected 1 within {eps:g}")
    v /= total
    v.flags.writeable = False
    return v


class SimplexPoint:
    """A probability vector on m coordinates (a point of S^{m-1}).

    Construction clamps coordinates in [-eps, 0) to exactly 0 and
    renormalizes the sum, which keeps iterated trajectories inside the
    simplex under floating-point drift. Instances are immutable.
    """

    __slots__ = ("coords",)

    coords: np.ndarray

    def __init__(self, coords, *, eps: float = EPS_VAL):
        object.__setattr__(self, "coords", _clean_prob_vector(coords, eps, "simplex point"))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SimplexPoint is immutable")

    @property
    def m(self) -> int:
        return self.coords.size

    @classmethod
    def vertex(cls, m: int, label: int) -> "SimplexPoint":
        """The vertex e_label of S^{m-1}; ``label`` is 1-based."""
        if not 1 <= label <= m:
            raise DimensionMismatch(f"vertex label {label} outside 1..{m}")
        c = np.zeros(m)
        c[label - 1] = 1.0
        return cls(c)

    @classmethod
    def barycenter(cls, m: int) -> "SimplexPoint":
        return cls(np.full(m, 1.0 / m))

    def __repr__(self) -> str:
        inside = ", ".join(format(c, ".6g") for c in self.coords)
        return f"SimplexPoint([{inside}])"


@dataclass(frozen=True, eq=False, repr=False)
class QsoTensor:
    """Dense cubic array of heredity coefficients for an m-species QSO.

    The array is exactly symmetric in its first two indices; construct
    instances through :func:`validate` (or the builders elsewhere in the
    package), which establish the bound and stochasticity invariants.
    """

    m: int
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.m, self.m, self.m):
            raise DimensionMismatch(
                f"expected a {self.m}x{self.m}x{self.m} array, got {p.shape}"
            )
        if self.m < 2:
            raise DimensionMismatch("a QSO needs at least two species")
        if not np.array_equal(p, p.transpose(1, 0, 2)):
            raise NotSymmetric(
                "coefficients must satisfy p[i, j, k] == p[j, i, k] exactly; "
                "use validate() to symmetrize raw data"
            )
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def __repr__(self) -> str:
        return f"QsoTensor(m={self.m})"


def validate(p, mode: str = "strict", *, eps: float = EPS_VAL) -> QsoTensor:
    """Check (and optionally repair) a raw cubic array of coefficients.

    In ``strict`` mode the input must already satisfy the invariants within
    ``eps``; it is symmetrized exactly but otherwise untouched. In
    ``normalize`` mode the array is symmetrized via (p[i,j,k]+p[j,i,k])/2
    and every (i, j) slice is rescaled to sum to one.

    Raw entries below -eps raise :class:`NegativeCoefficient` and entries
    above 1 + eps raise :class:`NotStochastic` in both modes.
    """
    if mode not in _VALIDATE_MODES:
        raise ValueError(f"mode must be one of {_VALIDATE_MODES}, got {mode!r}")
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise DimensionMismatch(f"expected a cubic m x m x m array, got shape {arr.shape}")
    m = arr.shape[0]
    if m < 2:
        raise DimensionMismatch("a QSO needs at least two species")
    if not np.all(np.isfinite(arr)):
        raise NotStochastic("tensor contains non-finite entries")
    if arr.min() < -eps:
        raise NegativeCoefficient(
            f"coefficient below zero: min entry = {arr.min():.3e}"
        )
    if arr.max() > 1.0 + eps:
        raise NotStochastic(f"coefficient above one: max entry = {arr.max():.6g}")

    asym = np.abs(arr - arr.transpose(1, 0, 2)).max()
    if mode == "strict" and asym > eps:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {eps:g}")
    sym = (arr + arr.transpose(1, 0, 2)) / 2.0

    sums = sym.sum(axis=2)
    if mode == "strict":
        worst = np.abs(sums - 1.0).max()
        if worst > eps:
            bad = np.unravel_index(np.abs(sums - 1.0).argmax(), sums.shape)
            raise NotStochastic(
                f"slice ({bad[0] + 1}, {bad[1] + 1}) sums to {sums[bad]!r}; "
                f"off by {worst:.3e}"
            )
        sym[(sym < 0.0) & (sym >= -eps)] = 0.0
    else:
        if sums.min() <= 0.0:
            raise NotStochastic("cannot rescale a slice with non-positive sum")
        sym[(sym < 0.0) & (sym >= -eps)] = 0.0
        sym = sym / sym.sum(axis=2, keepdims=True)

    return QsoTensor(m, sym)


def apply(V: QsoTensor, x: SimplexPoint, *, eps: float = EPS_VAL) -> SimplexPoint:
    """Image of x under the operator: x'_k = sum_{i,j} p[i, j, k] x_i x_j."""
    if x.m != V.m:
        raise DimensionMismatch(f"point has {x.m} coordinates, operator expects {V.m}")
    out = np.einsum("ijk,i,j->k", V.p, x.coords, x.coords)
    return SimplexPoint(out, eps=eps)


def support(x: SimplexPoint, eps_supp: float = EPS_SUPP) -> SupportSet:
    """Indices (1-based) of the coordinates of x exceeding ``eps_supp``."""
    if eps_supp <= 0:
        raise ValueError("eps_supp must be positive")
    return frozenset(int(i) + 1 for i in np.nonzero(x.coords > eps_supp)[0])


def abs_continuous(x: SimplexPoint, y: SimplexPoint, eps_supp: float = EPS_SUPP) -> bool:
    """True iff every zero coordinate of y is a zero coordinate of x.

    Equivalently, the support of x is contained in the support of y.
    """
    if x.m != y.m:
        raise DimensionMismatch(f"dimension mismatch: {x.m} vs {y.m}")
    return support(x, eps_supp) <= support(y, eps_supp)


def orthogonal(x: SimplexPoint, y: SimplexPoint, eps_supp: float = EPS_SUPP) -> bool:
    """True iff x and y have disjoint supports.

    For simplex points this coincides with a vanishing dot product.
    """
    if x.m != y.m:
        raise DimensionMismatch(f"dimension mismatch: {x.m} vs {y.m}")
    return not (support(x, eps_supp) & support(y, eps_supp))
