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
    ParameterOutOfRange,
)

EPS_VAL = 1e-9
EPS_SUPP = 1e-12

_VALIDATE_MODES = ("strict", "normalize")


def as_integer(value) -> int | None:
    """``value`` as an int if it is integral and not a bool, else None.

    Unlike ``int()`` it never truncates: 3.0 gives 3; 2.7, True and "3" give None.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if isinstance(value, (bool, np.bool_)) or n != value:
        return None
    return n


def _plain(value):
    """``value`` with a numpy scalar read out as its Python twin, for messages."""
    return value.item() if isinstance(value, np.generic) else value


def _integer(
    name: str, value, error: type[Exception] = ParameterOutOfRange, low: int | None = None
) -> int:
    """``value`` as an int by :func:`as_integer`, at least ``low`` if given, else ``error``.

    The one guard for integer arguments and size fields: 2.0 gives 2, while
    2.5, True, NaN or "3" raise instead of failing later in a numpy call.
    """
    n = value if type(value) is int else as_integer(value)
    if n is None:
        raise error(f"{name} must be an integer, got {_plain(value)!r}")
    if low is not None and n < low:
        raise error(f"{name} must be at least {low}, got {n}")
    return n


def check_tol(name: str, value, *, positive: bool = False) -> None:
    """Raise :class:`ParameterOutOfRange` unless ``value`` is a usable tolerance.

    The one guard for every tolerance parameter: ``value`` must be >= 0, or
    > 0 with ``positive``. NaN fails both comparisons, so it raises too
    instead of turning every later ``<=`` or ``>`` test into a silent verdict.
    """
    if positive:
        if not value > 0:
            raise ParameterOutOfRange(f"{name} must be positive, got {_plain(value)!r}")
    elif not value >= 0:
        raise ParameterOutOfRange(f"{name} must be nonnegative, got {_plain(value)!r}")


def check_unit(name: str, value) -> float:
    """``value`` as a float in [0, 1] within ``EPS_VAL``, unclamped.

    The one guard for the OP family parameters. NaN, text such as "0.5" or
    b"0.5" and bools (which ``float()`` would read; :func:`_integer`
    likewise refuses "3" and True) and anything ``float()`` cannot read
    raise :class:`ParameterOutOfRange` like any value outside the interval.
    """
    try:
        if isinstance(value, (str, bytes, bytearray, bool, np.bool_)):
            raise TypeError
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterOutOfRange(f"{name} = {_plain(value)!r} outside [0, 1]") from None
    if not -EPS_VAL <= v <= 1.0 + EPS_VAL:
        raise ParameterOutOfRange(f"{name} = {v!r} outside [0, 1]")
    return v


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
        raise InvalidPoint(f"{what} sums to {float(total)!r}, expected 1 within {eps:g}")
    v /= total
    return v


class SimplexPoint:
    """A probability vector on m coordinates (a point of S^{m-1}).

    Construction clamps coordinates in [-eps, 0) to exactly 0 and
    renormalizes the sum, which keeps iterated trajectories inside the
    simplex under floating-point drift. Instances are immutable. Error
    messages name the point by the class's ``_label`` and the repr by the
    class name, so a subclass only renames.
    """

    __slots__ = ("coords",)

    coords: np.ndarray
    _label = "simplex point"

    def __init__(self, coords, *, eps: float = EPS_VAL):
        check_tol("eps", eps)
        coords = _clean_prob_vector(coords, eps, self._label)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _trusted(cls, coords: np.ndarray) -> "SimplexPoint":
        """Wrap a float vector the caller has already cleaned, without re-checking it.

        The caller gives up ``coords``: it is made read-only, not copied.
        """
        coords.flags.writeable = False
        pt = object.__new__(cls)
        object.__setattr__(pt, "coords", coords)
        return pt

    @classmethod
    def _trusted_rows(cls, rows: np.ndarray) -> list["SimplexPoint"]:
        """:meth:`_trusted` of each row of a 2-d float array, in one pass.

        The caller gives up ``rows``: it is made read-only once, and each
        point holds a view of its row.
        """
        rows.flags.writeable = False
        new, put = object.__new__, cls.coords.__set__  # the slot, past __setattr__
        points = []
        for row in rows:
            pt = new(cls)
            put(pt, row)
            points.append(pt)
        return points

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def m(self) -> int:
        return self.coords.size

    @classmethod
    def vertex(cls, m: int, label: int) -> "SimplexPoint":
        """The vertex e_label of S^{m-1}; ``label`` is 1-based and integral."""
        m = _integer(f"{cls._label} size", m, DimensionMismatch, low=1)
        k = _integer("vertex label", label, DimensionMismatch)
        if not 1 <= k <= m:
            raise DimensionMismatch(f"vertex label {label} outside 1..{m}")
        c = np.zeros(m)
        c[k - 1] = 1.0
        return cls(c)

    @classmethod
    def barycenter(cls, m: int) -> "SimplexPoint":
        """The barycenter (1/m, ..., 1/m) of S^{m-1}; ``m`` is integral and >= 1."""
        m = _integer(f"{cls._label} size", m, DimensionMismatch, low=1)
        return cls(np.full(m, 1.0 / m))

    def __repr__(self) -> str:
        inside = ", ".join(format(c, ".6g") for c in self.coords)
        return f"{type(self).__name__}([{inside}])"


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
        object.__setattr__(self, "m", _integer("operator size", self.m, DimensionMismatch))
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

    @classmethod
    def _trusted(cls, m: int, p: np.ndarray) -> "QsoTensor":
        """Wrap an m x m x m float array, m >= 2, exactly symmetric in (i, j), unchecked.

        The twin of :meth:`SimplexPoint._trusted`, for builders whose array
        is symmetric by construction (the same value written to both
        halves, the same permutation applied to i and j, or a symmetrized
        array rescaled by its slice sums). The caller gives up ``p``: it is
        made read-only, not checked and not copied. Anything else goes
        through the public constructor, which checks shape and symmetry.
        """
        p.flags.writeable = False
        V = object.__new__(cls)
        object.__setattr__(V, "m", m)
        object.__setattr__(V, "p", p)
        return V

    def __repr__(self) -> str:
        return f"QsoTensor(m={self.m})"


def validate(p, mode: str = "strict", *, eps: float = EPS_VAL) -> QsoTensor:
    """Check (and optionally repair) a raw cubic array of coefficients.

    In ``strict`` mode the input must already satisfy the invariants within
    ``eps``; it is symmetrized exactly but otherwise untouched. In
    ``normalize`` mode the array is symmetrized via (p[i,j,k]+p[j,i,k])/2
    and every (i, j) slice is rescaled to sum to one.

    Raw entries below -eps raise :class:`NegativeCoefficient` and entries
    above 1 + eps raise :class:`NotStochastic` in both modes. ``eps`` must be
    nonnegative; NaN or a negative value raises :class:`ParameterOutOfRange`.
    """
    if mode not in _VALIDATE_MODES:
        raise ParameterOutOfRange(f"mode must be one of {_VALIDATE_MODES}, got {mode!r}")
    check_tol("eps", eps)
    arr = np.asarray(p, dtype=float)
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


def _image(
    p: np.ndarray, x: np.ndarray, nonneg: bool = False, eps: float = EPS_VAL,
    what: str = SimplexPoint._label,
) -> np.ndarray:
    """Coordinates of the image of x under the coefficients p, cleaned as a point.

    The one image routine: x'_k = sum_{i,j} p[i, j, k] x_i x_j, then the
    point check of :class:`SimplexPoint` with label ``what``. With ``nonneg``
    (every coefficient >= 0, which the caller knows) the image has no
    negative entry to clamp, so a sum within ``eps`` of one only needs the
    division, which gives the same bits as the full check.
    """
    out = np.einsum("ijk,i,j->k", p, x, x)
    if nonneg:
        total = out.sum()
        if abs(total - 1.0) <= eps:  # false for a non-finite sum
            out /= total
            return out
    return _clean_prob_vector(out, eps, what)


def apply(V: QsoTensor, x: SimplexPoint, *, eps: float = EPS_VAL) -> SimplexPoint:
    """Image of x under the operator: x'_k = sum_{i,j} p[i, j, k] x_i x_j."""
    check_tol("eps", eps)
    if x.m != V.m:
        raise DimensionMismatch(f"point has {x.m} coordinates, operator expects {V.m}")
    return SimplexPoint._trusted(_image(V.p, x.coords, eps=eps))


def support(x: SimplexPoint, eps_supp: float = EPS_SUPP) -> frozenset[int]:
    """Indices (1-based) of the coordinates of x exceeding ``eps_supp``."""
    check_tol("eps_supp", eps_supp, positive=True)  # NaN would empty every support
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
