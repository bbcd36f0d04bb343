"""Foundational types and predicates for quadratic stochastic operators.

A quadratic stochastic operator (QSO) on the simplex S^{m-1} is given by a
cubic array of heredity coefficients p[i, j, k] with

    p[i, j, k] >= 0,    p[i, j, k] == p[j, i, k],    sum_k p[i, j, k] == 1.

Applying the operator to a probability vector x produces the next
generation x' with x'_k = sum_{i,j} p[i, j, k] * x_i * x_j.

This module owns the two value types (:class:`SimplexPoint`,
:class:`QsoTensor`), tensor validation, operator application, and the
support-based predicates: absolute continuity, orthogonality, and the
support rule of every Volterra, kernel and OP verdict. Coefficients are
>= 0, so supp V(x) is the union of supp p[i, j, :] over i, j in supp x: a
question about image supports is one about coefficient supports, and no
image is needed. A coefficient is in the support when p[i, j, k] > eps,
at ``eps = EPS_VAL`` by default. The probe (e_i + e_j) / 2 must not reach
the k outside {i, j}; :func:`_probe_mask` marks those triples and
:func:`_forbidden_max` is their largest entry.

A :class:`QsoTensor` holds all three invariants above: its constructor
refuses an array that is not exactly symmetric, has a negative entry or
has a slice whose sum misses one by more than ``EPS_VAL``. So the image of
a simplex point under any tensor sums to one within that tolerance, and
:func:`apply` only divides by the sum; it raises no point error.

Conventions
-----------
* Arrays are indexed 0-based internally; index *sets* returned to callers
  (supports, vertex labels) and all JSON payloads are 1-based.
* ``EPS_VAL`` separates construction noise from genuine violations and
  is the coefficient-support threshold of every verdict; ``EPS_SUPP``
  decides the support of a point. Both can be overridden per call, except
  the slice sums of a :class:`QsoTensor`, always ``EPS_VAL``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

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

# np.einsum without its __array_function__ dispatch (~0.5 us of a ~4 us
# m = 10 image): the same function on plain arrays, so the same bits; the
# public function where numpy does not expose it
_einsum = getattr(np.einsum, "_implementation", np.einsum)


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


def _is_real(value) -> bool:
    """True for an int or a float, numpy's too; False for bools, text, None and containers."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_tol(name: str, value, *, positive: bool = False) -> float:
    """``value`` as a float if it is a usable tolerance, else :class:`ParameterOutOfRange`.

    The one guard for every tolerance: ``value`` must be a real number >= 0,
    or > 0 with ``positive``, that a float can hold. Callers use the float
    returned, so an int, a ``Fraction`` or a numpy scalar is compared as
    the float it rounds to (one that rounds to 0.0 is not positive), and
    one past the float range raises here instead of overflowing later. NaN fails both comparisons, so it raises
    too instead of turning every later ``<=`` or ``>`` test into a silent
    verdict.
    """
    tol = math.nan
    if _is_real(value):
        try:
            tol = float(value)
        except OverflowError:
            raise ParameterOutOfRange(
                f"{name} must fit in a float; this {type(value).__name__} overflows it"
            ) from None
    if not (tol > 0 if positive else tol >= 0):
        rule = "positive" if positive else "nonnegative"
        try:
            shown = repr(_plain(value))
        except ValueError:  # an int or a Fraction past Python's digit limit for str
            shown = f"a {type(value).__name__} that rounds to {tol!r}"
        raise ParameterOutOfRange(f"{name} must be {rule}, got {shown}")
    return tol


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
    try:
        v = np.array(values, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise InvalidPoint(f"{what} has an entry too large for a float: {exc}") from None
    if v.ndim != 1 or v.size == 0:
        raise InvalidPoint(f"{what} must be a nonempty 1-d vector")
    # finite entries of ~1e308 can sum to inf: that sum is reported below, not warned of
    with np.errstate(over="ignore"):
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
    if abs(total - 1.0) > eps or total == 0.0:  # eps >= 1 would let 0 through to 0/0
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
        eps = check_tol("eps", eps)
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


def _check_slices(sums: np.ndarray, eps: float) -> float:
    """The largest distance of a slice sum from one; :class:`NotStochastic` if above ``eps``.

    The one slice check, of :class:`QsoTensor` and of strict :func:`validate`.
    The error names the first worst slice (i, j), 1-based; since the slices
    are symmetric, that one has i <= j. An infinite sum is off by inf.
    """
    off = np.abs(sums - 1.0)
    worst = off.max()
    if not worst <= eps:
        bad = np.unravel_index(off.argmax(), sums.shape)
        raise NotStochastic(
            f"slice ({bad[0] + 1}, {bad[1] + 1}) sums to {float(sums[bad])!r}; "
            f"off by {worst:.3e}"
        )
    return worst


@dataclass(frozen=True, eq=False, repr=False)
class QsoTensor:
    """Dense cubic array of heredity coefficients for an m-species QSO.

    The array is exactly symmetric in its first two indices, >= 0, and each
    slice p[i, j, :] sums to one within ``EPS_VAL``; the constructor checks
    the three in that order. :func:`validate` repairs raw data into this
    form, and the package's builders make it directly.
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
        if not p.min() >= 0:  # NaN already failed the symmetry check
            raise NegativeCoefficient(f"coefficient below zero: min entry = {p.min():.3e}")
        # finite entries of ~1e308 can sum to inf: that sum is reported, not warned of
        with np.errstate(over="ignore"):
            sums = p.sum(axis=2)
        _check_slices(sums, EPS_VAL)
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @classmethod
    def _trusted(cls, m: int, p: np.ndarray) -> "QsoTensor":
        """Wrap a C-ordered m x m x m float array, m >= 2, that the constructor would accept.

        The twin of :meth:`SimplexPoint._trusted`, for builders whose array
        is symmetric in (i, j), >= 0 and stochastic by construction (a fresh
        array with the same value >= 0 in both halves and slices of t and
        1 - t, the same permutation applied to i and j, or a symmetrized
        C-ordered array clamped at 0 and rescaled by its slice sums). The
        caller gives up ``p``: it is made read-only, not checked and not
        copied. Anything else goes through the public constructor.
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
    ``eps``; it is symmetrized exactly, small negatives are clamped to zero,
    and the slices are divided by their sums only if one of them is then
    more than ``EPS_VAL`` off, so that the result is a :class:`QsoTensor`.
    A larger ``eps`` allows that, and so, at the default ``eps``, does a
    clamp that raises a slice sum past ``EPS_VAL``; no other input is
    rescaled. In
    ``normalize`` mode the array is symmetrized via (p[i,j,k]+p[j,i,k])/2
    and every (i, j) slice is rescaled to sum to one. The input is read in
    C order, so the result depends only on its values, not on their layout.

    Raw entries below -eps raise :class:`NegativeCoefficient` and entries
    above 1 + eps raise :class:`NotStochastic` in both modes, as does a
    slice with a sum <= 0 that would have to be rescaled. ``eps`` must be
    nonnegative; NaN or a negative value raises :class:`ParameterOutOfRange`.

    The result is the only m^3 array made: the strict asymmetry is measured
    in it, then it is overwritten with the symmetrized input, clamped at
    zero only when the raw minimum is negative, and rescaled in place.
    """
    if mode not in _VALIDATE_MODES:
        raise ParameterOutOfRange(f"mode must be one of {_VALIDATE_MODES}, got {mode!r}")
    eps = check_tol("eps", eps)
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

    arr_t = arr.transpose(1, 0, 2)
    if mode == "strict":
        sym = np.subtract(arr, arr_t)
        asym = np.abs(sym, out=sym).max()
        if asym > eps:
            raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {eps:g}")
        np.add(arr, arr_t, out=sym)
    else:
        sym = np.add(arr, arr_t)
    sym /= 2.0

    # normalize rescales every slice, strict only when one is more than
    # EPS_VAL off; a sum <= 0 is off by at least one, which strict allows
    # only with eps >= 1
    sums = sym.sum(axis=2)
    worst = _check_slices(sums, eps) if mode == "strict" else math.inf
    if worst >= 1.0 and sums.min() <= 0.0:
        raise NotStochastic("cannot rescale a slice with non-positive sum")
    # every raw entry is >= -eps, so is every mean of two: only noise is
    # clamped, and a mean of two entries >= 0 is >= 0 (or -0.0, kept); the
    # clamp raises a slice sum by up to m * eps
    if lo < 0.0:
        sym[sym < 0.0] = 0.0
        sums = sym.sum(axis=2)
        if mode == "strict":
            worst = np.abs(sums - 1.0).max()
    if worst > EPS_VAL:
        sym /= sums[:, :, None]

    # (a + a^T) / 2 is exactly symmetric, and mirrored slices hold the same
    # values in the same order, so the clamp and the rescaling keep it so
    return QsoTensor._trusted(m, sym)


def _image(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coordinates of the image of x under the coefficients p, divided by their sum.

    The one image routine: x'_k = sum_{i,j} p[i, j, k] x_i x_j, then the
    division that :class:`SimplexPoint` makes of a point. Slices that sum
    to one within ``EPS_VAL`` and a point on the simplex give a sum within
    that tolerance of one, so there is nothing to check. The einsum is
    called past numpy's dispatch and the sum is the ufunc reduce that
    ``out.sum()`` runs, so the bits are those of ``np.einsum`` and
    ``out.sum()``.
    """
    out = _einsum("ijk,i,j->k", p, x, x)
    out /= np.add.reduce(out)
    return out


def apply(V: QsoTensor, x: SimplexPoint) -> SimplexPoint:
    """Image of x under the operator: x'_k = sum_{i,j} p[i, j, k] x_i x_j."""
    if x.m != V.m:
        raise DimensionMismatch(f"point has {x.m} coordinates, operator expects {V.m}")
    return SimplexPoint._trusted(_image(V.p, x.coords))


def support(x: SimplexPoint, eps_supp: float = EPS_SUPP) -> frozenset[int]:
    """Indices (1-based) of the coordinates of x exceeding ``eps_supp``."""
    eps_supp = check_tol("eps_supp", eps_supp, positive=True)  # NaN would empty every support
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


@lru_cache(maxsize=8)
def _probe_mask(m: int) -> np.ndarray:
    """Read-only (m, m, m) mask of the triples (i, j, k) with k not in {i, j}.

    The coordinates k outside the support of the probe (e_i + e_j) / 2, and
    so the entries p[i, j, k] a Volterra operator must not reach. The sum
    e_i + e_j is taken on uint8 rows of the identity and compared with 0 in
    place, so the mask is the only cube made.
    """
    eye = np.eye(m, dtype=np.uint8)
    twice = eye[:, None, :] + eye[None, :, :]  # (e_i + e_j)[k], in {0, 1, 2}
    np.equal(twice, 0, out=twice.view(bool))
    twice.flags.writeable = False
    return twice.view(bool)


def _forbidden_max(p: np.ndarray) -> float:
    """Largest entry p[i, j, k] of a cubic array with k not in {i, j} (0 if none).

    The one forbidden-entry test behind ``is_volterra``, ``to_canonical``,
    ``volterra_certificate`` and ``kernel_is_volterra``. A masked reduction,
    not a gather: the mask selects all but O(m^2) of the m^3 entries, so a
    gather would copy nearly all of p.
    """
    return p.max(where=_probe_mask(p.shape[0]), initial=0.0)
