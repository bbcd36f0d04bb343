"""Measure-kernel form of a QSO on a finite space of atoms.

On a finite measurable space (atoms 1..n with the full power set) a QSO
acts on probability measures through a kernel q[x, y, :] of probability
vectors, symmetric in (x, y):

    (V mu)_k = sum_{x,y} q[x, y, k] * mu_x * mu_y.

The kernel is Volterra exactly when q[x, y, A] vanishes for every subset A
avoiding both x and y, which on atoms reduces to q[x, y, k] == 0 for
k outside {x, y}. :func:`volterra_violation_witness` decides the subset
form exhaustively, and :func:`kernel_volterra_oracle` is its verdict. The
scan gets all 2^n - 1 subset masses q[x, y, A] from one
(2^n - 1, n) @ (n, n^2) product, i.e. O(2^n * n^3) work and an
(2^n - 1, n^2) array (4.7 MB at the cap n = 12, hence the small-n
precondition). The measure form, V(mu) absolutely continuous w.r.t. mu,
needs no random spot check on top: an atom outside the support of mu gets
mass only through forbidden entries, so once the scan has passed each
such atom gets at most eps.

A measure on n atoms is a point of S^{n-1} and a kernel is a QSO on it,
so this module reuses the core definitions: :class:`DiscreteMeasure` is a
:class:`~qso.core.SimplexPoint`, :func:`kernel_apply` computes its image
with the routine behind :func:`~qso.core.apply`, and
:func:`kernel_is_volterra` reads the forbidden-entry maximum
``core._forbidden_max`` of :func:`~qso.volterra.is_volterra`, so a kernel
command never loads :mod:`qso.volterra`. :class:`FiniteKernel` keeps its
own validation: it accepts a single atom, which a QSO tensor does not, and
words its errors for kernels. Both types hold the same invariants (exact
symmetry, entries >= 0, rows summing to one within ``EPS_VAL``), so
:meth:`FiniteKernel.from_tensor` and :meth:`FiniteKernel.to_tensor` share
the array unchecked, and an image measure is only divided by its sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS_VAL, QsoTensor, SimplexPoint, _forbidden_max, _image, _integer, check_tol
from .errors import (
    DimensionMismatch,
    NegativeCoefficient,
    NotStochastic,
    NotSymmetric,
    TooLarge,
)

_ORACLE_MAX_ATOMS = 12


class DiscreteMeasure(SimplexPoint):
    """A probability measure on n atoms, stored as a weight vector.

    It is a :class:`~qso.core.SimplexPoint` that only adds the names
    ``weights`` (its coordinates), ``n`` and ``point_mass``, so ``apply``
    accepts it too; its errors call it a measure.
    """

    __slots__ = ()

    _label = "measure"

    @property
    def weights(self) -> np.ndarray:
        return self.coords

    @property
    def n(self) -> int:
        return self.coords.size

    @classmethod
    def point_mass(cls, n: int, atom: int) -> "DiscreteMeasure":
        """The delta measure at ``atom`` (1-based): the vertex e_atom."""
        return cls.vertex(n, atom)


@dataclass(frozen=True, eq=False, repr=False)
class FiniteKernel:
    """Kernel q[x, y, :] of probability vectors, symmetric in (x, y).

    Construction symmetrizes in the first two indices (deviations beyond
    the tolerance raise), clamps noise-level negatives, and requires each
    q[x, y, :] to sum to one within tolerance. The input is read in C
    order, so ``q`` is C-ordered and depends only on the input's values.
    """

    n: int
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("kernel size", self.n, DimensionMismatch))
        q = np.asarray(self.q, dtype=float, order="C")
        if q.shape != (self.n, self.n, self.n):
            raise DimensionMismatch(f"expected a {self.n}^3 array, got {q.shape}")
        if self.n < 1:
            raise DimensionMismatch("a kernel needs at least one atom")
        if not np.all(np.isfinite(q)):
            raise NotStochastic("kernel contains non-finite entries")
        # finite entries of ~1e308 can differ or sum by inf: the checks report that, unwarned
        with np.errstate(over="ignore"):
            asym = np.abs(q - q.transpose(1, 0, 2)).max()
            if asym > EPS_VAL:
                raise NotSymmetric(f"kernel asymmetry {asym:.3e} exceeds {EPS_VAL:g}")
            q = (q + q.transpose(1, 0, 2)) / 2.0
            if q.min() < -EPS_VAL:
                raise NegativeCoefficient(f"kernel entry below zero: {q.min():.3e}")
            q[q < 0.0] = 0.0
            sums = q.sum(axis=2)
        worst = np.abs(sums - 1.0).max()
        if worst > EPS_VAL:
            raise NotStochastic(f"a kernel row sums off one by {worst:.3e}")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def __repr__(self) -> str:
        return f"FiniteKernel(n={self.n})"

    @classmethod
    def _trusted(cls, n: int, q: np.ndarray) -> "FiniteKernel":
        """Wrap a C-ordered n x n x n float array the constructor would keep as it is.

        The twin of :meth:`QsoTensor._trusted`: ``q`` is finite, exactly
        symmetric in (x, y), >= 0 and its rows sum to one within
        ``EPS_VAL``. The caller gives up ``q``: it is made read-only, not
        checked and not copied.
        """
        q.flags.writeable = False
        K = object.__new__(cls)
        object.__setattr__(K, "n", n)
        object.__setattr__(K, "q", q)
        return K

    @classmethod
    def from_tensor(cls, V: QsoTensor) -> "FiniteKernel":
        """View an m-species operator as a kernel on m atoms, sharing its array.

        ``V.p`` is C-ordered, exactly symmetric, >= 0 and its rows sum to
        one within ``EPS_VAL``: the constructor would keep its bits, so
        nothing is checked.
        """
        return cls._trusted(V.m, V.p)

    def to_tensor(self) -> QsoTensor:
        if self.n < 2:
            raise DimensionMismatch("a QSO tensor needs at least two species")
        return QsoTensor._trusted(self.n, self.q)  # q is read-only, symmetric and >= 0


def kernel_apply(K: FiniteKernel, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Image measure: (V mu)_k = sum_{x,y} q[x, y, k] mu_x mu_y."""
    if mu.n != K.n:
        raise DimensionMismatch(f"measure on {mu.n} atoms, kernel on {K.n}")
    return DiscreteMeasure._trusted(_image(K.q, mu.coords))


def kernel_is_volterra(K: FiniteKernel, eps: float = EPS_VAL) -> bool:
    """True iff q[x, y, k] <= eps whenever k is neither x nor y; ``eps`` >= 0."""
    eps = check_tol("eps", eps)
    return bool(_forbidden_max(K.q) <= eps)


def volterra_violation_witness(
    K: FiniteKernel, eps: float = EPS_VAL
) -> tuple[tuple[int, ...], int, int] | None:
    """First subset violation found, as 1-based (A, x, y), or None.

    Scans every subset A of the atoms and every pair x, y outside A; a
    violation means the kernel puts more than |A| * eps mass on A. The
    per-subset threshold scales with |A| so the verdict coincides exactly
    with the entrywise test of :func:`kernel_is_volterra`.

    Subsets are ordered by their bit mask (atom k is bit k), then x, then
    y. All masses come from one product with the 0/1 subset indicator. In
    exact arithmetic the first violation is a singleton {k}, whose mass is
    q[x, y, k] plus exact zeros, so the product's summation order cannot
    move it and its threshold is exactly eps. A larger A sums |A| entries
    with rounding: ten copies of 1e-9 add up to more than 10 * 1e-9. Its
    threshold is raised by a relative 2^-45, more than the rounding error
    of any sum of at most 12 terms, so a float mass above it means an
    exact mass above |A| * eps, hence an entry above eps and an earlier
    singleton hit. ``eps`` must be nonnegative; 0 asks for exact zeros.
    """
    eps = check_tol("eps", eps)
    n = K.n
    if n > _ORACLE_MAX_ATOMS:
        raise TooLarge(f"subset enumeration supports n <= {_ORACLE_MAX_ATOMS}, got {n}")
    masks = np.arange(1, 1 << n)
    inside = (masks[:, None] >> np.arange(n) & 1).astype(bool)  # (2^n - 1, n), row = mask - 1
    mass = (inside.astype(float) @ K.q.reshape(n * n, n).T).reshape(-1, n, n)
    size = inside.sum(axis=1)
    threshold = size * eps * np.where(size > 1, 1.0 + 2.0**-45, 1.0)
    outside = ~inside
    hits = mass > threshold[:, None, None]
    hits &= outside[:, :, None]
    hits &= outside[:, None, :]
    first = int(hits.argmax())
    if not hits.flat[first]:
        return None
    row, x, y = np.unravel_index(first, hits.shape)
    subset = tuple(int(a) + 1 for a in np.flatnonzero(inside[row]))
    return (subset, int(x) + 1, int(y) + 1)


def kernel_volterra_oracle(
    K: FiniteKernel,
    eps: float = EPS_VAL,
    *,
    n_measures: int = 100,
    rng: np.random.Generator | None = None,
) -> bool:
    """Exhaustive subset decision of the Volterra property (n <= 12 only).

    True iff :func:`volterra_violation_witness` finds no violation, which
    is exactly :func:`kernel_is_volterra`; no random measure is drawn.
    ``n_measures`` and ``rng`` are accepted only so that callers which pass
    them keep working: ``rng`` is not read, and ``n_measures`` must still
    be an integer of at least 0 (2.0 is 2), checked before ``eps``, else
    :class:`ParameterOutOfRange`. ``eps`` must be nonnegative.
    """
    _integer("n_measures", n_measures, low=0)
    return volterra_violation_witness(K, eps) is None
