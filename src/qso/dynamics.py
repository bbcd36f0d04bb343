"""Trajectory iteration x, V(x), V(V(x)), ... with stop detection.

No global convergence theory is attempted; iteration stops on pointwise
convergence, on revisiting a recent point (a cycle), or on exhausting the
step budget. A :class:`~qso.core.QsoTensor` has stochastic slices, so no
image leaves the simplex and an orbit never fails midway.
"""

from __future__ import annotations

import csv
import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .core import QsoTensor, SimplexPoint, _image, _integer, check_tol
from .errors import DimensionMismatch

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
CYCLE_WINDOW = 64
# stop-scan chunks grow from _CHUNK_FIRST to _CHUNK_MAX steps; one chunk's
# (step, lag) table over all m coordinates holds at most _SCAN_ELEMENTS
# entries, or one step's worth if a single step has more
_CHUNK_FIRST = 4
_CHUNK_MAX = 64
_SCAN_ELEMENTS = 1 << 16
# operators with at most this many nonzero coefficients step on Python
# floats (see _step_maker). A 200-step m = 4 or 5 orbit whose pattern is
# cached takes 0.4 to 0.6 x the einsum's time up to 64 terms; one that
# compiles a fresh pattern (~0.17 ms at 15 terms, ~0.24 ms at 27) is no
# longer faster past ~45 terms (1.1 x at 56). The cap stays at 56 for
# callers that reuse a pattern, as every dense m = 3 operator shares one
# and repeated orbits of one operator hit the cache: only a caller that
# compiles many distinct 46- to 56-term patterns loses, ~10 %. It must
# stay below 64 = 8^2: a QsoTensor has a nonzero in each of its m^2
# slices, so the cap keeps m <= 7, where numpy still sums left to right
# (8 or more doubles it sums pairwise)
_FLOAT_MAX_TERMS = 56
# other operators step over their nonzeros alone (see _sparse_step) when at
# most one in _SPARSE_SHARE of their m^3 coefficients is nonzero: in-process
# timings at m = 10..24 put the crossover with the einsum at densities of
# 0.2 to 0.3. A Volterra or OP operator has m(2m - 1) nonzeros, which
# passes from m = 8 on
_SPARSE_SHARE = 4
# compiled float runners kept, one per nonzero pattern and size; and
# compiled sums of the sparse step, one per size
_STEP_CACHE_SIZE = 64

STATUS_CONVERGED = "converged"
STATUS_CYCLE = "cycle"
STATUS_BUDGET = "budget_exhausted"


class _Points(Sequence):
    """Read-only sequence of points over the rows of an orbit array.

    Each access wraps its row in a new :class:`SimplexPoint` whose
    ``coords`` is a read-only view of the row; a slice is another view.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _Points(self._rows[k])
        return SimplexPoint._trusted(self._rows[operator.index(k)])

    def __iter__(self):
        return map(SimplexPoint._trusted, self._rows)


@dataclass(eq=False)
class Trajectory:
    """An orbit of the iteration together with how it terminated.

    ``coords`` holds the orbit as one (n + 1) x m float array, row t being
    point t; it is made read-only, not copied. ``iterations`` is n, read
    off its length, and ``points`` wraps its rows as :class:`SimplexPoint`
    on access. Trajectories compare by identity.
    """

    coords: np.ndarray
    status: str = STATUS_BUDGET
    cycle_length: Optional[int] = None

    def __post_init__(self):
        self.coords.flags.writeable = False

    @property
    def iterations(self) -> int:
        return len(self.coords) - 1

    @property
    def points(self) -> Sequence[SimplexPoint]:
        return _Points(self.coords)

    @property
    def final(self) -> SimplexPoint:
        return SimplexPoint._trusted(self.coords[-1])

    @property
    def status_label(self) -> str:
        if self.status == STATUS_CYCLE:
            return f"cycle({self.cycle_length})"
        return self.status


@functools.lru_cache(maxsize=_STEP_CACHE_SIZE)
def _step_maker(flat: tuple[int, ...], m: int):
    """Compile ``make(c0, c1, ...)``, which returns the float runner of one orbit.

    ``flat`` holds the C-order flat indices i*m*m + j*m + k of the nonzero
    coefficients, and ``make`` takes their values in that order. The runner
    ``run(x, n)`` takes n steps from x (an array of m floats) and returns
    the n images as the rows of an (n, m) array; the coordinates stay in
    locals from step to step, and each image's are appended to one list
    that ``np.fromiter`` reads. Each step maps x to ``core._image`` of x,
    bit for bit: on an operator array, which is C-ordered, einsum adds
    (p[i, j, k] * x_i) * x_j into a zeroed output in (i, j) order, and
    skipping an exact-zero coefficient only skips adding +0.0; numpy sums
    fewer than 8 doubles left to right, as ``t`` does, and each coordinate
    is divided by ``t`` as ``_image`` divides by its sum.
    The source holds only indices and fixed names; coefficient values
    reach the runner only through ``make``'s arguments, so no cached
    function carries another operator's values.
    """
    sums = [["0.0"] for _ in range(m)]
    for n, f in enumerate(flat):
        i, jk = divmod(f, m * m)
        j, k = divmod(jk, m)
        sums[k].append(f"c{n} * x{i} * x{j}")
    xs = ", ".join(f"x{i}" for i in range(m))
    out = [f"o{k}" for k in range(m)]
    lines = [
        f"def make({', '.join(f'c{n}' for n in range(len(flat)))}):",
        "    def run(x, n):",
        f"        {xs} = x.tolist()",
        "        out = []",
        "        push = out.extend",
        "        for _ in range(n):",
        *(f"            o{k} = {' + '.join(terms)}" for k, terms in enumerate(sums)),
        f"            t = 0.0 + {' + '.join(out)}",
        f"            {xs} = {', '.join(f'{o} / t' for o in out)}",
        f"            push(({xs}))",
        f"        return fromiter(out, float, len(out)).reshape(n, {m})",
        "    return run",
    ]
    namespace = {"fromiter": np.fromiter}
    exec(compile("\n".join(lines), "<qso float runner>", "exec"), namespace)
    return namespace["make"]


def _pairwise(names: list[str]) -> str:
    """numpy's pairwise summation of the named doubles, written as one expression.

    This is numpy's ``pairwise_sum``: fewer than 8 terms are added left to
    right from 0.0; up to 128, eight accumulators take the full blocks of
    8, are combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    and the tail is added left to right; past 128 the terms are split at
    n / 2 rounded down to a multiple of 8 and each half is summed so.
    """
    n = len(names)
    if n < 8:
        return " + ".join(["0.0", *names])
    if n <= 128:
        full = n - n % 8
        r = [f"({' + '.join(names[j:full:8])})" for j in range(8)]
        tree = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
        return " + ".join([tree, *names[full:]])
    half = n // 2 - n // 2 % 8
    return f"({_pairwise(names[:half])}) + ({_pairwise(names[half:])})"


@functools.lru_cache(maxsize=_STEP_CACHE_SIZE)
def _sum_maker(m: int):
    """Compile ``total(x0, ..., x{m-1})``, ``np.add.reduce`` of m doubles on Python floats.

    numpy reduces a contiguous array of doubles by adding its pairwise sum
    (see :func:`_pairwise`) to the identity 0.0, so ``total`` returns the
    same bits for every m. The source holds only names; the values arrive
    as arguments.
    """
    names = [f"x{i}" for i in range(m)]
    source = f"def total({', '.join(names)}):\n    return 0.0 + ({_pairwise(names)})\n"
    namespace = {}
    exec(compile(source, "<qso pairwise sum>", "exec"), namespace)
    return namespace["total"]


# np.bincount without its __array_function__ dispatch, as core._einsum: the
# same function on plain arrays, so the same bits
_bincount = getattr(np.bincount, "_implementation", np.bincount)


def _sparse_step(p: np.ndarray):
    """The image step of the coefficients p over their nonzeros, taken in C order.

    The step maps x to ``core._image`` of x, bit for bit. The einsum adds
    (p[i, j, k] * x_i) * x_j into a zeroed output in (i, j) order. The
    step gathers x_i and x_j through one (2, n) index, forms c * x_i and
    multiplies it by x_j in place, and ``bincount`` adds these weights
    into a zeroed output in the order given, so each coordinate gets the
    same products in the same order; a skipped zero coefficient would only
    add a zero to a sum that is already >= +0. The sum is ``_image``'s
    ``np.add.reduce`` bit for bit, taken on Python floats by
    :func:`_sum_maker`'s ``total``, and the division is ``_image``'s. Each
    step returns a new array, since the orbit keeps every image.
    """
    m = p.shape[0]
    flat = np.flatnonzero(p)
    i, jk = np.divmod(flat, m * m)
    j, k = np.divmod(jk, m)
    c = p.take(flat)
    ij = np.stack((i, j))
    total = _sum_maker(m)

    def step(x):
        g = x[ij]
        w = c * g[0]
        w *= g[1]
        out = _bincount(k, w, m)
        out /= total(*out.tolist())
        return out

    return step


def _array_runner(step):
    """``run(x, n)`` of an array step: the n images from x, as the rows of an (n, m) array."""

    def run(x, n):
        out = []
        for _ in range(n):
            x = step(x)
            out.append(x)
        return np.concatenate(out).reshape(n, -1)

    return run


def _orbit_step(p: np.ndarray):
    """(kind, run): the runner of one orbit of the coefficients p, chosen once.

    With n nonzero coefficients, kind is ``"float"`` (the compiled float
    runner of :func:`_step_maker`, on Python floats) when n <= 56,
    ``"sparse"`` (:func:`_sparse_step`) when n is at most m^3 / 4, and
    ``"einsum"`` (``core._image``) otherwise; the last two map arrays and
    run under :func:`_array_runner`. Every runner is called as
    ``run(x, n)`` and returns the n images from x as the rows of an (n, m)
    array. Operator arrays are C-ordered (``QsoTensor``), so the flat
    indices of the nonzeros are in the order the einsum reads them. A
    dense operator is only counted: its flat indices would take as much
    memory again.
    """
    m, n = p.shape[0], np.count_nonzero(p)
    if n <= _FLOAT_MAX_TERMS:
        flat = np.flatnonzero(p)
        return "float", _step_maker(tuple(flat.tolist()), m)(*p.take(flat).tolist())
    if _SPARSE_SHARE * n <= m ** 3:
        return "sparse", _array_runner(_sparse_step(p))
    return "einsum", _array_runner(functools.partial(_image, p))


class _StopScan:
    """The stop scan of one orbit: each chunk's first stop, if it has one.

    ``feed(rows)`` takes the chunk's images, at most ``cap`` rows, and
    returns (r, lag) for the first row r within ``tol`` in max norm of one
    of the ``size`` points before it, lag being the smallest such distance
    back, or None. The points before the chunk sit in the last ``size``
    columns of a buffer that holds one column per point, oldest first; NaN
    columns stand for steps before x0 and never match. The chunk's rows are
    written after them, and a read-only strided view of the buffer, built
    once, lines every row up with its lags.

    First a one-coordinate reject: if the sorted values of one coordinate
    over the real columns of the window and the chunk have no adjacent pair
    within ``tol``, that coordinate has no pair within ``tol`` at all, since
    rounding is monotone (for a <= b <= c, fl(c - a) >= fl(b - a)), so no
    (step, lag) pair can match and the chunk has no stop. Coordinates are
    tried in turn, the one that separated last first, and the walk ends at
    the first that separates. Only when none does is the (step, lag) match
    table built, one array expression over all coordinates with its
    differences taken in place; it decides.
    """

    __slots__ = ("_buf", "_back", "_size", "_tol", "_start", "_order")

    def __init__(self, x0: np.ndarray, size: int, tol: float, cap: int):
        m = len(x0)
        self._buf = buf = np.full((m, size + cap), np.nan)
        buf[:, size - 1] = x0
        # back[k, r, q] is coordinate k of the point size - q steps before chunk
        # column r: the windows of length size along buf's rows, read-only
        col = buf.strides[1]
        self._back = np.ndarray((m, cap + 1, size), float, buf, 0, (buf.strides[0], col, col))
        self._back.flags.writeable = False
        self._size, self._tol = size, tol
        self._start = size - 1  # the first real column: x0's until the window fills
        self._order = list(range(m))  # the coordinate that separated last comes first

    def feed(self, rows: np.ndarray):
        """(r, lag) of the first stop among the chunk's rows, or None."""
        buf, size, tol, order = self._buf, self._size, self._tol, self._order
        n = len(rows)
        end = size + n
        buf[:, size:end] = rows.T
        start = self._start
        self._start = max(start - n, 0)
        for pos, k in enumerate(order):
            seen = buf[k, start:end].copy()
            seen.sort()
            if np.minimum.reduce(np.subtract(seen[1:], seen[:-1])) > tol:
                if pos:
                    order.insert(0, order.pop(pos))
                break
        else:
            # near[r, q]: chunk step r is within tol of the point size - q steps back
            gap = self._back[:, :n] - buf[:, size:end, None]
            near = (np.abs(gap, out=gap) <= tol).all(axis=0)
            hits = np.flatnonzero(near.any(axis=1))
            if hits.size:
                r = int(hits[0])
                return r, size - int(np.flatnonzero(near[r])[-1])
        buf[:, :size] = buf[:, n:end]
        return None


def iterate(
    V: QsoTensor,
    x0: SimplexPoint,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    *,
    window: int = CYCLE_WINDOW,
) -> Trajectory:
    """Iterate the operator from x0 until convergence, a cycle, or the budget.

    Each new point x_t is compared in max norm against the last ``window``
    points. The smallest lag L with ``|x_t - x_{t-L}| <= tol`` decides: lag
    1 is convergence, and a lag L >= 2 is a cycle of length L. With
    ``window <= 1`` only convergence is detected.

    Every point is bit for bit ``apply`` of the one before. The step is
    chosen once per orbit from the operator's count n of nonzero
    coefficients. With n <= 56, hence m <= 7, it runs on Python floats:
    straight-line code in a loop over a chunk's steps, which
    ``_step_maker`` compiles once per (nonzero pattern, m) and keeps in a
    bounded cache; this orbit's coefficient values are bound to it as
    arguments, never written into its source. With 4n <= m^3, as for
    every Volterra or OP operator from m = 8 on (n = m(2m - 1)), it runs
    over the nonzeros alone, O(n) per step: one ``np.bincount`` of the
    products (p[i, j, k] * x_i) * x_j into their outputs k, taken in C
    order. Otherwise it calls ``apply``'s image
    routine ``core._image``, the O(m^3) einsum. The first two perform the
    einsum's additions in the einsum's order, skipping only zero
    coefficients, whose products would add nothing to a sum >= +0, so
    their bits are the einsum's. Every step divides by the image's sum
    and checks nothing: the tensor's slices sum to one, so every image
    lies on the simplex. On a 2-core VM with one BLAS thread, a 500-step
    orbit took ~2.7-3.0 ms on the einsum and ~1.7-1.8 ms on the sparse
    step for a Volterra operator at m = 10, ~420-460 and ~50-52 ms at
    m = 100, and for an OP operator ~6.5-6.9 and ~3.1-3.2 ms at m = 20,
    ~58-62 and ~13-14 ms at m = 50.

    Stops are found once per chunk of steps. Chunks grow 4, 8, ... up to
    64 steps, so an orbit that stops at step t computes at most 2t + 8
    images; a long window shortens them, so that one chunk's table over
    all m coordinates holds at most 2^16 entries (one step's if a single
    step has more). Each chunk is one call of the orbit's runner, which
    returns the chunk's images as the rows of one array, and its last row
    starts the next chunk. A :class:`_StopScan` reads each chunk and
    returns its first stop as (step in the chunk, smallest lag), or None;
    lag 1 is convergence and a longer lag a cycle, and the images past the
    stop are dropped. Each chunk's rows are appended as bytes to one
    growing buffer, which becomes the trajectory's array without a copy,
    so the orbit is held once; no point is wrapped until it is read.
    """
    max_iter = _integer("max_iter", max_iter, low=1)
    window = _integer("window", window)
    tol = check_tol("tol", tol, positive=True)
    if x0.m != V.m:
        raise DimensionMismatch(f"start point has {x0.m} coordinates, operator expects {V.m}")

    p, m = V.p, V.m
    run = _orbit_step(p)[1]
    size = max(min(window, max_iter), 1)  # no lag exceeds the budget
    cap = max(1, min(_CHUNK_MAX, _SCAN_ELEMENTS // (m * size)))
    scan = _StopScan(x0.coords, size, tol, cap)
    # the orbit's rows end to end, as the bytes of one C-ordered float array;
    # extend, since += with an array operand would be numpy's broadcast add
    orbit = bytearray(x0.coords.tobytes())
    x = x0.coords
    t0, chunk = 1, min(_CHUNK_FIRST, cap)
    while t0 <= max_iter:
        n = min(chunk, max_iter - t0 + 1)
        rows = run(x, n)
        x = rows[-1]
        stop = scan.feed(rows)
        if stop is not None:
            r, lag = stop
            orbit.extend(rows[: r + 1])
            coords = np.frombuffer(orbit).reshape(-1, m)
            # the stop verdict: lag 1 is convergence, a longer lag a cycle
            if lag == 1:
                return Trajectory(coords, STATUS_CONVERGED)
            return Trajectory(coords, STATUS_CYCLE, lag)
        orbit.extend(rows)
        t0 += n
        chunk = min(2 * chunk, cap)
    return Trajectory(np.frombuffer(orbit).reshape(-1, m), STATUS_BUDGET)


def fixed_points_on_vertices(V: QsoTensor, tol: float = DEFAULT_TOL) -> frozenset:
    """Labels (1-based) of the vertices fixed by the operator within ``tol``.

    The image of the vertex e_k is the slice p[k, k, :] divided by its sum,
    so row k of ``images`` is ``apply(V, e_k)`` bit for bit, up to the sign
    of a zero that the distance drops. e_k is fixed when its image lies
    within ``tol`` of it in max norm. The cost is O(m^2).
    """
    tol = check_tol("tol", tol, positive=True)
    diag = V.p.diagonal(0, 0, 1).T  # diag[k] = p[k, k, :], a contiguous row
    images = diag / diag.sum(axis=1, keepdims=True)
    fixed = np.abs(images - np.eye(V.m)).max(axis=1) <= tol
    return frozenset((np.flatnonzero(fixed) + 1).tolist())


def write_trajectory_csv(traj: Trajectory, fh: IO[str]) -> None:
    """Emit ``iter,x1,...,xm,status`` rows; the final row carries the status."""
    n, m = traj.coords.shape
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["iter"] + [f"x{i}" for i in range(1, m + 1)] + ["status"])
    for t, row in enumerate(traj.coords):
        status = traj.status_label if t == n - 1 else ""
        writer.writerow([t] + [format(c, ".17g") for c in row.tolist()] + [status])
