"""Trajectory iteration x, V(x), V(V(x)), ... with stop detection.

No global convergence theory is attempted; iteration stops on pointwise
convergence, on revisiting a recent point (a cycle), or on exhausting the
step budget.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    EPS_VAL,
    QsoTensor,
    SimplexPoint,
    _clean_prob_vector,
    _image,
    _integer,
    apply,
    check_tol,
)
from .errors import DimensionMismatch, InvalidPoint

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
CYCLE_WINDOW = 64
# stop-scan chunks grow from _CHUNK_FIRST to _CHUNK_MAX steps; one chunk's
# (step, lag) table holds at most _SCAN_ELEMENTS entries
_CHUNK_FIRST = 4
_CHUNK_MAX = 64
_SCAN_ELEMENTS = 1 << 16
# operators with at most this many species and nonzero coefficients step on
# Python floats (see _float_image); numpy sums 8 or more doubles pairwise
_FLOAT_MAX_M = 7
_FLOAT_MAX_TERMS = 32

STATUS_CONVERGED = "converged"
STATUS_CYCLE = "cycle"
STATUS_BUDGET = "budget_exhausted"


@dataclass
class Trajectory:
    """An orbit of the iteration together with how it terminated."""

    points: list[SimplexPoint] = field(default_factory=list)
    status: str = STATUS_BUDGET
    cycle_length: Optional[int] = None
    iterations: int = 0

    @property
    def final(self) -> SimplexPoint:
        return self.points[-1]

    @property
    def status_label(self) -> str:
        if self.status == STATUS_CYCLE:
            return f"cycle({self.cycle_length})"
        return self.status


def _float_terms(p: np.ndarray) -> list[tuple[int, int, int, float]] | None:
    """The terms (i, j, k, p[i, j, k]) of the nonzero coefficients in C order.

    None unless the array is small enough for :func:`_float_image` (at most
    ``_FLOAT_MAX_M`` species and ``_FLOAT_MAX_TERMS`` terms) and
    C-contiguous, the layout on which einsum adds in (i, j) order.
    """
    if p.shape[0] > _FLOAT_MAX_M or not p.flags.c_contiguous:
        return None
    nz = np.nonzero(p)
    if nz[0].size > _FLOAT_MAX_TERMS:
        return None
    return list(zip(*(a.tolist() for a in nz), p[nz].tolist()))


def _float_image(terms: list, x: list[float], nonneg: bool) -> list[float]:
    """``core._image`` of the coefficients ``terms`` at x, on Python floats, bit for bit.

    On a C-contiguous array einsum adds (p[i, j, k] * x_i) * x_j into a
    zeroed output in (i, j) order; skipping an exact-zero coefficient only
    skips adding +0.0. numpy sums fewer than 8 doubles left to right, as
    the loop below does. An image that fails the division-only path gets
    the full point check, which raises ``InvalidPoint`` as ``_image`` would.
    """
    out = [0.0] * len(x)
    for i, j, k, v in terms:
        out[k] += v * x[i] * x[j]
    total = 0.0
    for c in out:
        total += c
    if nonneg and abs(total - 1.0) <= EPS_VAL:  # false for a non-finite sum
        return [c / total for c in out]
    return _clean_prob_vector(np.array(out), EPS_VAL, SimplexPoint._label).tolist()


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

    Every point is bit for bit ``apply`` of the one before. An operator
    with at most 7 species and 32 nonzero coefficients, stored in C order,
    steps on Python floats (``_float_image``, which reproduces the
    einsum's order of operations); every other one calls ``apply``'s image
    routine ``core._image``. When every coefficient is >= 0 (one
    ``p.min()`` per orbit) both take a division-only path, since every term
    is >= 0 because points are; an image that fails it, and every image of
    an operator with a negative coefficient, gets the full point check,
    which raises ``InvalidPoint`` where ``apply`` would.

    Stops are found once per chunk of steps. Chunks grow 4, 8, ... up to
    64 steps, so an orbit that stops at step t computes at most 2t + 8
    images. A chunk's points become the rows of one array, written in one
    go after the last ``window`` points of a buffer that holds one column
    per point; a sliding-window view of it lines every step of the chunk
    up with its lags. The (step, lag) match table is built one coordinate
    at a time and left early once no pair is within ``tol``. Its first row
    with a match is the stop, its smallest lag there the cycle length, and
    the images past it are dropped. An error inside a chunk is raised only
    if no step before it stops.
    """
    max_iter = _integer("max_iter", max_iter, low=1)
    window = _integer("window", window)
    check_tol("tol", tol, positive=True)
    if x0.m != V.m:
        raise DimensionMismatch(f"start point has {x0.m} coordinates, operator expects {V.m}")

    p = V.p
    nonneg = bool(p.min() >= 0)
    terms = _float_terms(p)
    size = max(min(window, max_iter), 1)  # no lag exceeds the budget
    cap = max(1, min(_CHUNK_MAX, _SCAN_ELEMENTS // size))
    # one column per point: columns [0, size) hold the points before the
    # chunk, oldest first; NaN columns stand for steps before 0 and never match
    buf = np.full((V.m, size + cap), np.nan)
    buf[:, size - 1] = x0.coords
    # back[k, r, q] is coordinate k of the point size - q steps before chunk column r
    back = sliding_window_view(buf, size, axis=1)
    points = [x0]
    x = x0.coords if terms is None else x0.coords.tolist()
    t0, chunk = 1, min(_CHUNK_FIRST, cap)
    while t0 <= max_iter:
        new, error = [], None
        for _ in range(min(chunk, max_iter - t0 + 1)):
            try:
                x = _image(p, x, nonneg) if terms is None else _float_image(terms, x, nonneg)
            except InvalidPoint as exc:
                error = exc
                break
            new.append(x)
        n = len(new)
        rows = np.array(new).reshape(n, V.m)
        buf[:, size:size + n] = rows.T
        # |x_t - x_{t-L}| <= tol in max norm, one coordinate at a time,
        # stopping early once no (step, lag) pair is left
        near = np.abs(back[0, :n] - buf[0, size:size + n, None]) <= tol
        for k in range(1, V.m):
            if not near.any():
                break
            near &= np.abs(back[k, :n] - buf[k, size:size + n, None]) <= tol
        hits = np.flatnonzero(near.any(axis=1))
        if hits.size:
            r = int(hits[0])
            points.extend(map(SimplexPoint._trusted, rows[: r + 1]))
            lag = size - int(np.flatnonzero(near[r])[-1])
            if lag == 1:
                return Trajectory(points, STATUS_CONVERGED, None, t0 + r)
            return Trajectory(points, STATUS_CYCLE, lag, t0 + r)
        if error is not None:
            raise error
        points.extend(map(SimplexPoint._trusted, rows))
        buf[:, :size] = buf[:, n:n + size]
        t0 += n
        chunk = min(2 * chunk, cap)
    return Trajectory(points, STATUS_BUDGET, None, max_iter)


def fixed_points_on_vertices(V: QsoTensor, tol: float = DEFAULT_TOL) -> frozenset:
    """Labels (1-based) of the vertices fixed by the operator within ``tol``."""
    check_tol("tol", tol, positive=True)
    fixed = set()
    for k in range(1, V.m + 1):
        e = SimplexPoint.vertex(V.m, k)
        if np.abs(apply(V, e).coords - e.coords).max() <= tol:
            fixed.add(k)
    return frozenset(fixed)


def write_trajectory_csv(traj: Trajectory, fh: IO[str]) -> None:
    """Emit ``iter,x1,...,xm,status`` rows; the final row carries the status."""
    m = traj.points[0].m
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["iter"] + [f"x{i}" for i in range(1, m + 1)] + ["status"])
    last = len(traj.points) - 1
    for t, pt in enumerate(traj.points):
        status = traj.status_label if t == last else ""
        writer.writerow([t] + [format(c, ".17g") for c in pt.coords] + [status])
