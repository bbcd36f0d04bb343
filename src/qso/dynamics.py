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

from .core import QsoTensor, SimplexPoint, apply
from .errors import DimensionMismatch, ParameterOutOfRange

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
CYCLE_WINDOW = 64

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


def iterate(
    V: QsoTensor,
    x0: SimplexPoint,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    *,
    window: int = CYCLE_WINDOW,
) -> Trajectory:
    """Iterate the operator from x0 until convergence, a cycle, or the budget.

    Each new point is compared, in one vectorized max-norm test, against
    the last ``window`` points, which are kept in a ``(window, m)`` ring
    buffer. The smallest matching lag decides: lag 1 (two consecutive
    points within ``tol``) is convergence, and a lag L >= 2 is a cycle of
    length L. With ``window <= 1`` only convergence is detected.
    """
    if max_iter < 1:
        raise ParameterOutOfRange(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ParameterOutOfRange(f"tol must be positive, got {tol!r}")
    if x0.m != V.m:
        raise DimensionMismatch(f"start point has {x0.m} coordinates, operator expects {V.m}")

    size = max(min(window, max_iter), 1)  # no lag exceeds the budget
    ring = np.empty((size, V.m))
    ring[0] = x0.coords
    lags = np.arange(1, size + 1)
    points = [x0]
    for t in range(1, max_iter + 1):
        nxt = apply(V, points[-1])
        points.append(nxt)
        # rows of points t-1, t-2, ..., t-L in lag order, so the first hit is the smallest lag
        rows = (t - lags[: min(size, t)]) % size
        hits = np.flatnonzero(np.abs(ring[rows] - nxt.coords).max(axis=1) <= tol)
        if hits.size:
            lag = int(hits[0]) + 1
            if lag == 1:
                return Trajectory(points, STATUS_CONVERGED, None, t)
            return Trajectory(points, STATUS_CYCLE, lag, t)
        ring[t % size] = nxt.coords
    return Trajectory(points, STATUS_BUDGET, None, max_iter)


def fixed_points_on_vertices(V: QsoTensor, tol: float = DEFAULT_TOL) -> frozenset:
    """Labels (1-based) of the vertices fixed by the operator within ``tol``."""
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
