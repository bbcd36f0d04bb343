"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's computation paths:
family operators are evaluated from their displayed polynomials, algebra
products are recomputed with nested Python loops, and canonical Volterra
images come from the closed-form coordinate expression. Tests compare
library output against these independent routes.
"""

from __future__ import annotations

import numpy as np

from qso import (
    DiscreteMeasure,
    FiniteKernel,
    QsoTensor,
    SimplexPoint,
    SkewMatrix,
    Trajectory,
    apply,
    from_canonical,
    validate,
)


def rand_simplex(rng: np.random.Generator, m: int, n_zeros: int = 0) -> SimplexPoint:
    """Random interior point, optionally with exactly n_zeros zero coordinates."""
    w = rng.exponential(size=m) + 1e-3
    if n_zeros:
        dead = rng.choice(m, size=min(n_zeros, m - 1), replace=False)
        w[dead] = 0.0
    return SimplexPoint(w / w.sum())


def rand_tensor(rng: np.random.Generator, m: int) -> QsoTensor:
    return validate(rng.random((m, m, m)), mode="normalize")


def rand_skew(rng: np.random.Generator, m: int) -> SkewMatrix:
    r = rng.uniform(-1.0, 1.0, (m, m))
    return SkewMatrix(m, (r - r.T) / 2.0)


def rand_volterra_tensor(rng: np.random.Generator, m: int) -> QsoTensor:
    """Random Volterra operator, alternating two construction routes."""
    if rng.random() < 0.5:
        return from_canonical(rand_skew(rng, m))
    p = rng.random((m, m, m))
    p = (p + p.transpose(1, 0, 2)) / 2.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if k != i and k != j:
                    p[i, j, k] = 0.0
    p /= p.sum(axis=2, keepdims=True)
    return QsoTensor(m, p)


def rand_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    q = rng.random((n, n, n))
    q = (q + q.transpose(1, 0, 2)) / 2.0
    q /= q.sum(axis=2, keepdims=True)
    return FiniteKernel(n, q)


def rand_volterra_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    q = rng.random((n, n, n))
    q = (q + q.transpose(1, 0, 2)) / 2.0
    for x in range(n):
        for y in range(n):
            for k in range(n):
                if k != x and k != y:
                    q[x, y, k] = 0.0
    q /= q.sum(axis=2, keepdims=True)
    return FiniteKernel(n, q)


def rand_measure(rng: np.random.Generator, n: int, n_zeros: int = 0) -> DiscreteMeasure:
    w = rng.exponential(size=n) + 1e-3
    if n_zeros:
        dead = rng.choice(n, size=min(n_zeros, n - 1), replace=False)
        w[dead] = 0.0
    return DiscreteMeasure(w / w.sum())


def family_polynomial(family: int, a: float, b: float, g: float, v) -> np.ndarray:
    """Oracle: the displayed image polynomials of the six OP families."""
    x, y, z = v
    if family == 1:
        return np.array([
            z * z + 2 * g * x * z + 2 * b * y * z,
            y * y + 2 * a * x * y + 2 * (1 - b) * y * z,
            x * x + 2 * (1 - a) * x * y + 2 * (1 - g) * x * z,
        ])
    if family == 2:
        return np.array([
            x * x + 2 * a * x * y + 2 * g * x * z,
            y * y + 2 * (1 - a) * x * y + 2 * b * y * z,
            z * z + 2 * (1 - g) * x * z + 2 * (1 - b) * y * z,
        ])
    if family == 3:
        return np.array([
            x * x + 2 * a * x * y + 2 * g * x * z,
            z * z + 2 * (1 - g) * x * z + 2 * b * y * z,
            y * y + 2 * (1 - a) * x * y + 2 * (1 - b) * y * z,
        ])
    if family == 4:
        return np.array([
            y * y + 2 * a * x * y + 2 * b * y * z,
            z * z + 2 * g * x * z + 2 * (1 - b) * y * z,
            x * x + 2 * (1 - a) * x * y + 2 * (1 - g) * x * z,
        ])
    if family == 5:
        return np.array([
            y * y + 2 * a * x * y + 2 * b * y * z,
            x * x + 2 * (1 - a) * x * y + 2 * g * x * z,
            z * z + 2 * (1 - g) * x * z + 2 * (1 - b) * y * z,
        ])
    if family == 6:
        return np.array([
            z * z + 2 * g * x * z + 2 * b * y * z,
            x * x + 2 * a * x * y + 2 * (1 - g) * x * z,
            y * y + 2 * (1 - a) * x * y + 2 * (1 - b) * y * z,
        ])
    raise ValueError(family)


def product_loops(p: np.ndarray, x, y) -> np.ndarray:
    """Oracle: the algebra product computed with plain nested loops."""
    m = p.shape[0]
    out = np.zeros(m)
    for k in range(m):
        acc = 0.0
        for i in range(m):
            for j in range(m):
                acc += p[i, j, k] * x[i] * y[j]
        out[k] = acc
    return out


def canonical_image(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Oracle: coordinates x_k * (1 + sum_i a[k, i] x_i)."""
    return x * (1.0 + a @ x)


def reference_iterate(V: QsoTensor, x0: SimplexPoint, max_iter: int, tol: float,
                      window: int = 64) -> Trajectory:
    """Oracle: iteration with one max-norm test per lag, smallest lag first."""
    points = [x0]
    for t in range(1, max_iter + 1):
        nxt = apply(V, points[-1])
        points.append(nxt)
        if np.abs(nxt.coords - points[-2].coords).max() <= tol:
            return Trajectory(points, "converged", None, t)
        for dist in range(2, min(window, t) + 1):
            if np.abs(nxt.coords - points[t - dist].coords).max() <= tol:
                return Trajectory(points, "cycle", dist, t)
    return Trajectory(points, "budget_exhausted", None, max_iter)
