"""Digests of ``qso.iterate`` orbits, one sha256 per case family.

    PYTHONPATH=src python tests/orbit_hashes.py

A family is (m, operator kind, window, tol). Each case adds its status,
cycle length, iteration count and the bytes of every point to its
family's hash, or the type and text of the error it raised. The cases
are the benchmark's ``orbits`` mix (OP families 1, 2 and 4, the
heteroclinic m = 3 operator and m = 10 Volterra operators, budget 500,
tol 1e-10) plus random operators at m = 3..10 with windows 0, 1, 64 and
1000, and orbits that leave the simplex and raise ``InvalidPoint`` after
several chunks. Two checkouts that print the same lines iterate these
orbits bit for bit alike. The name has no ``test_`` prefix, so pytest
does not collect it.
"""

from __future__ import annotations

import hashlib

import numpy as np

import qso
from qso.errors import QsoError

HETEROCLINIC = qso.from_canonical(
    qso.SkewMatrix(3, 0.05 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])))


def skew(rng, m: int, scale: float = 1.0) -> qso.SkewMatrix:
    r = rng.uniform(-1.0, 1.0, (m, m))
    return qso.SkewMatrix(m, scale * (r - r.T) / 2.0)


def generic(rng, m: int) -> qso.QsoTensor:
    """Dense operator: Dirichlet slices, symmetrized (exactly symmetric, sums 1 within eps)."""
    d = rng.dirichlet(np.ones(m), size=(m, m))
    return qso.QsoTensor(m, (d + d.transpose(1, 0, 2)) / 2.0)


def leaving(m: int, start: float) -> tuple[qso.QsoTensor, qso.SimplexPoint]:
    """A Volterra operator whose last species about doubles each step from ``start``.

    Its slice (m, m) sums to 1.5, so an image sums to 1 + x_m^2 / 2 and
    leaves the simplex once x_m passes ~4.5e-5.
    """
    a = np.zeros((m, m))
    a[-1, :-1], a[:-1, -1] = 1.0, -1.0
    a[0, 1:-1], a[1:-1, 0] = 0.3, -0.3
    p = qso.from_canonical(qso.SkewMatrix(m, a)).p.copy()
    p[-1, -1] *= 1.5
    x = np.full(m, (1.0 - start) / (m - 1))
    x[-1] = start
    return qso.QsoTensor(m, p), qso.SimplexPoint(x)


def cases():
    """(family, V, x0, budget, tol, window) in a fixed order."""
    rng = np.random.default_rng(20261019)

    def start(m):
        return qso.SimplexPoint(rng.dirichlet(np.ones(m)))

    # the benchmark's orbits mix
    for _ in range(8):
        for family in (1, 2, 4):
            V = qso.op_family(qso.OpFamilySpec(family, *rng.random(3)))
            yield (3, f"fam{family}", 64, 1e-10), V, start(3), 500, 1e-10, 64
        yield (3, "hetero", 64, 1e-10), HETEROCLINIC, start(3), 500, 1e-10, 64
        yield (10, "volterra", 64, 1e-10), qso.from_canonical(skew(rng, 10)), start(10), 500, \
            1e-10, 64
    # OP families, whose orbits often cycle, under other windows
    for window in (0, 2, 1000):
        for family in (1, 4):
            for _ in range(4):
                V = qso.op_family(qso.OpFamilySpec(family, *rng.random(3)))
                yield (3, f"fam{family}", window, 1e-10), V, start(3), 500, 1e-10, window
    # random operators, float step (m <= 7, few terms) and einsum alike
    for m in range(3, 11):
        for window in (0, 1, 64, 1000):
            for tol in (1e-10, 1e-3):
                for _ in range(2):
                    slow = qso.from_canonical(skew(rng, m, 0.05))
                    yield (m, "volterra", window, tol), slow, start(m), 300, tol, window
                    yield (m, "generic", window, tol), generic(rng, m), start(m), 300, tol, window
    # orbits that raise InvalidPoint in their 3rd to 5th chunk
    for m in (3, 5, 8):
        for s in (1e-12, 1e-20, 1e-30):
            V, x0 = leaving(m, s)
            yield (m, "leaving", 64, 1e-300), V, x0, 500, 1e-300, 64


def digests() -> dict:
    hashes = {}
    for family, V, x0, budget, tol, window in cases():
        h = hashes.setdefault(family, hashlib.sha256())
        try:
            traj = qso.iterate(V, x0, max_iter=budget, tol=tol, window=window)
        except QsoError as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        h.update(f"{traj.status} {traj.cycle_length} {traj.iterations}\n".encode())
        for pt in traj.points:
            h.update(pt.coords.tobytes())
    return hashes


def main() -> None:
    for (m, kind, window, tol), h in digests().items():
        print(f"m={m} {kind} window={window} tol={tol:g} {h.hexdigest()}")


if __name__ == "__main__":
    main()
