"""Digests of ``qso.iterate`` orbits, one sha256 per case family.

    python tests/orbit_hashes.py

A family is (m, operator kind, window, tol). Each case builds its
operator and iterates it; it adds its status, cycle length, iteration
count and the bytes of every point to its family's hash, or the type and
text of the error that building or iterating raised. The cases are the
benchmark's ``orbits`` mix (OP families 1, 2 and 4, the heteroclinic
m = 3 operator and m = 10 Volterra operators, budget 500, tol 1e-10)
plus random operators at m = 3..10 with windows 0, 1, 64 and 1000,
Volterra arrays with one slice summing to 1.5, whose orbits would leave
the simplex and which the tensor constructor refuses, and operators that
take the sparse step (Volterra at m = 12, 20 and 40, OP at m = 12 and
20, a random sparse operator at m = 16) with windows 1 and 64. Two
checkouts that print the same lines iterate these orbits bit for bit
alike. The name has no ``test_`` prefix, so pytest does not collect it.

``golden/orbit_hashes.txt`` holds the 153 lines, and
``tests/test_golden.py`` recomputes and compares them. Rewrite the file
(``python tests/orbit_hashes.py > tests/golden/orbit_hashes.txt``) only
for an orbit change that CHANGES.md names, never to make a difference go
away.
"""

from __future__ import annotations

import hashlib
import sys
from functools import partial
from pathlib import Path

import numpy as np

# the checkout's own qso, wherever the script is started from
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qso  # noqa: E402
from qso.errors import QsoError  # noqa: E402

HETEROCLINIC = qso.SkewMatrix(3, 0.05 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))


def skew(rng, m: int, scale: float = 1.0) -> qso.SkewMatrix:
    r = rng.uniform(-1.0, 1.0, (m, m))
    return qso.SkewMatrix(m, scale * (r - r.T) / 2.0)


def generic(rng, m: int) -> partial:
    """Dense operator: Dirichlet slices, symmetrized (exactly symmetric, sums 1 within eps)."""
    d = rng.dirichlet(np.ones(m), size=(m, m))
    return partial(qso.QsoTensor, m, (d + d.transpose(1, 0, 2)) / 2.0)


def leaving(m: int, start: float) -> tuple[partial, qso.SimplexPoint]:
    """A Volterra array whose last species would about double each step from ``start``.

    Its slice (m, m) sums to 1.5, so an image would sum to 1 + x_m^2 / 2
    and leave the simplex once x_m passed ~4.5e-5; the constructor refuses
    it.
    """
    a = np.zeros((m, m))
    a[-1, :-1], a[:-1, -1] = 1.0, -1.0
    a[0, 1:-1], a[1:-1, 0] = 0.3, -0.3
    p = qso.from_canonical(qso.SkewMatrix(m, a)).p.copy()
    p[-1, -1] *= 1.5
    x = np.full(m, (1.0 - start) / (m - 1))
    x[-1] = start
    return partial(qso.QsoTensor, m, p), qso.SimplexPoint(x)


def op(a: qso.SkewMatrix, sigma: np.ndarray) -> qso.QsoTensor:
    """OP operator: the Volterra operator of ``a`` with its outputs permuted by ``sigma``."""
    return qso.QsoTensor(a.m, qso.from_canonical(a).p[:, :, sigma])


def sparse(rng, m: int, share: float) -> partial:
    """Random operator whose slices hold their max(i, j) output and about ``share`` of the rest."""
    keep = rng.random((m, m, m)) < share
    keep |= keep.transpose(1, 0, 2)
    i, j = np.indices((m, m))
    keep[i, j, np.maximum(i, j)] = True
    return partial(qso.validate, rng.random((m, m, m)) * keep, mode="normalize")


def face(rng, m: int) -> qso.SimplexPoint:
    """A random start with a third of its coordinates zero."""
    x = rng.dirichlet(np.ones(m))
    x[rng.permutation(m)[: m // 3]] = 0.0
    return qso.SimplexPoint(x / x.sum())


def cases():
    """(family, build, x0, budget, tol, window) in a fixed order; ``build()`` is the operator.

    Every random draw is made here, in this order, so a builder only
    assembles what it was given.
    """
    rng = np.random.default_rng(20261019)

    def start(m):
        return qso.SimplexPoint(rng.dirichlet(np.ones(m)))

    def family_member(family):
        return partial(qso.op_family, qso.OpFamilySpec(family, *rng.random(3)))

    # the benchmark's orbits mix
    for _ in range(8):
        for family in (1, 2, 4):
            yield (3, f"fam{family}", 64, 1e-10), family_member(family), start(3), 500, 1e-10, 64
        yield (3, "hetero", 64, 1e-10), partial(qso.from_canonical, HETEROCLINIC), start(3), \
            500, 1e-10, 64
        yield (10, "volterra", 64, 1e-10), partial(qso.from_canonical, skew(rng, 10)), \
            start(10), 500, 1e-10, 64
    # OP families, whose orbits often cycle, under other windows
    for window in (0, 2, 1000):
        for family in (1, 4):
            for _ in range(4):
                yield (3, f"fam{family}", window, 1e-10), family_member(family), start(3), 500, \
                    1e-10, window
    # random operators, float step (m <= 7, few terms) and einsum alike
    for m in range(3, 11):
        for window in (0, 1, 64, 1000):
            for tol in (1e-10, 1e-3):
                for _ in range(2):
                    slow = partial(qso.from_canonical, skew(rng, m, 0.05))
                    yield (m, "volterra", window, tol), slow, start(m), 300, tol, window
                    yield (m, "generic", window, tol), generic(rng, m), start(m), 300, tol, window
    # arrays whose orbits would leave the simplex in their 3rd to 5th chunk
    for m in (3, 5, 8):
        for s in (1e-12, 1e-20, 1e-30):
            build, x0 = leaving(m, s)
            yield (m, "leaving", 64, 1e-300), build, x0, 500, 1e-300, 64
    # operators past the float step with at most m^3 / 4 nonzeros, which step
    # over their nonzeros: Volterra, OP (Volterra with permuted outputs) and
    # a random sparse operator; starts with zero coordinates among them
    for window in (1, 64):
        for _ in range(3):
            for m in (12, 20, 40):
                slow = partial(qso.from_canonical, skew(rng, m, 0.05))
                yield (m, "volterra", window, 1e-10), slow, start(m), 300, 1e-10, window
            for m in (12, 20):
                build = partial(op, skew(rng, m), rng.permutation(m))
                yield (m, "op", window, 1e-10), build, face(rng, m), 300, 1e-10, window
            yield (16, "sparse", window, 1e-10), sparse(rng, 16, 0.1), start(16), 300, 1e-10, \
                window


def digests() -> dict:
    hashes = {}
    for family, build, x0, budget, tol, window in cases():
        h = hashes.setdefault(family, hashlib.sha256())
        try:
            traj = qso.iterate(build(), x0, max_iter=budget, tol=tol, window=window)
        except QsoError as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        h.update(f"{traj.status} {traj.cycle_length} {traj.iterations}\n".encode())
        for pt in traj.points:
            h.update(pt.coords.tobytes())
    return hashes


def lines() -> list[str]:
    """One line per family: its key and the hex digest of its cases."""
    return [f"m={m} {kind} window={window} tol={tol:g} {h.hexdigest()}"
            for (m, kind, window, tol), h in digests().items()]


def main() -> None:
    print("\n".join(lines()))


if __name__ == "__main__":
    main()
