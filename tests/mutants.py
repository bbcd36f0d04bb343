"""Mutation check: does the suite notice small breaks of the code it guards?

    python tests/mutants.py

A mutant is one exact text, found exactly once in one file under ``src``,
with its replacement, and the test files that should notice it. Each runs
on a fresh copy of ``src``, ``tests`` and ``pyproject.toml`` in a temporary
directory (the working tree is never edited): pytest stops at the first
failure, with a fixed hypothesis seed. A failing run kills the mutant.

One line per mutant gives killed or survived and the run time. A mutant
tagged ``equivalent`` (with its reason) behaves like the code it mutates,
so it is expected to survive. The exit status is 0 when every untagged
mutant is killed and every tagged one survives, else 1. A change that adds
a predicate adds its mutants here. The name has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qso
    old: str
    new: str
    tests: tuple[str, ...]  # under tests
    equivalent: str = ""  # why it cannot change behaviour, if it cannot


MUTANTS = [
    # stochastic slices as a QsoTensor invariant
    Mutant("slice check dropped", "core.py",
           "        _check_slices(sums, EPS_VAL)\n", "",
           ("test_core.py",)),
    Mutant("slice check > becomes >=", "core.py",
           "    if not worst <= eps:\n", "    if not worst < eps:\n",
           ("test_core.py",)),
    Mutant("slice check on i <= j only", "core.py",
           "    off = np.abs(sums - 1.0)\n", "    off = np.abs(np.triu(sums - 1.0))\n",
           ("test_core.py",),
           equivalent="slices are exactly symmetric before they are summed, so the "
                      "mirror of a slice has the same sum, and the first worst slice "
                      "in C order already has i <= j"),
    Mutant("slice check on i < j only", "core.py",
           "    off = np.abs(sums - 1.0)\n", "    off = np.abs(np.triu(sums - 1.0, 1))\n",
           ("test_core.py",)),
    Mutant("slice check at EPS_SUPP", "core.py",
           "        _check_slices(sums, EPS_VAL)\n",
           "        _check_slices(sums, EPS_SUPP)\n",
           ("test_core.py",)),
    Mutant("validate rescale condition inverted", "core.py",
           "    if worst > EPS_VAL:\n        sym /=", "    if not worst > EPS_VAL:\n        sym /=",
           ("test_core.py",)),
    Mutant("validate rescale skipped", "core.py",
           "        sym /= sums[:, :, None]\n", "        pass\n",
           ("test_core.py",)),
    Mutant("strict validate never rescales", "core.py",
           "    if worst > EPS_VAL:\n        sym /=", "    if mode == \"normalize\":\n        sym /=",
           ("test_core.py",)),
    Mutant("clamped sums not re-read", "core.py",
           "        if mode == \"strict\":\n            worst = np.abs(sums - 1.0).max()\n", "",
           ("test_core.py",)),
    Mutant("empty slice rescaled at eps = 1", "core.py",
           "    if worst >= 1.0 and sums.min() <= 0.0:\n",
           "    if worst > 1.0 and sums.min() <= 0.0:\n",
           ("test_core.py",)),
    Mutant("zero-sum point let through at eps >= 1", "core.py",
           "    if abs(total - 1.0) > eps or total == 0.0:", "    if abs(total - 1.0) > eps:",
           ("test_core.py",)),
    # the stop scan of iterate
    Mutant("sorted-gap reject > becomes >=", "dynamics.py",
           "        if ((seen[:, 1:] - seen[:, :-1]) <= tol).any(axis=1).all():\n",
           "        if ((seen[:, 1:] - seen[:, :-1]) < tol).any(axis=1).all():\n",
           ("test_dynamics.py",)),
    Mutant("lag one test widened", "dynamics.py",
           "                if lag == 1:\n", "                if lag <= 1:\n",
           ("test_dynamics.py",),
           equivalent="a lag is a distance back in the window, so it is at least one"),
    Mutant("iterations off by one", "dynamics.py",
           "        return len(self.coords) - 1\n", "        return len(self.coords)\n",
           ("test_dynamics.py",)),
    Mutant("float step term cap at 64", "dynamics.py",
           "_FLOAT_MAX_TERMS = 56\n", "_FLOAT_MAX_TERMS = 64\n",
           ("test_dynamics.py",)),
    # the sparse step: the einsum's products, in its order, into a new array
    Mutant("sparse products as c * (x_i * x_j)", "dynamics.py",
           "c * x[i] * x[j]", "c * (x[i] * x[j])",
           ("test_dynamics.py",)),
    Mutant("sparse nonzeros in reverse order", "dynamics.py",
           "    flat = np.flatnonzero(p)\n    i, jk", "    flat = np.flatnonzero(p)[::-1]\n    i, jk",
           ("test_dynamics.py",)),
    Mutant("sparse image not divided by its sum", "dynamics.py",
           "        out /= np.add.reduce(out)\n        return out\n", "        return out\n",
           ("test_dynamics.py",)),
    Mutant("sparse bincount without minlength", "dynamics.py",
           ", minlength=m)", ")",
           ("test_dynamics.py",)),
    Mutant("sparse step reuses one output array", "dynamics.py",
           "        out /= np.add.reduce(out)\n        return out\n",
           "        out /= np.add.reduce(out)\n"
           "        held = step.__dict__.setdefault(\"held\", out)\n"
           "        held[...] = out\n"
           "        return held\n",
           ("test_dynamics.py",)),
    Mutant("sparse rule inverted", "dynamics.py",
           "    if _SPARSE_SHARE * n <= m ** 3:\n", "    if _SPARSE_SHARE * n > m ** 3:\n",
           ("test_dynamics.py",)),
    # vertex fixed points read off the diagonal
    Mutant("fixed-point images not divided", "dynamics.py",
           "    images = diag / diag.sum(axis=1, keepdims=True)\n", "    images = diag\n",
           ("test_dynamics.py",)),
    Mutant("fixed-point <= becomes <", "dynamics.py",
           "    fixed = np.abs(images - np.eye(V.m)).max(axis=1) <= tol\n",
           "    fixed = np.abs(images - np.eye(V.m)).max(axis=1) < tol\n",
           ("test_dynamics.py",)),
    # verdicts at their tolerance
    Mutant("is_volterra <= becomes <", "volterra.py",
           "    return bool(_forbidden_max(V.p) <= eps)\n",
           "    return bool(_forbidden_max(V.p) < eps)\n",
           ("test_volterra.py",)),
    Mutant("certificate probe level at eps = 1/2", "volterra.py",
           "0.0 if eps < 0.5 else", "0.0 if eps <= 0.5 else",
           ("test_volterra.py",)),
    Mutant("classify residual > becomes >=", "orthopreserve.py",
           "    if residual > eps:\n", "    if residual >= eps:\n",
           ("test_orthopreserve.py",)),
    # the associator residual as commutators [P_i, P_k], i < k
    Mutant("commutator pairs stop one short", "algebra.py",
           "    for i in range(m - 1):\n", "    for i in range(m - 2):\n",
           ("test_algebra.py",)),
    Mutant("commutator partners start at i + 2", "algebra.py",
           "        gap = P[:, i:i + 1] @ P[:, i + 1:]\n"
           "        gap -= P[:, i + 1:] @ P[:, i:i + 1]\n",
           "        gap = P[:, i:i + 1] @ P[:, i + 2:]\n"
           "        gap -= P[:, i + 2:] @ P[:, i:i + 1]\n",
           ("test_algebra.py",)),
    Mutant("commutator running max becomes an assignment", "algebra.py",
           "        np.maximum(worst, np.abs(gap, out=gap).reshape(n, -1).max(axis=1), out=worst)\n",
           "        worst = np.abs(gap, out=gap).reshape(n, -1).max(axis=1)\n",
           ("test_algebra.py",)),
    Mutant("commutator gap without its absolute value", "algebra.py",
           "np.abs(gap, out=gap).reshape(n, -1).max(axis=1), out=worst)",
           "gap.reshape(n, -1).max(axis=1), out=worst)",
           ("test_algebra.py",)),
    Mutant("is_associative <= becomes <", "algebra.py",
           "    return associator_residual(V) <= eps\n",
           "    return associator_residual(V) < eps\n",
           ("test_algebra.py",)),
    Mutant("product operands not checked for finiteness", "algebra.py",
           "    if not np.isfinite(v).all():\n", "    if False:\n",
           ("test_algebra.py",)),
    # size caps and exit-2 guards
    Mutant("payload size cap raised", "serialize.py",
           "MAX_DIMENSION = 200\n", "MAX_DIMENSION = 201\n",
           ("test_golden.py",)),
    Mutant("kernel oracle cap raised", "kernel.py",
           "_ORACLE_MAX_ATOMS = 12\n", "_ORACLE_MAX_ATOMS = 13\n",
           ("test_kernel.py",)),
    Mutant("refute grid cap raised", "algebra.py",
           "_REFUTE_MAX_AXIS = 201\n", "_REFUTE_MAX_AXIS = 202\n",
           ("test_algebra.py",)),
    Mutant("positive tolerance admits zero", "core.py",
           "(value > 0 if positive else value >= 0)", "(value >= 0 if positive else value >= 0)",
           ("test_core.py",)),
    Mutant("--max-iter cap off by one", "cli.py",
           "    if args.max_iter is not None and args.max_iter > MAX_ITER:\n",
           "    if args.max_iter is not None and args.max_iter > MAX_ITER + 1:\n",
           ("test_cli.py", "test_golden.py")),
]


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) for one mutant on a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="qso-mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        path = tmp / "src" / "qso" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the text to replace occurs "
                             f"{text.count(mutant.old)} times in {mutant.file}, not once")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *(f"tests/{t}" for t in mutant.tests)]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        return done.returncode != 0, time.perf_counter() - start


def main() -> int:
    wrong = 0
    for mutant in MUTANTS:
        killed, seconds = run(mutant)
        verdict = "killed" if killed else "survived"
        if mutant.equivalent:
            verdict += " (equivalent: " + mutant.equivalent + ")"
        ok = killed != bool(mutant.equivalent)
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {verdict} in {seconds:.1f} s",
              flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
