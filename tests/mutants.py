"""Mutation check: does the suite notice small breaks of the code it guards?

    python tests/mutants.py                      # every mutant
    python tests/mutants.py conjugacy.py core.py # the mutants of these files

A mutant is one exact text, found exactly once in one file under ``src``,
with its replacement, and the test files that should notice it. Each runs
on a fresh copy of ``src``, ``tests`` and ``pyproject.toml`` in a temporary
directory (the working tree is never edited): pytest stops at the first
failure, with a fixed hypothesis seed. A failing run kills the mutant.

One line per mutant gives killed or survived and the run time. A mutant
tagged ``equivalent`` (with its reason) behaves like the code it mutates,
so it is expected to survive. The exit status is 0 when every untagged
mutant is killed and every tagged one survives, else 1. A change that adds
a predicate adds its mutants here. Arguments name files under ``src/qso``
and keep only their mutants; the exit status means the same for the
selection, and a file with no mutants is a usage error (status 2). The
name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
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
    # the stop scan of iterate: one coordinate whose smallest sorted gap
    # (the witness gap) exceeds tol rules the chunk out
    Mutant("sorted-gap reject > becomes >=", "dynamics.py",
           "            if np.minimum.reduce(np.subtract(seen[1:], seen[:-1])) > tol:\n",
           "            if np.minimum.reduce(np.subtract(seen[1:], seen[:-1])) >= tol:\n",
           ("test_dynamics.py",)),
    Mutant("real-column start one point late", "dynamics.py",
           "            seen = buf[k, start:end].copy()\n",
           "            seen = buf[k, start + 1:end].copy()\n",
           ("test_dynamics.py",)),
    Mutant("stop lag off by one", "dynamics.py",
           "                return r, size - int(np.flatnonzero(near[r])[-1])\n",
           "                return r, size + 1 - int(np.flatnonzero(near[r])[-1])\n",
           ("test_dynamics.py",)),
    Mutant("lag one test widened", "dynamics.py",
           "            if lag == 1:\n", "            if lag <= 1:\n",
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
           "        w = c * g[0]\n        w *= g[1]\n", "        w = g[0] * g[1]\n        w *= c\n",
           ("test_dynamics.py",)),
    Mutant("sparse nonzeros in reverse order", "dynamics.py",
           "    flat = np.flatnonzero(p)\n    i, jk", "    flat = np.flatnonzero(p)[::-1]\n    i, jk",
           ("test_dynamics.py",)),
    Mutant("sparse image not divided by its sum", "dynamics.py",
           "        out /= total(*out.tolist())\n        return out\n", "        return out\n",
           ("test_dynamics.py",)),
    Mutant("sparse bincount without minlength", "dynamics.py",
           "_bincount(k, w, m)", "_bincount(k, w)",
           ("test_dynamics.py",)),
    Mutant("sparse step reuses one output array", "dynamics.py",
           "        out /= total(*out.tolist())\n        return out\n",
           "        out /= total(*out.tolist())\n"
           "        held = step.__dict__.setdefault(\"held\", out)\n"
           "        held[...] = out\n"
           "        return held\n",
           ("test_dynamics.py",)),
    # the sparse step's sum: numpy's pairwise summation, written out
    Mutant("pairwise sum with its tail added first", "dynamics.py",
           "        return \" + \".join([tree, *names[full:]])\n",
           "        return \" + \".join([*names[full:], tree])\n",
           ("test_dynamics.py",)),
    Mutant("pairwise sum with four accumulators", "dynamics.py",
           "        r = [f\"({' + '.join(names[j:full:8])})\" for j in range(8)]\n"
           "        tree = f\"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + "
           "(({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))\"\n",
           "        r = [f\"({' + '.join(names[j:full:4])})\" for j in range(4)]\n"
           "        tree = f\"({r[0]} + {r[1]}) + ({r[2]} + {r[3]})\"\n",
           ("test_dynamics.py",)),
    Mutant("sparse rule inverted", "dynamics.py",
           "    if _SPARSE_SHARE * n <= m ** 3:\n", "    if _SPARSE_SHARE * n > m ** 3:\n",
           ("test_dynamics.py",)),
    # the runners: n images per call, each the image of the point before
    Mutant("array runner one step short", "dynamics.py",
           "        for _ in range(n):\n            x = step(x)\n",
           "        for _ in range(n - 1):\n            x = step(x)\n",
           ("test_dynamics.py",)),
    Mutant("float runner appends the point before the step", "dynamics.py",
           "        f\"            {xs} = {', '.join(f'{o} / t' for o in out)}\",\n"
           "        f\"            push(({xs}))\",\n",
           "        f\"            push(({xs}))\",\n"
           "        f\"            {xs} = {', '.join(f'{o} / t' for o in out)}\",\n",
           ("test_dynamics.py",)),
    # vertex fixed points read off the diagonal
    Mutant("fixed-point images not divided", "dynamics.py",
           "    images = diag / diag.sum(axis=1, keepdims=True)\n", "    images = diag\n",
           ("test_dynamics.py",)),
    Mutant("fixed-point <= becomes <", "dynamics.py",
           "    fixed = np.abs(images - np.eye(V.m)).max(axis=1) <= tol\n",
           "    fixed = np.abs(images - np.eye(V.m)).max(axis=1) < tol\n",
           ("test_dynamics.py",)),
    # the support rule: one probe mask in core under every verdict
    Mutant("probe mask admits the midpoint coordinates", "core.py",
           "    np.equal(twice, 0, out=twice.view(bool))\n",
           "    np.less_equal(twice, 1, out=twice.view(bool))\n",
           ("test_core.py",)),
    Mutant("OP test reads the vertex supports untransposed", "orthopreserve.py",
           "    reached = _probe_mask(3) @ supp.diagonal().T\n",
           "    reached = _probe_mask(3) @ supp.diagonal()\n",
           ("test_orthopreserve.py",)),
    Mutant("slot codes put t at the larger output", "orthopreserve.py",
           "        lo, hi = sorted((sigma[i], sigma[j]))\n",
           "        hi, lo = sorted((sigma[i], sigma[j]))\n",
           ("test_orthopreserve.py",)),
    Mutant("to_canonical reads p[i, k, k]", "volterra.py",
           "np.einsum(\"kik->ki\", V.p)", "np.einsum(\"kik->ik\", V.p)",
           ("test_volterra.py",)),
    Mutant("from_canonical halves 1 - a", "volterra.py",
           "    half = (1.0 + a.a) / 2.0\n", "    half = (1.0 - a.a) / 2.0\n",
           ("test_volterra.py",)),
    Mutant("witness threshold without its 2^-45 margin", "kernel.py",
           "np.where(size > 1, 1.0 + 2.0**-45, 1.0)", "np.where(size > 1, 1.0, 1.0)",
           ("test_kernel.py",)),
    Mutant("orbit drops the stop chunk's rows", "dynamics.py",
           "            orbit.extend(rows[: r + 1])\n", "",
           ("test_dynamics.py",)),
    Mutant("stop row kept one short", "dynamics.py",
           "orbit.extend(rows[: r + 1])", "orbit.extend(rows[: r])",
           ("test_dynamics.py",)),
    # verdicts at their tolerance
    Mutant("is_volterra <= becomes <", "volterra.py",
           "    eps = check_tol(\"eps\", eps)\n    return bool(_forbidden_max(V.p) <= eps)\n",
           "    eps = check_tol(\"eps\", eps)\n    return bool(_forbidden_max(V.p) < eps)\n",
           ("test_volterra.py",)),
    # one support threshold: Volterra implies OP, classified iff OP
    Mutant("certificate <= becomes <", "volterra.py",
           "positive=True)\n    return bool(_forbidden_max(V.p) <= eps)\n",
           "positive=True)\n    return bool(_forbidden_max(V.p) < eps)\n",
           ("test_volterra.py",)),
    Mutant("OP default back at EPS_SUPP", "orthopreserve.py",
           "eps_supp: float = EPS_VAL) -> bool:", "eps_supp: float = 1e-12) -> bool:",
           ("test_support_rule.py",)),
    Mutant("classify zero-slot > becomes >=", "orthopreserve.py",
           "    if worst > eps:\n", "    if worst >= eps:\n",
           ("test_orthopreserve.py",)),
    Mutant("zero-slot getter misses one diagonal entry", "orthopreserve.py",
           "enumerate(codes) if c == 0)", "enumerate(codes) if c == 0 and n != 1)",  # p[0, 0, 1]
           ("test_support_rule.py",)),
    # the S^2 sweep's fast paths: the exact-diagonal lookup, the clamp, the
    # cached inverse gather and the small-tensor encoder
    Mutant("diagonal lookup built with shifted images", "orthopreserve.py",
           "sum((_VERTICES[s - 1] for s in images), ())", "sum((_VERTICES[s % 3] for s in images), ())",
           ("test_orthopreserve.py",)),
    Mutant("clamp loses its upper bound", "orthopreserve.py",
           "    b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b\n", "    b = 0.0 if b < 0.0 else b\n",
           ("test_orthopreserve.py",)),
    Mutant("gather index built from sigma, not its inverse", "conjugacy.py",
           "    inv[list(sigma)] = np.arange(m)\n", "    inv[:] = sigma\n",
           ("test_conjugacy.py",)),
    Mutant("1-based permutation error shown 0-based", "conjugacy.py",
           "        if sorted(sigma) != list(range(1, len(sigma) + 1)):\n", "        if False:\n",
           ("test_conjugacy.py",)),
    Mutant("small-tensor encoder keeps zeros", "serialize.py",
           "if (v := q[n]) != 0.0", "if (v := q[n]) >= 0.0",
           ("test_serialize.py",)),
    # the small-tensor decoder: one flat list, and validate skipped when clean
    Mutant("small decoder drops the mirror write", "serialize.py",
           "            flat[slot] = flat[mirror[slot]] = v\n", "            flat[slot] = v\n",
           ("test_serialize.py",)),
    Mutant("decoder duplicate check dropped", "serialize.py",
           "        if slot in values:\n", "        if False:\n",
           ("test_serialize.py",)),
    Mutant("clean test without its sign test", "serialize.py",
           "    if m < 2 or not min(flat) >= 0.0:\n", "    if m < 2:\n",
           ("test_serialize.py",)),
    Mutant("clean test without its slice sums", "serialize.py",
           "    return all(lo <= sum(flat[s]) <= hi for s in _upper_slices(m))\n",
           "    return True\n",
           ("test_serialize.py",)),
    # the decoder's field checks and the emitter's escaping
    Mutant("payload field check reads a missing key", "serialize.py",
           "    if not isinstance(obj, dict) or key not in obj:\n",
           "    if not isinstance(obj, dict):\n",
           ("test_serialize.py",)),
    Mutant("coefficient type check lets text through", "serialize.py",
           "                if type(v) is not int:\n", "                if type(v) is bool:\n",
           ("test_serialize.py",)),
    Mutant("string escaping skipped", "serialize.py",
           "    if t is str:\n        return _fmt_str(obj)\n",
           "    if t is str:\n        return '\"' + obj + '\"'\n",
           ("test_serialize.py",)),
    Mutant("record template does not double %", "serialize.py",
           '_fmt_str(key).replace("%", "%%")', "_fmt_str(key)",
           ("test_serialize.py",)),
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
    Mutant("tolerance returned unconverted", "core.py",
           "    return tol\n", "    return value\n",
           ("test_core.py",)),
    Mutant("positive tolerance admits zero", "core.py",
           "(tol > 0 if positive else tol >= 0)", "(tol >= 0 if positive else tol >= 0)",
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutants, or those of the named files.")
    parser.add_argument("files", nargs="*", help="files under src/qso, e.g. conjugacy.py")
    files = parser.parse_args(argv).files
    unknown = sorted(set(files) - {mutant.file for mutant in MUTANTS})
    if unknown:
        parser.error(f"no mutants in {', '.join(unknown)}")
    chosen = [mutant for mutant in MUTANTS if not files or mutant.file in files]
    wrong = 0
    for mutant in chosen:
        killed, seconds = run(mutant)
        verdict = "killed" if killed else "survived"
        if mutant.equivalent:
            verdict += " (equivalent: " + mutant.equivalent + ")"
        ok = killed != bool(mutant.equivalent)
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {verdict} in {seconds:.1f} s",
              flush=True)
    print(f"{len(chosen) - wrong} of {len(chosen)} as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
