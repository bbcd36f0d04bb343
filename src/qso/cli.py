"""Command-line interface for the qso toolkit.

Usage examples:

    qso validate --op tensor.json
    qso apply --op tensor.json --x0 0.2,0.3,0.5
    qso volterra check --op tensor.json
    qso volterra canonical --op tensor.json --out skew.json
    qso op build --family 1 --alpha 0.3 --beta 0.6 --gamma 0.9 --out v1.json
    qso op classify --op v1.json --json
    qso op conjugate --op v1.json --perm 2,3,1
    qso algebra refute --family 1 --step 0.05 --json
    qso kernel oracle --op kernel.json
    qso dyn iterate --op v1.json --x0 0.7,0.1,0.2 --max-iter 1000 --out traj.csv

``-`` as a file argument reads from standard input. Exit codes: 0 for
success (and for checks that hold), 1 for checks that fail, 2 for input
or validation errors, 141 when the reader closes standard output early
(as ``| head`` does; 128 + SIGPIPE, what a shell reports for a writer
killed by that signal). With ``--json`` all output is deterministic: keys
sorted, floats at 17 significant digits.

``dyn iterate --max-iter`` is capped at ``MAX_ITER``, and a larger count
exits 2 with ``TooLarge``; the library's ``iterate`` takes any count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import algebra, conjugacy, dynamics, kernel, orthopreserve, serialize, volterra
from .core import EPS_VAL, SimplexPoint, apply
from .errors import QsoError, TooLarge

EXIT_BROKEN_PIPE = 141

#: Largest ``dyn iterate --max-iter``. The orbit keeps every point, ~187 B
#: each at m = 3 and ~243 B at m = 10 (tracemalloc), so an orbit that never
#: stops holds ~190-250 MB at the cap; at m = 3 such a call runs ~2.8 s
#: with a peak RSS of ~231 MB (README).
MAX_ITER = 1_000_000


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise QsoError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise QsoError(f"cannot read {path}: {exc}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise QsoError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _load_tensor(args, mode: str = "strict"):
    return serialize.tensor_from_obj(_read_json(args.op), mode=mode)


def _write_or_print(args, obj, human: str) -> None:
    text = serialize.dumps(obj)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
        return
    print(text if args.json else human)


def _tensor_human(V) -> str:
    lines = [f"m = {V.m}; nonzero entries (i <= j):"]
    for ent in serialize.tensor_to_obj(V)["entries"]:
        lines.append(f"  p[{ent['i']},{ent['j']},{ent['k']}] = {ent['p']:.17g}")
    return "\n".join(lines)


def _fmt_point(coords) -> str:
    return "(" + ", ".join(format(c, ".12g") for c in coords) + ")"


def _verdict(args, key: str, verdict: bool, label: str | None = None) -> int:
    """Print ``{key: verdict}`` or ``label: verdict``; the exit code is 0 iff it holds."""
    _write_or_print(args, {key: verdict}, f"{label or key}: {str(verdict).lower()}")
    return 0 if verdict else 1


# ---------------------------------------------------------------- commands


def cmd_validate(args) -> int:
    V = _load_tensor(args, mode=args.mode)
    _write_or_print(args, {"m": V.m, "valid": True}, f"valid: m = {V.m}")
    return 0


def cmd_apply(args) -> int:
    V = _load_tensor(args)
    x = SimplexPoint(_parse_floats(args.x0))
    y = apply(V, x)
    _write_or_print(args, serialize.point_to_obj(y), f"image: {_fmt_point(y.coords)}")
    return 0


def cmd_volterra_check(args) -> int:
    return _verdict(args, "volterra", volterra.is_volterra(_load_tensor(args)))


def cmd_volterra_canonical(args) -> int:
    if args.skew:
        a = serialize.skew_from_obj(_read_json(args.skew))
        V = volterra.from_canonical(a)
        _write_or_print(args, serialize.tensor_to_obj(V), _tensor_human(V))
        return 0
    V = _load_tensor(args)
    a = volterra.to_canonical(V)
    rows = "\n".join("  " + _fmt_point(row) for row in a.a)
    _write_or_print(args, serialize.skew_to_obj(a), f"canonical parameters:\n{rows}")
    return 0


def cmd_volterra_certificate(args) -> int:
    return _verdict(args, "certificate", volterra.volterra_certificate(_load_tensor(args)))


def cmd_op_build(args) -> int:
    spec = orthopreserve.OpFamilySpec(args.family, args.alpha, args.beta, args.gamma)
    V = orthopreserve.op_family(spec)
    _write_or_print(args, serialize.tensor_to_obj(V), _tensor_human(V))
    return 0


def cmd_op_check(args) -> int:
    verdict = orthopreserve.is_orthogonality_preserving(_load_tensor(args))
    return _verdict(args, "orthogonality_preserving", verdict, "orthogonality-preserving")


def cmd_op_classify(args) -> int:
    spec = orthopreserve.classify_op(_load_tensor(args))
    human = (
        f"family {spec.family}: alpha = {spec.alpha:.12g}, "
        f"beta = {spec.beta:.12g}, gamma = {spec.gamma:.12g}"
    )
    _write_or_print(args, serialize.spec_to_obj(spec), human)
    return 0


def cmd_op_conjugate(args) -> int:
    V = _load_tensor(args)
    perm = conjugacy.Permutation.from_one_based(_parse_floats(args.perm))
    W = conjugacy.conjugate(V, perm)
    _write_or_print(args, serialize.tensor_to_obj(W), _tensor_human(W))
    return 0


def cmd_op_classes(args) -> int:
    classes = conjugacy.conjugacy_classes()
    as_lists = [sorted(c) for c in classes]
    human = "classes: " + " | ".join("{" + ",".join(map(str, c)) + "}" for c in as_lists)
    _write_or_print(args, as_lists, human)
    return 0


def cmd_algebra_check(args) -> int:
    return _verdict(args, "associative", algebra.is_associative(_load_tensor(args), eps=args.tol))


def cmd_algebra_residual(args) -> int:
    V = _load_tensor(args)
    r = algebra.associator_residual(V)
    _write_or_print(args, {"residual": r}, f"associator residual: {r:.17g}")
    return 0


def cmd_algebra_solve_v2(args) -> int:
    solutions = sorted(algebra.assoc_solutions_v2())
    disagreements = []
    for corner in ((a, b, g) for a in (0.0, 1.0) for b in (0.0, 1.0) for g in (0.0, 1.0)):
        by_system = bool(np.abs(algebra.v2_condition_system(*corner)).max() <= algebra.EPS_ASSOC)
        if by_system != (corner in solutions):
            disagreements.append(corner)
    lines = ["associative family-2 corners:"]
    lines += [f"  alpha={a:g} beta={b:g} gamma={g:g}" for a, b, g in solutions]
    if disagreements:
        joined = ", ".join(str(tuple(map(float, d))) for d in disagreements)
        lines.append(f"reduced-system disagreements (see algebra module docs): {joined}")
    _write_or_print(args, [list(s) for s in solutions], "\n".join(lines))
    return 0


def cmd_algebra_refute(args) -> int:
    rep = algebra.refute_associativity(args.family, args.step)
    obj = {
        "family": rep.family,
        "grid_step": rep.grid_step,
        "min_residual": rep.min_residual,
        "argmin": list(rep.argmin),
    }
    human = (
        f"family {rep.family}: min residual {rep.min_residual:.17g} at "
        f"alpha={rep.argmin[0]:g} beta={rep.argmin[1]:g} gamma={rep.argmin[2]:g} "
        f"(step {rep.grid_step:g}); corner minimum {rep.corner_min_residual:.17g}"
    )
    _write_or_print(args, obj, human)
    return 0


def cmd_kernel_apply(args) -> int:
    K = serialize.kernel_from_obj(_read_json(args.op))
    mu = kernel.DiscreteMeasure(_parse_floats(args.x0))
    out = kernel.kernel_apply(K, mu)
    _write_or_print(args, serialize.point_to_obj(out), f"image: {_fmt_point(out.coords)}")
    return 0


def cmd_kernel_check(args) -> int:
    K = serialize.kernel_from_obj(_read_json(args.op))
    return _verdict(args, "volterra", kernel.kernel_is_volterra(K))


def cmd_kernel_oracle(args) -> int:
    K = serialize.kernel_from_obj(_read_json(args.op))
    witness = kernel.volterra_violation_witness(K, EPS_VAL)
    verdict = witness is None
    obj = {"volterra": verdict}
    human = f"volterra (exhaustive): {str(verdict).lower()}"
    if witness is not None:
        subset, x, y = witness
        obj["witness"] = {"A": list(subset), "x": x, "y": y}
        human += f"\nwitness: A = {sorted(subset)}, x = {x}, y = {y}"
    _write_or_print(args, obj, human)
    return 0 if verdict else 1


def cmd_dyn_iterate(args) -> int:
    V = _load_tensor(args)
    x0 = SimplexPoint(_parse_floats(args.x0))
    if args.max_iter > MAX_ITER:
        raise TooLarge(f"--max-iter is capped at {MAX_ITER}, got {args.max_iter}")
    traj = dynamics.iterate(V, x0, max_iter=args.max_iter, tol=args.tol)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            dynamics.write_trajectory_csv(traj, fh)
    obj = {
        "status": traj.status,
        "cycle_length": traj.cycle_length,
        "iterations": traj.iterations,
        "final": [float(c) for c in traj.final.coords],
    }
    human = (
        f"status: {traj.status_label} after {traj.iterations} iterations\n"
        f"final: {_fmt_point(traj.final.coords)}"
    )
    print(serialize.dumps(obj) if args.json else human)
    return 0


def cmd_dyn_fixed_points(args) -> int:
    V = _load_tensor(args)
    fixed = sorted(dynamics.fixed_points_on_vertices(V, tol=args.tol))
    _write_or_print(args, fixed, f"fixed vertices: {fixed}")
    return 0


# ----------------------------------------------------------------- parser

_OP_HELP = "operator JSON file ('-' for stdin)"
_KERNEL_HELP = "kernel JSON file ('-' for stdin)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qso`` argument parser, built once per process: ``main`` reuses it."""
    top = argparse.ArgumentParser(prog="qso", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    leaves = []

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def leaf(parent, name, help, func, op=_OP_HELP):
        """A command parser running ``func``; it requires ``--op`` unless ``op`` is None."""
        p = parent.add_parser(name, help=help)
        if op:
            p.add_argument("--op", required=True, help=op)
        p.set_defaults(func=func)
        leaves.append(p)
        return p

    p = leaf(sub, "validate", "validate a tensor file", cmd_validate)
    p.add_argument("--mode", choices=("strict", "normalize"), default="strict")

    p = leaf(sub, "apply", "apply an operator to a point", cmd_apply)
    p.add_argument("--x0", required=True, help="comma-separated coordinates")

    vsub = group("volterra", "Volterra detection and canonical form")
    leaf(vsub, "check", "entrywise Volterra test", cmd_volterra_check)
    p = leaf(vsub, "canonical", "convert between tensor and skew parameters",
             cmd_volterra_canonical, op=None)
    p.add_argument("--op", help="tensor JSON file to convert to skew parameters")
    p.add_argument("--skew", help="skew JSON file to convert to a tensor")
    p.add_argument("--out", help="write result to this file")
    leaf(vsub, "certificate", "finite probe-point Volterra test", cmd_volterra_certificate)

    osub = group("op", "orthogonality-preserving families")
    p = leaf(osub, "build", "build a family tensor", cmd_op_build, op=None)
    p.add_argument("--family", type=int, required=True)
    for name in ("--alpha", "--beta", "--gamma"):
        p.add_argument(name, type=float, required=True)
    p.add_argument("--out", help="write tensor JSON to this file")
    leaf(osub, "check", "exact orthogonality-preservation test", cmd_op_check)
    leaf(osub, "classify", "recover (family, alpha, beta, gamma)", cmd_op_classify)
    p = leaf(osub, "conjugate", "conjugate by a coordinate permutation", cmd_op_conjugate)
    p.add_argument("--perm", required=True, help="images of 1..m, e.g. 2,3,1")
    p.add_argument("--out", help="write tensor JSON to this file")
    leaf(osub, "classes", "conjugacy classes of the six families", cmd_op_classes, op=None)

    asub = group("algebra", "induced algebra and associativity")
    p = leaf(asub, "check", "associativity on basis triples", cmd_algebra_check)
    p.add_argument("--tol", type=float, default=algebra.EPS_ASSOC)
    leaf(asub, "residual", "largest associator entry", cmd_algebra_residual)
    leaf(asub, "solve-v2", "associative corners of family 2", cmd_algebra_solve_v2, op=None)
    p = leaf(asub, "refute", "grid evidence of non-associativity", cmd_algebra_refute, op=None)
    p.add_argument("--family", type=int, required=True, choices=(1, 4))
    p.add_argument("--step", type=float, default=0.05)

    ksub = group("kernel", "finite measure-kernel operators")
    p = leaf(ksub, "apply", "apply a kernel to a measure", cmd_kernel_apply, op=_KERNEL_HELP)
    p.add_argument("--x0", required=True, help="comma-separated weights")
    leaf(ksub, "check", "entrywise Volterra test for kernels", cmd_kernel_check,
         op=_KERNEL_HELP)
    leaf(ksub, "oracle", "exhaustive subset Volterra test (n <= 12)", cmd_kernel_oracle,
         op=_KERNEL_HELP)

    dsub = group("dyn", "trajectory iteration")
    p = leaf(dsub, "iterate", "iterate from a start point", cmd_dyn_iterate)
    p.add_argument("--x0", required=True, help="comma-separated coordinates")
    p.add_argument("--max-iter", type=int, default=dynamics.DEFAULT_MAX_ITER)
    p.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL)
    p.add_argument("--out", help="write the trajectory CSV to this file")
    p = leaf(dsub, "fixed-points", "vertices fixed by the operator", cmd_dyn_fixed_points)
    p.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL)

    for p in leaves:  # last, so --json ends every leaf's option list
        p.add_argument("--json", action="store_true", help="emit deterministic JSON")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "volterra" and args.subcommand == "canonical":
        if bool(args.op) == bool(args.skew):
            parser.error("volterra canonical needs exactly one of --op or --skew")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except QsoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout, which is no input error; point stdout at
        # devnull so the flush at exit stays quiet
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
