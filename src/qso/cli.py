"""Command-line interface for the qso toolkit.

Usage examples:

    qso validate --op tensor.json
    qso apply --op tensor.json --x0 0.2,0.3,0.5
    qso volterra check --op tensor.json --samples 100
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
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import algebra, conjugacy, dynamics, kernel, orthopreserve, serialize, volterra
from .core import SimplexPoint, apply
from .errors import ParameterOutOfRange, QsoError

EXIT_BROKEN_PIPE = 141


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
    V = _load_tensor(args)
    if args.samples < 0:
        raise ParameterOutOfRange(f"--samples must be nonnegative, got {args.samples}")
    verdict = volterra.is_volterra(V)
    obj = {"volterra": verdict}
    human = f"volterra: {str(verdict).lower()}"
    if args.samples:
        rng = np.random.default_rng(args.seed)
        pts = [SimplexPoint(rng.dirichlet(np.ones(V.m))) for _ in range(args.samples)]
        prop = volterra.check_abs_continuity_property(V, pts)
        verdict = verdict and prop
        obj["abs_continuity"] = prop
        obj["samples"] = args.samples
        human += f"\nabs-continuity on {args.samples} samples: {str(prop).lower()}"
    _write_or_print(args, obj, human)
    return 0 if verdict else 1


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
    V = _load_tensor(args)
    verdict = volterra.volterra_certificate(V)
    _write_or_print(args, {"certificate": verdict}, f"certificate: {str(verdict).lower()}")
    return 0 if verdict else 1


def cmd_op_build(args) -> int:
    spec = orthopreserve.OpFamilySpec(args.family, args.alpha, args.beta, args.gamma)
    V = orthopreserve.op_family(spec)
    _write_or_print(args, serialize.tensor_to_obj(V), _tensor_human(V))
    return 0


def cmd_op_check(args) -> int:
    V = _load_tensor(args)
    verdict = orthopreserve.is_orthogonality_preserving(V)
    _write_or_print(
        args,
        {"orthogonality_preserving": verdict},
        f"orthogonality-preserving: {str(verdict).lower()}",
    )
    return 0 if verdict else 1


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
    classes = conjugacy.conjugacy_classes(params=(args.alpha, args.beta, args.gamma))
    as_lists = [sorted(c) for c in classes]
    human = "classes: " + " | ".join("{" + ",".join(map(str, c)) + "}" for c in as_lists)
    _write_or_print(args, as_lists, human)
    return 0


def cmd_algebra_check(args) -> int:
    V = _load_tensor(args)
    verdict = algebra.is_associative(V, eps=args.tol)
    _write_or_print(args, {"associative": verdict}, f"associative: {str(verdict).lower()}")
    return 0 if verdict else 1


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
    if args.json:
        print(serialize.dumps([list(s) for s in solutions]))
    else:
        print("associative family-2 corners:")
        for s in solutions:
            print(f"  alpha={s[0]:g} beta={s[1]:g} gamma={s[2]:g}")
        if disagreements:
            joined = ", ".join(str(tuple(map(float, d))) for d in disagreements)
            print(f"reduced-system disagreements (see algebra module docs): {joined}")
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
    _write_or_print(args, serialize.measure_to_obj(out), f"image: {_fmt_point(out.weights)}")
    return 0


def cmd_kernel_check(args) -> int:
    K = serialize.kernel_from_obj(_read_json(args.op))
    verdict = kernel.kernel_is_volterra(K)
    _write_or_print(args, {"volterra": verdict}, f"volterra: {str(verdict).lower()}")
    return 0 if verdict else 1


def cmd_kernel_oracle(args) -> int:
    K = serialize.kernel_from_obj(_read_json(args.op))
    rng = np.random.default_rng(args.seed)
    verdict = kernel.kernel_volterra_oracle(K, n_measures=args.measures, rng=rng)
    obj = {"volterra": verdict}
    human = f"volterra (exhaustive): {str(verdict).lower()}"
    if not verdict:
        witness = kernel.volterra_violation_witness(K)
        if witness is not None:
            subset, x, y = witness
            obj["witness"] = {"A": list(subset), "x": x, "y": y}
            human += f"\nwitness: A = {sorted(subset)}, x = {x}, y = {y}"
    _write_or_print(args, obj, human)
    return 0 if verdict else 1


def cmd_dyn_iterate(args) -> int:
    V = _load_tensor(args)
    x0 = SimplexPoint(_parse_floats(args.x0))
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


def _add_json(p):
    p.add_argument("--json", action="store_true", help="emit deterministic JSON")


def _add_op(p, help="operator JSON file ('-' for stdin)"):
    p.add_argument("--op", required=True, help=help)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qso", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a tensor file")
    _add_op(p)
    p.add_argument("--mode", choices=("strict", "normalize"), default="strict")
    _add_json(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("apply", help="apply an operator to a point")
    _add_op(p)
    p.add_argument("--x0", required=True, help="comma-separated coordinates")
    _add_json(p)
    p.set_defaults(func=cmd_apply)

    vol = sub.add_parser("volterra", help="Volterra detection and canonical form")
    vsub = vol.add_subparsers(dest="subcommand", required=True)

    p = vsub.add_parser("check", help="entrywise Volterra test")
    _add_op(p)
    p.add_argument("--samples", type=int, default=0,
                   help="also check V(x) << x on this many random points")
    p.add_argument("--seed", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=cmd_volterra_check)

    p = vsub.add_parser("canonical", help="convert between tensor and skew parameters")
    p.add_argument("--op", help="tensor JSON file to convert to skew parameters")
    p.add_argument("--skew", help="skew JSON file to convert to a tensor")
    p.add_argument("--out", help="write result to this file")
    _add_json(p)
    p.set_defaults(func=cmd_volterra_canonical)

    p = vsub.add_parser("certificate", help="finite probe-point Volterra test")
    _add_op(p)
    _add_json(p)
    p.set_defaults(func=cmd_volterra_certificate)

    op = sub.add_parser("op", help="orthogonality-preserving families")
    osub = op.add_subparsers(dest="subcommand", required=True)

    p = osub.add_parser("build", help="build a family tensor")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", help="write tensor JSON to this file")
    _add_json(p)
    p.set_defaults(func=cmd_op_build)

    p = osub.add_parser("check", help="exact orthogonality-preservation test")
    _add_op(p)
    _add_json(p)
    p.set_defaults(func=cmd_op_check)

    p = osub.add_parser("classify", help="recover (family, alpha, beta, gamma)")
    _add_op(p)
    _add_json(p)
    p.set_defaults(func=cmd_op_classify)

    p = osub.add_parser("conjugate", help="conjugate by a coordinate permutation")
    _add_op(p)
    p.add_argument("--perm", required=True, help="images of 1..m, e.g. 2,3,1")
    p.add_argument("--out", help="write tensor JSON to this file")
    _add_json(p)
    p.set_defaults(func=cmd_op_conjugate)

    p = osub.add_parser("classes", help="conjugacy classes of the six families")
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=0.6)
    p.add_argument("--gamma", type=float, default=0.9)
    _add_json(p)
    p.set_defaults(func=cmd_op_classes)

    alg = sub.add_parser("algebra", help="induced algebra and associativity")
    asub = alg.add_subparsers(dest="subcommand", required=True)

    p = asub.add_parser("check", help="associativity on basis triples")
    _add_op(p)
    p.add_argument("--tol", type=float, default=algebra.EPS_ASSOC)
    _add_json(p)
    p.set_defaults(func=cmd_algebra_check)

    p = asub.add_parser("residual", help="largest associator entry")
    _add_op(p)
    _add_json(p)
    p.set_defaults(func=cmd_algebra_residual)

    p = asub.add_parser("solve-v2", help="associative corners of family 2")
    _add_json(p)
    p.set_defaults(func=cmd_algebra_solve_v2)

    p = asub.add_parser("refute", help="grid evidence of non-associativity")
    p.add_argument("--family", type=int, required=True, choices=(1, 4))
    p.add_argument("--step", type=float, default=0.05)
    _add_json(p)
    p.set_defaults(func=cmd_algebra_refute)

    ker = sub.add_parser("kernel", help="finite measure-kernel operators")
    ksub = ker.add_subparsers(dest="subcommand", required=True)

    p = ksub.add_parser("apply", help="apply a kernel to a measure")
    _add_op(p, help="kernel JSON file ('-' for stdin)")
    p.add_argument("--x0", required=True, help="comma-separated weights")
    _add_json(p)
    p.set_defaults(func=cmd_kernel_apply)

    p = ksub.add_parser("check", help="entrywise Volterra test for kernels")
    _add_op(p, help="kernel JSON file ('-' for stdin)")
    _add_json(p)
    p.set_defaults(func=cmd_kernel_check)

    p = ksub.add_parser("oracle", help="exhaustive subset Volterra test (n <= 12)")
    _add_op(p, help="kernel JSON file ('-' for stdin)")
    p.add_argument("--measures", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=cmd_kernel_oracle)

    dyn = sub.add_parser("dyn", help="trajectory iteration")
    dsub = dyn.add_subparsers(dest="subcommand", required=True)

    p = dsub.add_parser("iterate", help="iterate from a start point")
    _add_op(p)
    p.add_argument("--x0", required=True, help="comma-separated coordinates")
    p.add_argument("--max-iter", type=int, default=dynamics.DEFAULT_MAX_ITER)
    p.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL)
    p.add_argument("--out", help="write the trajectory CSV to this file")
    _add_json(p)
    p.set_defaults(func=cmd_dyn_iterate)

    p = dsub.add_parser("fixed-points", help="vertices fixed by the operator")
    _add_op(p)
    p.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL)
    _add_json(p)
    p.set_defaults(func=cmd_dyn_fixed_points)

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
