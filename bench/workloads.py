"""The four benchmark workloads: seeded inputs, one task, and its checks.

Each workload draws every input from the ``numpy.random.Generator`` it is
given, so one seed gives one task sequence. Tasks come in shuffled rounds
with a fixed mix: every stretch of a run holds the same share of each task
kind, which keeps throughput and the latency percentiles steady across
seeds. ``run`` makes the task's calls into qso through the tracer;
``check`` compares the outputs with oracles that do not share the call
under test and returns ``(module, message)`` for each mismatch.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import qso
from qso import serialize
from qso.errors import NotOrthogonalityPreserving

# Conjugacy classes of the six OP families on S^2: transpositions,
# the identity and the 3-cycles of S_3.
CONJUGACY_CLASS = {1: {1, 3, 5}, 3: {1, 3, 5}, 5: {1, 3, 5}, 2: {2}, 4: {4, 6}, 6: {4, 6}}

# Family-2 corners whose basis-triple associator vanishes. (1, 0, 1) is
# associative and (1, 1, 0) is not (its residual is 1): the paper's solution
# list has these two the other way round, so it is not used as the truth.
V2_ASSOCIATIVE = {(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 1.0),
                  (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0)}

# The slow heteroclinic Volterra operator: orbits creep past saddles at the
# vertices and exhaust any modest step budget.
HETEROCLINIC_SKEW = 0.05 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])

OP_PROBE_POINTS = 3 + 3 * 101  # vertex pairs + a 101-point grid per edge


def encode(V) -> str:
    return serialize.dumps(serialize.tensor_to_obj(V))


def decode(text: str):
    return serialize.tensor_from_obj(json.loads(text))


def direct_image(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x'_k = sum_{i,j} p[i,j,k] x_i x_j by broadcasting, not through apply."""
    return (p * x[:, None, None] * x[None, :, None]).sum(axis=(0, 1))


def rand_skew(rng, m: int) -> qso.SkewMatrix:
    r = rng.uniform(-1.0, 1.0, (m, m))
    return qso.SkewMatrix(m, (r - r.T) / 2.0)


def near_volterra(V, x: int, y: int) -> qso.FiniteKernel:
    """Kernel of V with mass 1e-3 of the pair (x, y) moved onto the last atom."""
    q = V.p.copy()
    keep = x if q[x, y, x] >= q[x, y, y] else y
    for a, b in ((x, y), (y, x)):
        q[a, b, V.m - 1] = 1e-3
        q[a, b, keep] -= 1e-3
    return qso.FiniteKernel(V.m, q)


class Task:
    __slots__ = ("id", "kind", "data")

    def __init__(self, task_id: int, kind: str, **data):
        self.id, self.kind, self.data = task_id, kind, data


class Workload:
    """Base class: a deck of task kinds dealt in shuffled rounds."""

    name = ""
    round_kinds: list = []
    #: Nominal tasks per second; sizes the traced phase so that its work
    #: counts depend only on the seed and the run length.
    trace_rate = 1.0
    #: Host speed probe that resembles the workload (see hostspeed.py).
    probe_kind = "inproc"

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self._deck: list = []
        self._next_id = 0

    def next_task(self) -> Task:
        if not self._deck:
            order = self.rng.permutation(len(self.round_kinds))
            self._deck = [self.round_kinds[i] for i in order]
        kind = self._deck.pop()
        self._next_id += 1
        return self.make_task(self._next_id, kind)

    def make_task(self, task_id: int, kind) -> Task:
        raise NotImplementedError

    def run(self, task: Task, t):
        raise NotImplementedError

    def check(self, task: Task, out) -> list[tuple[str, str]]:
        raise NotImplementedError


class ExploreS2(Workload):
    """Many small exact checks on one m = 3 operator per task."""

    name = "explore-s2"
    # Per family: two members with uniform parameters, one at the corners
    # {0, 1/2, 1}; plus random non-OP tensors.
    round_kinds = [("op", f, corner) for f in range(1, 7) for corner in (False, False, True)]
    round_kinds += [("raw", None, None)] * 4
    trace_rate = 50.0

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.perms = [qso.Permutation(s) for s in itertools.permutations(range(3))]

    def make_task(self, task_id, kind):
        what, family, corner = kind
        x = qso.SimplexPoint(self.rng.dirichlet(np.ones(3)))
        if what == "raw":
            return Task(task_id, "raw", raw=self.rng.random((3, 3, 3)), x=x)
        if corner:
            params = tuple(float(v) for v in self.rng.choice([0.0, 0.5, 1.0], size=3))
        else:
            params = tuple(float(v) for v in self.rng.random(3))
        return Task(task_id, "op", spec=qso.OpFamilySpec(family, *params), x=x)

    def run(self, task, t):
        d = task.data
        op = task.kind == "op"
        out = {}
        if op:
            V = t.call(qso.op_family, d["spec"])
        else:
            V = t.call(qso.validate, d["raw"], "normalize")
        out["V"] = V
        out["is_op"] = t.call(qso.is_orthogonality_preserving, V)
        t.count("orthopreserve.is_orthogonality_preserving.probe_points", OP_PROBE_POINTS)
        try:
            out["spec"] = t.call(qso.classify_op, V, expect=() if op else NotOrthogonalityPreserving)
        except NotOrthogonalityPreserving:
            if op:
                raise
            out["spec"] = None
        if op:
            out["targets"] = [
                t.call(qso.classify_op, t.call(qso.conjugate, V, perm)).family
                for perm in self.perms
            ]
        out["volterra"] = t.call(qso.is_volterra, V)
        out["certificate"] = t.call(qso.volterra_certificate, V)
        if op and d["spec"].family == 2:
            out["roundtrip"] = t.call(qso.from_canonical, t.call(qso.to_canonical, V))
        out["associative"] = t.call(qso.is_associative, V)
        K = t.call(qso.FiniteKernel.from_tensor, V)
        out["kernel_volterra"] = t.call(qso.kernel_is_volterra, K)
        text = t.call(encode, V, name="serialize.encode")
        out["decoded"] = t.call(decode, text, name="serialize.decode")
        t.count("serialize.encode.bytes", len(text))
        t.count("serialize.decode.bytes", len(text))
        out["image"] = t.call(qso.apply, V, d["x"])
        return out

    def check(self, task, out):
        fails = []

        def need(ok, module, msg):
            if not ok:
                fails.append((module, msg))

        d = task.data
        V = out["V"]
        op = task.kind == "op"
        family = d["spec"].family if op else None
        need(out["is_op"] == op, "orthopreserve", f"is_orthogonality_preserving = {out['is_op']}")
        if op:
            got = out["spec"]
            err = max(abs(a - b) for a, b in zip(got.params, d["spec"].params))
            need(got.family == family and err <= 1e-9, "orthopreserve",
                 f"classify_op gave {got}, want {d['spec']}")
            need(set(out["targets"]) <= CONJUGACY_CLASS[family], "conjugacy",
                 f"family {family} conjugates to {out['targets']}")
        else:
            need(out["spec"] is None, "orthopreserve", "classify_op accepted a non-OP tensor")
        v2 = family == 2
        need(out["volterra"] == v2, "volterra", f"is_volterra = {out['volterra']}")
        need(out["certificate"] == v2, "volterra", f"volterra_certificate = {out['certificate']}")
        need(out["kernel_volterra"] == v2, "kernel", f"kernel_is_volterra = {out['kernel_volterra']}")
        if v2:
            need(np.abs(out["roundtrip"].p - V.p).max() <= 1e-12, "volterra",
                 "from_canonical(to_canonical(V)) differs from V")
        want_assoc = v2 and d["spec"].params in V2_ASSOCIATIVE
        need(out["associative"] == want_assoc, "algebra",
             f"is_associative = {out['associative']} for {d.get('spec')}")
        need(np.array_equal(out["decoded"].p, V.p), "serialize", "round trip is not exact")
        x = d["x"].coords
        need(np.abs(out["image"].coords - direct_image(V.p, x)).max() <= 1e-12, "core",
             "apply differs from the direct image")
        return fails


class Orbits(Workload):
    """One trajectory per task, up to a fixed step budget."""

    name = "orbits"
    # Half the orbits are heteroclinic and run to the budget, so the median
    # and the 90th percentile both fall among budget-bound orbits.
    round_kinds = ["fam2"] * 3 + ["fam1", "fam1", "fam4"] + ["hetero"] * 10 + ["m10"] * 4
    trace_rate = 11.0
    budget = 500
    tol = 1e-10
    window = 64  # the cycle window of qso.iterate

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.hetero = qso.from_canonical(qso.SkewMatrix(3, HETEROCLINIC_SKEW))

    def make_task(self, task_id, kind):
        if kind == "hetero":
            V = self.hetero
        elif kind == "m10":
            V = qso.from_canonical(rand_skew(self.rng, 10))
        else:
            family = int(kind[-1])
            V = qso.op_family(qso.OpFamilySpec(family, *self.rng.random(3)))
        x0 = qso.SimplexPoint(self.rng.dirichlet(np.ones(V.m)))
        return Task(task_id, kind, V=V, x0=x0, samples=self.rng.random(3))

    def run(self, task, t):
        d = task.data
        traj = t.call(qso.iterate, d["V"], d["x0"], max_iter=self.budget, tol=self.tol)
        t.count("dynamics.iterate.steps", traj.iterations)
        return traj

    def check(self, task, traj):
        fails = []
        V = task.data["V"]
        pts = [pt.coords for pt in traj.points]
        n = traj.iterations

        def gap(back):
            return np.abs(pts[n] - pts[n - back]).max()

        if len(pts) != n + 1 or n < 1:
            return [("dynamics", f"{len(pts)} points for {n} iterations")]
        converged = gap(1) <= self.tol
        cycles = [d for d in range(2, min(self.window, n) + 1) if gap(d) <= self.tol]
        if traj.status == "converged":
            ok = converged
        elif traj.status == "cycle":
            ok = not converged and cycles[:1] == [traj.cycle_length]
        else:
            ok = n == self.budget and not converged and not cycles
        if not ok:
            fails.append(("dynamics", f"stop condition {traj.status_label} does not hold at step {n}"))
        for u in task.data["samples"]:
            s = 1 + int(u * n)
            step = qso.apply(V, traj.points[s - 1]).coords
            if not np.array_equal(pts[s], step) or \
                    np.abs(pts[s] - direct_image(V.p, pts[s - 1])).max() > 1e-12:
                fails.append(("dynamics", f"step {s} is not apply of step {s - 1}"))
        return fails


class Scale(Workload):
    """One large call per task: cost grows with m or n."""

    name = "scale"
    round_kinds = (
        [("assoc", m, False) for m in (20, 30, 40, 50, 50)]
        + [("assoc", m, True) for m in (20, 30, 40)]
        + [("refute", None, None)]
        + [("oracle", n, True) for n in (8, 10, 12)] + [("oracle", 10, False)]
        + [(k, 100, None) for k in ("validate", "apply", "is_volterra")] + [("certificate", 40, None)]
        + [("encode", 30, None), ("decode", 30, None)]
    )
    trace_rate = 8.0
    refute_step = 0.05

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.tensors = {}
        for m in (20, 30, 40, 50):
            self.tensors[m, False] = qso.validate(rng.random((m, m, m)), "normalize")
            c = rng.dirichlet(np.ones(m))
            self.tensors[m, True] = qso.validate(np.broadcast_to(c, (m, m, m)))
        self.kernels = {}
        for n in (8, 10, 12):
            V = qso.from_canonical(rand_skew(rng, n))
            self.kernels[n, True] = qso.FiniteKernel.from_tensor(V)
            # The violation sits on the last atom, so the subset scan meets
            # it only after 2^(n-1) subsets whatever the seed.
            x, y = rng.choice(n - 1, size=2, replace=False)
            self.kernels[n, False] = near_volterra(V, int(x), int(y))
        self.raw100 = rng.random((100, 100, 100))
        self.dense100 = qso.validate(self.raw100, "normalize")
        self.volterra = {m: qso.from_canonical(rand_skew(rng, m)) for m in (40, 100)}
        self.dense30 = self.tensors[30, False]
        self.text30 = encode(self.dense30)

    def make_task(self, task_id, kind):
        what, size, flag = kind
        data = {"size": size, "flag": flag}
        if what == "assoc":
            data["triples"] = self.rng.integers(size, size=(16, 3))
        elif what == "refute":
            data["family"] = int(self.rng.choice([1, 4]))
        elif what == "apply":
            data["x"] = qso.SimplexPoint(self.rng.dirichlet(np.ones(size)))
        return Task(task_id, what, **data)

    def run(self, task, t):
        d = task.data
        size = d["size"]
        if task.kind == "assoc":
            t.count("algebra.associator_residual.bytes_computed", 4 * size**4 * 8)
            return t.call(qso.associator_residual, self.tensors[size, d["flag"]])
        if task.kind == "refute":
            t.count("algebra.refute_associativity.grid_points", (round(1 / self.refute_step) + 1) ** 3)
            return t.call(qso.refute_associativity, d["family"], self.refute_step)
        if task.kind == "oracle":
            t.count("kernel.kernel_volterra_oracle.subsets", 2**size - 1)
            return t.call(qso.kernel_volterra_oracle, self.kernels[size, d["flag"]])
        if task.kind == "validate":
            return t.call(qso.validate, self.raw100, "normalize")
        if task.kind == "apply":
            return t.call(qso.apply, self.dense100, d["x"])
        if task.kind == "is_volterra":
            return t.call(qso.is_volterra, self.volterra[size])
        if task.kind == "certificate":
            return t.call(qso.volterra_certificate, self.volterra[size])
        if task.kind == "encode":
            text = t.call(encode, self.dense30, name="serialize.encode")
            t.count("serialize.encode.bytes", len(text))
            return text
        t.count("serialize.decode.bytes", len(self.text30))
        return t.call(decode, self.text30, name="serialize.decode")

    def check(self, task, out):
        d = task.data
        kind = task.kind
        if kind == "assoc":
            p = self.tensors[d["size"], d["flag"]].p
            worst = max(
                np.abs(p[i, j, :] @ p[:, k, :] - p[j, k, :] @ p[i, :, :]).max()
                for i, j, k in d["triples"]
            )
            if d["flag"]:
                ok = out <= 1e-12
            else:
                ok = out > 1e-6 and worst <= out + 1e-12
            return [] if ok else [("algebra", f"residual {out!r}, sampled associator {worst!r}")]
        if kind == "refute":
            again = qso.associator_residual(qso.op_family(qso.OpFamilySpec(out.family, *out.argmin)))
            ok = (out.family == d["family"] and 0.0 < out.min_residual <= out.corner_min_residual
                  and again == out.min_residual)
            return [] if ok else [("algebra", f"refutation report {out} is inconsistent")]
        if kind == "oracle":
            K = self.kernels[d["size"], d["flag"]]
            ok = out == d["flag"] == qso.kernel_is_volterra(K)
            return [] if ok else [("kernel", f"oracle {out} on a kernel with volterra={d['flag']}")]
        if kind == "validate":
            p = out.p
            ok = (np.array_equal(p, p.transpose(1, 0, 2)) and p.min() >= 0.0
                  and np.abs(p.sum(axis=2) - 1.0).max() <= 1e-12
                  and np.array_equal(p, self.dense100.p))
            return [] if ok else [("core", "validate(normalize) output is not a QSO")]
        if kind == "apply":
            err = np.abs(out.coords - direct_image(self.dense100.p, d["x"].coords)).max()
            return [] if err <= 1e-12 else [("core", f"apply off by {err:.3e}")]
        if kind in ("is_volterra", "certificate"):
            return [] if out is True else [("volterra", f"{kind} = {out} on a Volterra operator")]
        if kind == "encode":
            return [] if out == self.text30 else [("serialize", "encoding is not deterministic")]
        return [] if np.array_equal(out.p, self.dense30.p) else [("serialize", "round trip is not exact")]


class Cli(Workload):
    """One ``python -m qso.cli`` process per task on generated files."""

    name = "cli"
    round_kinds = (
        [("validate", None), ("apply", None), ("op_build", None), ("op_classify", None),
         ("op_conjugate", None), ("kernel_oracle", None), ("dyn_iterate", None), ("malformed", None)] * 2
        + [("algebra_residual", 0), ("algebra_residual", 1), ("algebra_residual", 1)]
        + [("algebra_refute", None)]
    )
    trace_rate = 3.5
    probe_kind = "spawn"
    iterate_budget = 200
    # Malformed payloads the CLI rejects with exit 2 and one error line.
    # ``{"m": 100000}``, ``{"m": -1}`` and ``--max-iter 0`` are left out:
    # they still end in a traceback with exit 1.
    malformed = [
        '{"m": 3, "entries": [',
        '{"entries": []}',
        '{"m": 3, "entries": [{"i": 1, "j": 1}]}',
        '{"m": 3, "entries": [{"i": 1, "j": 1, "k": 4, "p": 1.0}]}',
        '{"m": 2, "entries": [{"i": 2, "j": 1, "k": 1, "p": 1.0}]}',
        '{"m": 2, "entries": [{"i": 1, "j": 1, "k": 1, "p": -0.5}]}',
        '{"m": 2, "entries": [{"i": 1, "j": 1, "k": 1, "p": 0.5}]}',
    ]

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.refs: dict = {}
        self.family = {}
        for f in range(1, 7):
            spec = qso.OpFamilySpec(f, *rng.random(3))
            self.family[f] = self._write(f"family{f}.json", qso.op_family(spec))
        self.residual = [self._write(f"residual{m}.json", qso.validate(rng.random((m, m, m)), "normalize"))
                         for m in (20, 30)]
        V = qso.from_canonical(rand_skew(rng, 8))
        self.kernels = [self._write("kernel8.json", qso.FiniteKernel.from_tensor(V)),
                        self._write("kernel8-near.json", near_volterra(V, 0, 1))]
        self.bad = []
        for i, text in enumerate(self.malformed):
            path = workdir / f"malformed{i}.json"
            path.write_text(text, encoding="utf-8")
            self.bad.append(path.name)

    def _write(self, name, obj):
        if isinstance(obj, qso.FiniteKernel):
            text = serialize.dumps(serialize.kernel_to_obj(obj))
        else:
            text = encode(obj)
        (self.workdir / name).write_text(text + "\n", encoding="utf-8")
        return name

    def _floats(self, m):
        return ",".join(repr(float(v)) for v in self.rng.dirichlet(np.ones(m)))

    def make_task(self, task_id, kind):
        kind, residual = kind
        f = int(self.rng.integers(1, 7))
        op = self.family[f]
        argv = {
            "validate": lambda: ["validate", "--op", op, "--json"],
            "apply": lambda: ["apply", "--op", op, "--x0", self._floats(3), "--json"],
            "op_build": lambda: ["op", "build", "--family", str(f)]
            + [a for name, v in zip(("--alpha", "--beta", "--gamma"), self.rng.random(3))
               for a in (name, repr(float(v)))] + ["--out", "built.json"],
            "op_classify": lambda: ["op", "classify", "--op", op, "--json"],
            "op_conjugate": lambda: ["op", "conjugate", "--op", op, "--perm",
                                     ",".join(str(int(i) + 1) for i in self.rng.permutation(3)),
                                     "--out", "conjugated.json"],
            "algebra_residual": lambda: ["algebra", "residual", "--op", self.residual[residual], "--json"],
            "algebra_refute": lambda: ["algebra", "refute", "--family", "4", "--json"],
            "kernel_oracle": lambda: ["kernel", "oracle", "--op",
                                      self.kernels[int(self.rng.integers(2))], "--json"],
            "dyn_iterate": lambda: ["dyn", "iterate", "--op", op, "--x0", self._floats(3),
                                    "--max-iter", str(self.iterate_budget), "--json"],
            "malformed": lambda: ["op", "classify", "--op",
                                  self.bad[int(self.rng.integers(len(self.bad)))], "--json"],
        }[kind]()
        return Task(task_id, kind, argv=argv)

    def run(self, task, t):
        return t.call(subprocess.run, [sys.executable, "-m", "qso.cli", *task.data["argv"]],
                      cwd=self.workdir, capture_output=True, text=True, name=f"cli.{task.kind}")

    def _expected(self, argv):
        """(exit code, stdout, file text) the CLI must produce, from in-process calls."""
        key = tuple(argv)
        if key not in self.refs:
            self.refs[key] = self._reference(argv)
        return self.refs[key]

    def _reference(self, argv):
        opts = dict(zip(argv, argv[1:]))

        def tensor():
            return serialize.tensor_from_obj(json.loads((self.workdir / opts["--op"]).read_text()))

        def point():
            return qso.SimplexPoint([float(v) for v in opts["--x0"].split(",")])

        cmd = " ".join(a for a in argv[:2] if not a.startswith("--"))
        if cmd == "validate":
            return 0, serialize.dumps({"m": tensor().m, "valid": True}), None
        if cmd == "apply":
            return 0, serialize.dumps(serialize.point_to_obj(qso.apply(tensor(), point()))), None
        if cmd == "op build":
            spec = qso.OpFamilySpec(int(opts["--family"]), float(opts["--alpha"]),
                                    float(opts["--beta"]), float(opts["--gamma"]))
            return 0, None, encode(qso.op_family(spec))
        if cmd == "op classify":
            return 0, serialize.dumps(serialize.spec_to_obj(qso.classify_op(tensor()))), None
        if cmd == "op conjugate":
            perm = qso.Permutation.from_one_based([int(v) for v in opts["--perm"].split(",")])
            return 0, None, encode(qso.conjugate(tensor(), perm))
        if cmd == "algebra residual":
            return 0, serialize.dumps({"residual": qso.associator_residual(tensor())}), None
        if cmd == "algebra refute":
            rep = qso.refute_associativity(int(opts["--family"]))
            obj = {"family": rep.family, "grid_step": rep.grid_step,
                   "min_residual": rep.min_residual, "argmin": list(rep.argmin)}
            return 0, serialize.dumps(obj), None
        if cmd == "kernel oracle":
            K = serialize.kernel_from_obj(json.loads((self.workdir / opts["--op"]).read_text()))
            verdict = qso.kernel_volterra_oracle(K, n_measures=100, rng=np.random.default_rng(0))
            obj = {"volterra": verdict}
            if not verdict:
                subset, x, y = qso.volterra_violation_witness(K)
                obj["witness"] = {"A": list(subset), "x": x, "y": y}
            return (0 if verdict else 1), serialize.dumps(obj), None
        if cmd == "dyn iterate":
            traj = qso.iterate(tensor(), point(), max_iter=int(opts["--max-iter"]))
            obj = {"status": traj.status, "cycle_length": traj.cycle_length,
                   "iterations": traj.iterations, "final": [float(c) for c in traj.final.coords]}
            return 0, serialize.dumps(obj), None
        raise ValueError(f"no reference for {argv}")

    def check(self, task, proc):
        argv = task.data["argv"]
        if task.kind == "malformed":
            lines = proc.stderr.splitlines()
            ok = (proc.returncode == 2 and proc.stdout == "" and len(lines) == 1
                  and lines[0].startswith("error: "))
            return [] if ok else [("cli", f"{argv}: exit {proc.returncode}, stderr {proc.stderr!r}")]
        code, stdout, filetext = self._expected(argv)
        if proc.returncode != code:
            return [("cli", f"{argv}: exit {proc.returncode}, want {code}; {proc.stderr[-300:]!r}")]
        if stdout is not None and proc.stdout != stdout + "\n":
            return [("cli", f"{argv}: stdout differs from serialize.dumps")]
        if filetext is not None:
            out = (self.workdir / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            if proc.stdout != "" or out != filetext + "\n":
                return [("cli", f"{argv}: --out file differs from serialize.dumps")]
        return []


WORKLOADS = {w.name: w for w in (ExploreS2, Orbits, Scale, Cli)}
