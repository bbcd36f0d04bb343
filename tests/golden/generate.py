"""Golden CLI corpus: what ``qso`` prints, byte for byte, for a fixed argv list.

``cli_corpus.json`` next to this file records, for each argv of ``CASES``,
the exit code, stdout, stderr and the text of any ``--out`` file, as
:func:`qso.cli.main` produced them in-process. ``tests/test_golden.py``
replays every recorded argv and asserts the same four values.

The corpus covers every leaf command in its human, ``--json`` and (where the
leaf has it) ``--out`` form, the malformed inputs that exit 2, and
``--help`` of all 25 parser nodes, with ``COLUMNS`` pinned so the help text
does not depend on the terminal. The input files are built by
:func:`build_inputs` from seeded specs (numpy's ``default_rng`` streams and
:func:`qso.op_family` for the family tensors); the corpus records their
SHA-256 so that a changed input shows up as such, not as a changed output.
Payloads stay small (m <= 6, n <= 8, refutation steps >= 0.05; ``d8.json``,
an m = 8 tensor, is only validated and applied) so that no BLAS call is
large enough to use more than one thread (``bad_m_cap.json``,
one past the size cap, is only read: it is refused before its array is
allocated; ``v12.json``, an m = 12 Volterra tensor, is only iterated,
which calls no BLAS routine), and argparse's help text ties the corpus to
one Python minor version.

Rule: regenerate the file only for an output change that CHANGES.md names
(which commands, which bytes, and why). Never regenerate it to make a
difference go away. Known oddities, e.g. an ``op classify`` value one ulp
off the paper's, are recorded as the program prints them: the corpus pins
the program's bytes, not the paper's values.

Regenerate with::

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("cli_corpus.json")
COLUMNS = "80"

# ------------------------------------------------------------------ inputs


def _entries(p: np.ndarray) -> list[dict]:
    """Tensor-format entries (1-based, i <= j, nonzero only) of a cubic array."""
    m = p.shape[0]
    return [
        {"i": i + 1, "j": j + 1, "k": k + 1, "p": float(p[i, j, k])}
        for i in range(m) for j in range(i, m) for k in range(m) if p[i, j, k] != 0.0
    ]


def _random_array(m: int, seed: int, normalize: bool = True) -> np.ndarray:
    """A nonnegative cubic array, exactly symmetric in (i, j), about 30 % zeros."""
    rng = np.random.default_rng(seed)
    p = rng.random((m, m, m))
    p = (p + p.transpose(1, 0, 2)) / 2.0
    zero = rng.random((m, m, m)) < 0.3
    p[zero | zero.transpose(1, 0, 2)] = 0.0
    p[:, :, 0] = np.maximum(p[:, :, 0], 0.05)  # no empty slice
    if normalize:
        p /= p.sum(axis=2, keepdims=True)
    return p


def _volterra_array(m: int, seed: int) -> np.ndarray:
    """A Volterra array p[k, i, k] = (1 + a[k, i]) / 2 for a random skew a."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (m, m))
    a = (a - a.T) / 2.0
    p = np.zeros((m, m, m))
    for k in range(m):
        p[k, k, k] = 1.0
        for i in range(m):
            if i != k:
                p[k, i, k] = p[i, k, k] = (1.0 + a[k, i]) / 2.0
    return p


def _skew(m: int, seed: int) -> dict:
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, m))
    a = (a - a.T) / 2.0
    return {"m": m, "a": a.tolist()}


def _family(family: int, alpha: float, beta: float, gamma: float) -> dict:
    from qso import OpFamilySpec, op_family

    p = op_family(OpFamilySpec(family, alpha, beta, gamma)).p
    return {"m": 3, "entries": _entries(p)}


def _tensor(p: np.ndarray) -> dict:
    return {"m": p.shape[0], "entries": _entries(p)}


def _kernel(p: np.ndarray) -> dict:
    return {"n": p.shape[0], "q": _entries(p)}


def _with_forbidden(p: np.ndarray, i: int, j: int, k: int, value: float) -> np.ndarray:
    """``p`` with p[i, j, k] = p[j, i, k] = value taken from each slice's own entry i."""
    p = p.copy()
    for a, b in ((i, j), (j, i)):
        p[a, b, k] = value
        p[a, b, a] -= value
    return p


def _input_objects() -> dict:
    """File name -> JSON object (or raw text) of every corpus input."""
    from qso.serialize import MAX_DIMENSION

    uniform = np.full((3, 3, 3), 1.0 / 3.0)
    huge = {"m": 2, "entries": _entries(np.full((2, 2, 2), 0.5))}
    huge["entries"][-1]["p"] = 10**400
    short = _tensor(np.full((3, 3, 3), 1.0 / 3.0))
    short["entries"] = short["entries"][:-3]
    frac_index = _tensor(uniform)
    frac_index["entries"][0]["i"] = 1.7
    dup = _tensor(uniform)
    dup["entries"].append(dict(dup["entries"][0]))
    swapped = _tensor(uniform)
    swapped["entries"][3].update(i=2, j=1)
    big = uniform.copy()
    big[0, 0, 0] = 1.5
    kv8 = _volterra_array(8, 11)
    nv5 = _volterra_array(5, 15)  # forbidden mass 1e-9 = EPS_VAL at 3 outputs of slice (1, 2)
    for k in (2, 3, 4):
        nv5 = _with_forbidden(nv5, 0, 1, k, 1e-9)
    zero_slice = _entries(np.full((2, 2, 2), 0.5))
    for ent in zero_slice:
        if ent["i"] != ent["j"]:
            ent["p"] = 0.0
    kernel_nan = _kernel(np.full((2, 2, 2), 0.5))
    kernel_nan["q"][2]["p"] = float("nan")
    # payloads at the edges of the decoder's clean test: -0.0 entries (kept),
    # a -1e-12 entry (clamped), a slice 0.75e-9 above one (within EPS_VAL but
    # outside the clean margin), an Infinity literal, and a dense tensor of
    # the largest small size, m = 8
    neg0 = _family(1, 0.3, 0.6, 0.9)
    neg0["entries"] += [{"i": 1, "j": 1, "k": 2, "p": -0.0}, {"i": 1, "j": 2, "k": 1, "p": -0.0}]
    clamp = _family(4, 0.2, 0.7, 0.1)
    clamp["entries"].append({"i": 1, "j": 1, "k": 2, "p": -1e-12})
    off = _family(1, 0.3, 0.6, 0.9)
    off["entries"][0]["p"] += 0.75e-9
    inf = _tensor(uniform)
    inf["entries"][4]["p"] = float("inf")
    dense8 = np.random.default_rng(17).random((8, 8, 8))
    dense8 = (dense8 + dense8.transpose(1, 0, 2)) / 2.0
    dense8 /= dense8.sum(axis=2, keepdims=True)
    objs = {f"f{k}.json": _family(k, 0.3, 0.6, 0.9) for k in range(1, 7)}
    objs.update({
        "f2c.json": _family(2, 0.0, 0.0, 0.0),
        "f2x.json": _family(2, 1.0, 1.0, 0.0),
        "f4h.json": _family(4, 0.5, 0.25, 1.0),
        "u3.json": _tensor(uniform),
        "r3.json": _tensor(_random_array(3, 1)),
        "r4.json": _tensor(_random_array(4, 2)),
        "r5.json": _tensor(_random_array(5, 3)),
        "r6n.json": _tensor(_random_array(6, 4, normalize=False)),
        "v3.json": _tensor(_volterra_array(3, 5)),
        "v4.json": _tensor(_volterra_array(4, 6)),
        "v6.json": _tensor(_volterra_array(6, 7)),
        "v12.json": _tensor(_volterra_array(12, 16)),  # iterate's sparse step
        "nv5.json": _tensor(nv5),
        "sk3.json": _skew(3, 8),
        "sk5.json": _skew(5, 9),
        "k4.json": _kernel(_random_array(4, 10)),
        "kv5.json": _kernel(_volterra_array(5, 12)),
        "kv8.json": _kernel(kv8),
        "kx8.json": _kernel(_with_forbidden(kv8, 1, 2, 6, 1e-3)),
        "k1.json": {"n": 1, "q": [{"i": 1, "j": 1, "k": 1, "p": 1.0}]},
        "neg0.json": neg0,
        "clamp.json": clamp,
        "off.json": off,
        "inf.json": inf,
        "d8.json": _tensor(dense8),
        "zero_slice.json": {"m": 2, "entries": zero_slice},  # fails only in normalize mode
        # malformed payloads
        "bad_syntax.json": "{\"m\": 3, \"entries\": [",
        "bad_list.json": [1, 2, 3],
        "bad_big.json": _tensor(big),
        "bad_neg.json": _tensor(_with_forbidden(uniform, 0, 1, 2, -0.5)),
        "bad_sum.json": _tensor(_random_array(3, 13, normalize=False)),
        "bad_nan.json": _tensor(_with_forbidden(uniform, 0, 1, 2, float("nan"))),
        "bad_huge.json": huge,
        "bad_short.json": short,
        "bad_index.json": frac_index,
        "bad_dup.json": dup,
        "bad_swap.json": swapped,
        "bad_m_neg.json": {"m": -1, "entries": []},
        "bad_m_frac.json": {"m": 2.7, "entries": []},
        "bad_m_big.json": {"m": 100000, "entries": []},
        "bad_m_str.json": {"m": "3", "entries": []},
        "bad_m_cap.json": {"m": MAX_DIMENSION + 1, "entries": [  # p[i, j, i] = 1: Volterra
            {"i": i, "j": j, "k": i, "p": 1.0}
            for i in range(1, MAX_DIMENSION + 2) for j in range(i, MAX_DIMENSION + 2)]},
        "bad_m_one.json": {"m": 1, "entries": [{"i": 1, "j": 1, "k": 1, "p": 1.0}]},
        "bad_entries.json": {"m": 2, "entries": 5},
        "bad_nokey.json": {"entries": []},
        "bad_skew.json": {"m": 2, "a": [[0.0, 0.5], [0.5, 0.0]]},
        "bad_skew_ragged.json": {"m": 2, "a": [[0.0, 0.5], [-0.5]]},
        "bad_skew_inf.json": {"m": 2, "a": [[0.0, float("inf")], [float("-inf"), 0.0]]},
        "bad_kernel.json": _kernel(_random_array(3, 14, normalize=False)),
        "bad_kernel_empty.json": {"n": 0, "q": []},
        "bad_kernel_nan.json": kernel_nan,
    })
    return objs


def build_inputs(directory: Path) -> dict[str, str]:
    """Write every input file into ``directory``; return name -> SHA-256."""
    digests = {}
    for name, obj in _input_objects().items():
        text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


# ------------------------------------------------------------------- cases

_FAMILIES = [f"f{k}.json" for k in range(1, 7)]


def _forms(argv: list[str], out: str | None = None) -> list[list[str]]:
    """``argv`` in its human and ``--json`` forms, plus ``--out`` if named."""
    forms = [argv, argv + ["--json"]]
    if out:
        forms.append(argv + ["--out", out])
    return forms


def _cases() -> list[dict]:
    from qso.cli import MAX_ITER

    ok: list[list[str]] = []  # each in human and --json form
    plain: list[list[str]] = []  # errors and one-off forms, as written

    for f in ("f1.json", "f4.json", "r4.json", "v6.json"):
        ok.append(["validate", "--op", f])
    ok.append(["validate", "--op", "r6n.json", "--mode", "normalize"])
    plain.append(["validate", "--op", "r6n.json"])
    plain.append(["validate", "--op", "r6n.json", "--mode", "strict"])
    for bad in sorted(n for n in _input_objects() if n.startswith("bad_") and "skew" not in n
                      and "kernel" not in n):
        plain.append(["validate", "--op", bad])
    plain.append(["validate", "--op", "bad_big.json", "--json"])
    plain.append(["validate", "--op", "bad_neg.json", "--mode", "normalize"])
    plain.append(["validate", "--op", "zero_slice.json", "--mode", "normalize"])
    plain.append(["validate", "--op", "missing.json"])
    plain.append(["validate", "--op", "bad_syntax.json", "--json"])

    for f, x0 in (("f1.json", "0.2,0.3,0.5"), ("f4.json", "1,0,0"), ("r4.json", "0.1,0.2,0.3,0.4"),
                  ("v6.json", "0.5,0,0.25,0,0.25,0"), ("u3.json", "0.7,0.2,0.1")):
        ok.append(["apply", "--op", f, "--x0", x0])
    for x0 in ("a,b,c", "0.5,0.5", "-0.5,1,0.5", "0.2,0.2,0.2", "nan,0.5,0.5", "1e400,0,0", ""):
        plain.append(["apply", "--op", "f1.json", f"--x0={x0}"])
    plain.append(["apply", "--op", "f1.json"])

    for f in ("f1.json", "f2.json", "v4.json", "r4.json", "v3.json"):
        ok.append(["volterra", "check", "--op", f])
    for removed in (["--samples", "5"], ["--seed", "3"]):  # options that are gone: argparse
        plain.append(["volterra", "check", "--op", "f2.json"] + removed)
    plain.append(["volterra", "check", "--op", "sk3.json"])

    canon = [["volterra", "canonical", "--op", f] for f in ("v4.json", "f2.json", "v3.json")]
    canon += [["volterra", "canonical", "--skew", f] for f in ("sk3.json", "sk5.json")]
    for argv in canon:
        plain.extend(_forms(argv, "out.json"))
    plain.extend(_forms(["volterra", "canonical", "--op", "nv5.json"]))
    for argv in (["--op", "r4.json"], ["--op", "f1.json"], ["--skew", "bad_skew.json"],
                 ["--skew", "bad_skew_ragged.json"], ["--skew", "bad_skew_inf.json"],
                 ["--skew", "f1.json"], [],
                 ["--op", "v4.json", "--skew", "sk3.json"]):
        plain.append(["volterra", "canonical"] + argv)

    for f in ("f1.json", "v4.json", "r4.json", "u3.json"):
        ok.append(["volterra", "certificate", "--op", f])

    for fam, a, b, g in ((1, "0.3", "0.6", "0.9"), (2, "0", "1", "0.5"),
                         (3, "0.2", "0.4", "0.6"), (4, "1", "0", "0.25"),
                         (5, "0.7", "0.1", "0.35"), (6, "0.1", "0.7", "0.2")):
        plain.extend(_forms(["op", "build", "--family", str(fam), "--alpha", a, "--beta", b,
                             "--gamma", g], "out.json"))
    for fam, a in (("7", "0.5"), ("0", "0.5"), ("1", "1.5"), ("1", "-0.1"), ("1", "nan"),
                   ("1.5", "0.5")):
        plain.append(["op", "build", "--family", fam, "--alpha", a, "--beta", "0.5",
                      "--gamma", "0.5"])
    plain.append(["op", "build", "--family", "1", "--alpha", "0.5"])
    plain.append(["op", "build", "--family", "1", "--alpha", "0.3", "--beta", "0.6", "--gamma",
                  "0.9", "--out", "missing/x.json"])

    for f in _FAMILIES + ["u3.json", "r3.json", "v3.json", "f2x.json"]:
        ok.append(["op", "check", "--op", f])
    plain.append(["op", "check", "--op", "v4.json"])

    for f in _FAMILIES + ["f2c.json", "f2x.json", "f4h.json", "v3.json"]:
        ok.append(["op", "classify", "--op", f])
    for f in ("u3.json", "r3.json", "v4.json"):
        plain.append(["op", "classify", "--op", f])

    for f, perm in (("f1.json", "2,3,1"), ("f4.json", "3,1,2"), ("f6.json", "2,1,3"),
                    ("r4.json", "4,3,2,1"), ("v3.json", "1,2,3")):
        plain.extend(_forms(["op", "conjugate", "--op", f, "--perm", perm], "out.json"))
    for perm in ("1,1,2", "2.9,3.2,1.7", "1,2", "0,1,2", "a,b,c"):
        plain.append(["op", "conjugate", "--op", "f1.json", "--perm", perm])

    ok.append(["op", "classes"])

    for f in ("f2c.json", "f2x.json", "v4.json", "r4.json"):
        ok.append(["algebra", "check", "--op", f])
    plain.append(["algebra", "check", "--op", "f2c.json", "--tol", "0"])
    plain.append(["algebra", "check", "--op", "f2.json", "--tol", "0.5"])
    for tol in ("nan", "-1"):
        plain.append(["algebra", "check", "--op", "f2c.json", f"--tol={tol}"])

    for f in _FAMILIES + ["f2c.json", "r5.json", "v6.json", "u3.json"]:
        ok.append(["algebra", "residual", "--op", f])

    ok.append(["algebra", "solve-v2"])

    ok.append(["algebra", "refute", "--family", "1", "--step", "0.1"])
    ok.append(["algebra", "refute", "--family", "4", "--step", "0.05"])
    ok.append(["algebra", "refute", "--family", "1"])
    for fam, step in (("2", "0.1"), ("1", "0.001"), ("1", "0"), ("1", "0.2"), ("4", "nan"),
                      ("4", "-0.05")):
        plain.append(["algebra", "refute", "--family", fam, f"--step={step}"])

    for f, x0 in (("k4.json", "0.25,0.25,0.25,0.25"), ("kv5.json", "0.5,0,0.5,0,0"),
                  ("kx8.json", "0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125"),
                  ("k1.json", "1")):
        ok.append(["kernel", "apply", "--op", f, "--x0", x0])
    for x0 in ("0.5,0.5", "0.5,0.6,0,0", "x,0,0,1"):
        plain.append(["kernel", "apply", "--op", "k4.json", "--x0", x0])

    for f in ("k4.json", "kv5.json", "kv8.json", "kx8.json", "k1.json"):
        ok.append(["kernel", "check", "--op", f])
    for f in ("bad_kernel.json", "bad_kernel_empty.json", "bad_kernel_nan.json", "f1.json"):
        plain.append(["kernel", "check", "--op", f])

    for f in ("kv5.json", "kv8.json", "k4.json", "kx8.json", "k1.json"):
        ok.append(["kernel", "oracle", "--op", f])

    for f, x0, n in (("f1.json", "0.7,0.1,0.2", "200"), ("f2.json", "0.2,0.3,0.5", "500"),
                     ("f2c.json", "0.2,0.3,0.5", "100"), ("v4.json", "0.4,0.3,0.2,0.1", "300"),
                     ("r4.json", "0.1,0.2,0.3,0.4", "1000"), ("f4.json", "1,0,0", "10")):
        plain.extend(_forms(["dyn", "iterate", "--op", f, "--x0", x0, "--max-iter", n],
                            "out.csv"))
    for x0 in ("0.2,0.1,0.1,0.1,0.05,0.05,0.05,0.05,0.1,0.1,0.05,0.05",
               "0.25,0,0.25,0,0.25,0,0.25,0,0,0,0,0"):
        plain.extend(_forms(["dyn", "iterate", "--op", "v12.json", "--x0", x0, "--max-iter",
                             "200"], "out.csv"))
    plain.append(["dyn", "iterate", "--op", "f2.json", "--x0", "0.2,0.3,0.5", "--max-iter", "50",
                  "--json", "--out", "out.csv"])
    for flag, value in (("--max-iter", "0"), ("--max-iter", "-3"), ("--tol", "0"),
                        ("--tol", "nan"), ("--tol", "-1e-9")):
        plain.append(["dyn", "iterate", "--op", "f1.json", "--x0", "0.7,0.1,0.2",
                      f"{flag}={value}"])
    for n in (MAX_ITER, MAX_ITER + 1):  # the cap runs: f1 stops on a 2-cycle at once
        plain.append(["dyn", "iterate", "--op", "f1.json", "--x0", "0.7,0.1,0.2", "--max-iter",
                      str(n)])

    for f in ("f1.json", "f2.json", "f4.json", "v4.json", "r4.json"):
        ok.append(["dyn", "fixed-points", "--op", f])
    ok.append(["dyn", "fixed-points", "--op", "r4.json", "--tol", "0.5"])
    for tol in ("0", "nan"):
        plain.append(["dyn", "fixed-points", "--op", "f1.json", "--tol", tol])

    nodes = [[], ["validate"], ["apply"]]
    for group, leaves in (("volterra", ("check", "canonical", "certificate")),
                          ("op", ("build", "check", "classify", "conjugate", "classes")),
                          ("algebra", ("check", "residual", "solve-v2", "refute")),
                          ("kernel", ("apply", "check", "oracle")),
                          ("dyn", ("iterate", "fixed-points"))):
        nodes.append([group])
        nodes.extend([group, leaf] for leaf in leaves)
    plain.extend(node + ["--help"] for node in nodes)
    plain.extend([[], ["bogus"], ["op"], ["op", "bogus"], ["validate"], ["validate", "--op"],
                  ["algebra", "residual", "--op", "f1.json", "--bogus"]])

    cases = [{"argv": argv} for base in ok for argv in _forms(base)]
    cases += [{"argv": argv} for argv in plain]
    cases.append({"argv": ["validate", "--op", "-"], "stdin": "f1.json"})
    cases.append({"argv": ["algebra", "residual", "--op", "-", "--json"], "stdin": "v4.json"})
    cases.append({"argv": ["kernel", "oracle", "--op", "-"], "stdin": "kx8.json"})
    cases.append({"argv": ["validate", "--op", "-"], "stdin": "bad_syntax.json"})
    for f, x0 in (("neg0.json", "0.2,0.3,0.5"), ("clamp.json", "0.2,0.3,0.5"),
                  ("off.json", "0.2,0.3,0.5"), ("inf.json", "0.2,0.3,0.5"),
                  ("d8.json", ",".join(["0.125"] * 8))):
        cases.append({"argv": ["validate", "--op", f, "--json"]})
        cases.append({"argv": ["apply", "--op", f, "--x0", x0, "--json"]})
    return cases


CASES = _cases()


# ------------------------------------------------------------------ replay


def _out_name(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_case(case: dict, directory: Path) -> dict:
    """Run one case with ``qso.cli.main`` in ``directory``; return its record.

    The working directory, ``sys.stdin`` and ``COLUMNS`` are set for the
    call and restored after it; an ``--out`` file is read and removed.
    """
    from qso.cli import main

    argv = list(case["argv"])
    stdin = case.get("stdin")
    out, err = io.StringIO(), io.StringIO()
    saved = os.getcwd(), sys.stdin, os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = COLUMNS
    try:
        if stdin is not None:
            sys.stdin = io.StringIO((directory / stdin).read_text(encoding="utf-8"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --help and usage errors
                code = exc.code or 0
        name = _out_name(argv)
        written = None
        if name is not None and (directory / name).exists():
            written = (directory / name).read_text(encoding="utf-8")
            (directory / name).unlink()
    finally:
        os.chdir(saved[0])
        sys.stdin = saved[1]
        if saved[2] is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved[2]
    record = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
              "out": written}
    if stdin is not None:
        record["stdin"] = stdin
    return record


def generate(directory: Path) -> dict:
    """The corpus object: input digests and one record per case."""
    digests = build_inputs(directory)
    return {"inputs": digests, "cases": [run_case(case, directory) for case in CASES]}


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    codes = [c["exit"] for c in corpus["cases"]]
    print(f"{CORPUS.name}: {len(codes)} cases, exit codes "
          + ", ".join(f"{c}: {codes.count(c)}" for c in sorted(set(codes))))


if __name__ == "__main__":
    main()
