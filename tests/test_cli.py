"""CLI smoke matrix: every subcommand, exit codes, deterministic output."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_kernel, rand_volterra_kernel, rand_volterra_tensor, with_forbidden_entry
from qso import (
    FiniteKernel,
    OpFamilySpec,
    SimplexPoint,
    associator_residual,
    cli,
    is_associative,
    iterate,
    op_family,
    serialize,
    validate,
)
from qso.algebra import _WHOLE_GAP_MAX
from qso.cli import EXIT_BROKEN_PIPE, build_parser, main
from qso.serialize import dumps, kernel_to_obj, tensor_to_obj


@pytest.fixture
def files(tmp_path):
    """Canned input files shared by the command matrix."""
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(dumps(obj), encoding="utf-8")
        paths[name] = str(p)

    write("v2.json", tensor_to_obj(op_family(OpFamilySpec(2, 0.5, 0.5, 0.5))))
    write("v1.json", tensor_to_obj(op_family(OpFamilySpec(1, 0.3, 0.6, 0.9))))
    write("uniform.json", tensor_to_obj(validate(np.full((3, 3, 3), 1.0 / 3.0))))
    write("assoc.json", tensor_to_obj(op_family(OpFamilySpec(2, 0.0, 0.0, 0.0))))
    write("kernel_volterra.json", kernel_to_obj(rand_volterra_kernel(np.random.default_rng(7), 4)))
    write("kernel_generic.json", kernel_to_obj(rand_kernel(np.random.default_rng(8), 4)))
    write("skew.json", {"m": 2, "a": [[0.0, 1.0], [-1.0, 0.0]]})
    write("garbage.json", {"m": 3, "entries": [{"i": 1, "j": 1, "k": 1, "p": 2.0}]})
    write("leaky.json", tensor_to_obj(with_forbidden_entry(5e-10)))  # is_volterra holds
    paths["tmp"] = str(tmp_path)
    return paths


def _entries_with_huge_p(m: int) -> list[dict]:
    """Entries of the uniform size-m operator, the last with a 401-digit p."""
    entries = tensor_to_obj(validate(np.ones((m, m, m)), mode="normalize"))["entries"]
    entries[-1]["p"] = 10**400
    return entries


# one row per subcommand: (argv builder, expected exit code)
MATRIX = [
    (lambda f: ["validate", "--op", f["v2.json"]], 0),
    (lambda f: ["apply", "--op", f["v2.json"], "--x0", "0.2,0.3,0.5"], 0),
    (lambda f: ["volterra", "check", "--op", f["v2.json"]], 0),
    (lambda f: ["volterra", "canonical", "--op", f["v2.json"]], 0),
    (lambda f: ["volterra", "certificate", "--op", f["v2.json"]], 0),
    (lambda f: ["op", "build", "--family", "3", "--alpha", "0.2",
                "--beta", "0.4", "--gamma", "0.6"], 0),
    (lambda f: ["op", "check", "--op", f["v1.json"]], 0),
    (lambda f: ["op", "classify", "--op", f["v1.json"]], 0),
    (lambda f: ["op", "conjugate", "--op", f["v1.json"], "--perm", "2,3,1"], 0),
    (lambda f: ["op", "classes"], 0),
    (lambda f: ["algebra", "check", "--op", f["assoc.json"]], 0),
    (lambda f: ["algebra", "residual", "--op", f["v2.json"]], 0),
    (lambda f: ["algebra", "solve-v2"], 0),
    (lambda f: ["algebra", "refute", "--family", "1", "--step", "0.1"], 0),
    (lambda f: ["kernel", "apply", "--op", f["kernel_volterra.json"],
                "--x0", "0.25,0.25,0.25,0.25"], 0),
    (lambda f: ["kernel", "check", "--op", f["kernel_volterra.json"]], 0),
    (lambda f: ["kernel", "oracle", "--op", f["kernel_volterra.json"]], 0),
    (lambda f: ["dyn", "iterate", "--op", f["v2.json"], "--x0", "0.2,0.3,0.5",
                "--max-iter", "50"], 0),
    (lambda f: ["dyn", "fixed-points", "--op", f["v2.json"]], 0),
]


@pytest.mark.parametrize("argv_builder,expected", MATRIX)
def test_subcommand_matrix(files, capsys, argv_builder, expected):
    assert main(argv_builder(files)) == expected
    assert capsys.readouterr().out.strip()


def test_matrix_covers_the_whole_subcommand_tree(files):
    """Every leaf of the command tree appears exactly once in the matrix."""
    covered = []
    for builder, _ in MATRIX:
        argv = builder(files)
        covered.append(" ".join(tok for tok in argv[:2] if not tok.startswith("-")))
    covered.sort()
    assert covered == sorted([
        "validate", "apply",
        "volterra check", "volterra canonical", "volterra certificate",
        "op build", "op check", "op classify", "op conjugate", "op classes",
        "algebra check", "algebra residual", "algebra solve-v2", "algebra refute",
        "kernel apply", "kernel check", "kernel oracle",
        "dyn iterate", "dyn fixed-points",
    ])


def _leaf_parsers(parser: argparse.ArgumentParser, path=()) -> dict:
    """Every leaf of the parser tree, keyed by its space-joined command path."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): parser}
    leaves = {}
    for name, child in subs[0].choices.items():
        leaves.update(_leaf_parsers(child, path + (name,)))
    return leaves


def _option(parser: argparse.ArgumentParser, flag: str):
    return next((a for a in parser._actions if flag in a.option_strings), None)


def test_every_leaf_is_built_alike():
    """The built tree has the matrix's leaves; each takes --json, and --op where it reads one."""
    leaves = _leaf_parsers(build_parser())
    assert sorted(leaves) == sorted([
        "validate", "apply",
        "volterra check", "volterra canonical", "volterra certificate",
        "op build", "op check", "op classify", "op conjugate", "op classes",
        "algebra check", "algebra residual", "algebra solve-v2", "algebra refute",
        "kernel apply", "kernel check", "kernel oracle",
        "dyn iterate", "dyn fixed-points",
    ])
    for path, leaf in leaves.items():
        flag = _option(leaf, "--json")
        assert isinstance(flag, argparse._StoreTrueAction), path
        assert leaf._actions[-1] is flag, path  # last, as the help text lists it
        assert leaf.get_default("func") is not None, path
    reading = {path for path, leaf in leaves.items() if _option(leaf, "--op")}
    assert len(reading) == 15
    assert reading == set(leaves) - {"op build", "op classes", "algebra solve-v2", "algebra refute"}
    required = {path for path in reading if _option(leaves[path], "--op").required}
    assert required == reading - {"volterra canonical"}  # it takes --op or --skew


class TestExitCodes:
    def test_check_false_is_exit_one(self, files, capsys):
        assert main(["volterra", "check", "--op", files["v1.json"]]) == 1
        assert "volterra: false" in capsys.readouterr().out
        assert main(["op", "check", "--op", files["uniform.json"]]) == 1
        assert main(["algebra", "check", "--op", files["v2.json"]]) == 1
        assert main(["kernel", "check", "--op", files["kernel_generic.json"]]) == 1
        assert main(["volterra", "certificate", "--op", files["uniform.json"]]) == 1

    def test_unwritable_out_file_is_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        argv = ["op", "build", "--family", "1", "--alpha", "0.3", "--beta", "0.6", "--gamma",
                "0.9", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert one_error_line(err) and err.startswith("error: [Errno 2] No such file")
        assert not out.exists()

    def test_validation_error_is_exit_two(self, files, capsys):
        assert main(["validate", "--op", files["garbage.json"]]) == 2
        assert "error:" in capsys.readouterr().err

    def test_classify_interior_vertex_images_is_exit_two(self, files, capsys):
        assert main(["op", "classify", "--op", files["uniform.json"]]) == 2
        assert "VertexImageNotVertex" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--max-iter", "0"), ("--tol", "-1")])
    def test_bad_iterate_parameters_are_exit_two(self, files, capsys, flag, value):
        argv = ["dyn", "iterate", "--op", files["v2.json"], "--x0", "0.2,0.3,0.5", flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ParameterOutOfRange:")

    @pytest.mark.parametrize("value", ["nan", "-1", "0"])
    def test_bad_fixed_points_tolerance_is_exit_two(self, files, capsys, value):
        assert main(["dyn", "fixed-points", "--op", files["v2.json"], "--tol", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ParameterOutOfRange:")

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_algebra_tolerance_is_exit_two(self, files, capsys, value):
        assert main(["algebra", "check", "--op", files["assoc.json"], "--tol", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ParameterOutOfRange:")

    def test_zero_algebra_tolerance_still_decides(self, files, capsys):
        assert main(["algebra", "check", "--op", files["assoc.json"], "--tol", "0"]) == 0
        assert main(["algebra", "check", "--op", files["v2.json"], "--tol", "0"]) == 1

    @pytest.mark.parametrize("payload", ['{"m": -1}', '{"m": 2.7}', '{"m": 100000}'])
    def test_bad_tensor_size_is_exit_two(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload, encoding="utf-8")
        assert main(["validate", "--op", str(bad)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_missing_file_is_exit_two(self, capsys):
        assert main(["validate", "--op", "/nonexistent/path.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--op", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @staticmethod
    def _exit_two(capsys, argv, error: str) -> None:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: QsoError: {error}"), lines

    def test_deeply_nested_json_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        self._exit_two(capsys, ["validate", "--op", str(bad)], f"invalid JSON in {bad}")

    def test_non_utf8_json_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"m": 2}'.encode("utf-16-le"))
        self._exit_two(capsys, ["validate", "--op", str(bad)], f"invalid JSON in {bad}")

    @pytest.mark.parametrize("limit", ["default", "none"])
    def test_over_long_integer_literal_is_exit_two(self, tmp_path, capsys, limit):
        bad = tmp_path / "digits.json"
        huge = "1" + "0" * 4999
        bad.write_text(f'{{"m": 2, "entries": [{{"i": 1, "j": 1, "k": 1, "p": {huge}}}]}}',
                       encoding="utf-8")
        argv = ["validate", "--op", str(bad)]
        if limit == "default":  # the digit limit, on by default since Python 3.11
            if not hasattr(sys, "get_int_max_str_digits"):
                pytest.skip("this Python has no integer digit limit")
            self._exit_two(capsys, argv, f"invalid JSON in {bad}")
            return
        # no digit limit, as on Python 3.10: the literal decodes and the
        # entry cannot be read as a float
        old = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if old is not None:
            sys.set_int_max_str_digits(0)
        try:
            self._exit_two(capsys, argv, "bad tensor entry")
        finally:
            if old is not None:
                sys.set_int_max_str_digits(old)

    def test_canonical_needs_exactly_one_input(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["volterra", "canonical"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["volterra", "canonical", "--op", files["v2.json"],
                  "--skew", files["skew.json"]])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name,leaves,code", [
        ("leaky.json", ("check", "certificate", "canonical"), 0),  # forbidden 5e-10 <= EPS_VAL
        ("v1.json", ("check", "certificate"), 1),
    ])
    def test_every_volterra_verdict_takes_eps_val(self, files, capsys, name, leaves, code):
        for leaf in leaves:
            assert main(["volterra", leaf, "--op", files[name]]) == code, leaf
        assert capsys.readouterr().err == ""

    def test_oracle_reports_witness(self, files, capsys):
        assert main(["kernel", "oracle", "--op", files["kernel_generic.json"], "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["volterra"] is False
        assert set(out["witness"]) == {"A", "x", "y"}


class TestOutput:
    def test_json_outputs_are_byte_identical(self, files, capsys):
        main(["algebra", "solve-v2", "--json"])
        first = capsys.readouterr().out
        main(["algebra", "solve-v2", "--json"])
        assert capsys.readouterr().out == first
        assert json.loads(first) == [
            [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0],
        ]

    def test_classes_json(self, capsys):
        assert main(["op", "classes", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [[1, 3, 5], [2], [4, 6]]

    def test_classify_json_round_trips_build(self, files, capsys):
        assert main(["op", "classify", "--op", files["v1.json"], "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["family"] == 1
        for key, want in (("alpha", 0.3), ("beta", 0.6), ("gamma", 0.9)):
            assert got[key] == pytest.approx(want, abs=1e-12)

    def test_canonical_skew_to_tensor(self, files, capsys):
        assert main(["volterra", "canonical", "--skew", files["skew.json"], "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["m"] == 2
        assert main(["volterra", "check", "--op", files["skew.json"]]) == 2

    def test_build_out_file_then_classify(self, files, capsys, tmp_path):
        out = tmp_path / "built.json"
        assert main(["op", "build", "--family", "6", "--alpha", "0.1", "--beta", "0.7",
                     "--gamma", "0.9", "--out", str(out)]) == 0
        assert main(["op", "classify", "--op", str(out), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["family"] == 6

    def test_conjugate_matches_parameter_map(self, files, capsys):
        assert main(["op", "conjugate", "--op", files["v1.json"], "--perm", "2,3,1",
                     "--json"]) == 0
        conj_obj = json.loads(capsys.readouterr().out)
        from qso.serialize import tensor_from_obj

        got = tensor_from_obj(conj_obj)
        want = op_family(OpFamilySpec(5, 1 - 0.9, 1 - 0.3, 0.6))
        assert np.abs(got.p - want.p).max() <= 1e-15

    def test_dyn_iterate_writes_csv(self, files, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["dyn", "iterate", "--op", files["v1.json"], "--x0", "0.7,0.1,0.2",
                     "--max-iter", "100", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "iter,x1,x2,x3,status"
        assert len(lines) >= 3

    def test_stdin_input(self, files, capsys, monkeypatch):
        import io

        payload = dumps(tensor_to_obj(op_family(OpFamilySpec(2, 0.2, 0.4, 0.6))))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["volterra", "check", "--op", "-"]) == 0


def one_error_line(err: str) -> bool:
    return sum("error:" in line for line in err.splitlines()) == 1 and "Traceback" not in err


class TestMalformedIntegers:
    def test_non_integral_perm_is_exit_two(self, files, capsys):
        argv = ["op", "conjugate", "--op", files["v1.json"], "--perm", "2.9,3.2,1.7"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: InvalidPermutation:")

    @pytest.mark.parametrize("value", [1.7, True])
    def test_non_integral_entry_index_is_exit_two(self, tmp_path, capsys, value):
        obj = tensor_to_obj(op_family(OpFamilySpec(2, 0.5, 0.5, 0.5)))
        obj["entries"][0]["i"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--op", str(bad)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: QsoError: bad tensor entry")

    @pytest.mark.parametrize("argv,payload,error", [
        (["validate", "--op"], {"m": 2, "entries": _entries_with_huge_p(2)},
         "QsoError: bad tensor entry"),
        (["validate", "--op"], {"m": 6, "entries": _entries_with_huge_p(6)},
         "QsoError: bad tensor entry"),
        (["kernel", "check", "--op"], {"n": 2, "q": _entries_with_huge_p(2)},
         "QsoError: bad kernel entry"),
        (["volterra", "canonical", "--skew"], {"m": 2, "a": [[0, 10**400], [-1, 0]]},
         "InvalidSkew: skew matrix a must be a matrix of numbers"),
    ])
    def test_huge_integer_coefficient_is_exit_two(self, tmp_path, capsys, argv, payload, error):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(argv + [str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}")
        assert "int too large to convert to float" in lines[0]

    @pytest.mark.parametrize("argv,payload,error", [
        (["validate", "--op"], {"m": 2, "entries": [
            {"i": 1, "j": 1, "k": 1, "p": "1"}, {"i": 1, "j": 2, "k": 1, "p": True},
            {"i": 2, "j": 2, "k": 2, "p": "1e0"}]},
         "QsoError: bad tensor entry {'i': 1, 'j': 1, 'k': 1, 'p': '1'}: "
         "p must be a number, got str"),
        (["volterra", "canonical", "--skew"], {"m": 2, "a": [[0, "0"], [False, 0]]},
         "InvalidSkew: skew matrix a must be a matrix of numbers"),
    ], ids=["tensor", "skew"])
    def test_non_number_coefficient_is_exit_two(self, tmp_path, capsys, argv, payload, error):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(argv + [str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]


@pytest.mark.parametrize("step,error", [
    ("1e-300", "TooLarge"), ("1e-6", "TooLarge"),
    ("nan", "ParameterOutOfRange"), ("inf", "ParameterOutOfRange"), ("-0.1", "ParameterOutOfRange"),
])
def test_bad_refute_step_is_exit_two(capsys, step, error):
    assert main(["algebra", "refute", "--family", "1", f"--step={step}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and one_error_line(captured.err)
    assert captured.err.startswith(f"error: {error}:")


def _kernel_payload(n: int, entries) -> dict:
    return {"n": n, "q": [{"i": i, "j": j, "k": k, "p": v} for i, j, k, v in entries]}


@pytest.mark.parametrize("argv,payload,error", [
    (["apply", "--x0", "1e308,1e308,0", "--op"], None,
     "InvalidPoint: simplex point sums to inf, expected 1 within 1e-09"),
    (["apply", "--x0", "1e308,1e308,-1e-12", "--op"], None,
     "InvalidPoint: simplex point sums to inf, expected 1 within 1e-09"),
    (["dyn", "iterate", "--x0", "1e308,1e308,0", "--op"], None,
     "InvalidPoint: simplex point sums to inf, expected 1 within 1e-09"),
    (["kernel", "apply", "--x0", "1e308,1e308", "--op"],
     _kernel_payload(2, [(1, 1, 1, 1.0), (1, 2, 2, 1.0), (2, 2, 2, 1.0)]),
     "InvalidPoint: measure sums to inf, expected 1 within 1e-09"),
    (["volterra", "canonical", "--skew"], {"m": 2, "a": [[0.0, 1e308], [1e308, 0.0]]},
     "InvalidSkew: skew-symmetry violated by 1.000e+308"),
    (["volterra", "canonical", "--skew"], {"m": 2, "a": [[1e308, 0.0], [0.0, 0.0]]},
     "InvalidSkew: skew-symmetry violated by 1.000e+308"),
    (["volterra", "canonical", "--skew"], {"m": 2, "a": [[0.0, 1e308], [-1e308, 0.0]]},
     "InvalidSkew: entry magnitude 1e+308 exceeds 1"),
    (["kernel", "check", "--op"], _kernel_payload(1, [(1, 1, 1, 1e308)]),
     "NotStochastic: a kernel row sums off one by inf"),
    (["kernel", "check", "--op"], _kernel_payload(3, [
        (1, 1, 1, 7e307), (1, 1, 2, 7e307), (1, 1, 3, 7e307), (1, 2, 1, 1.0),
        (1, 3, 1, 1.0), (2, 2, 1, 1.0), (2, 3, 1, 1.0), (3, 3, 1, 1.0)]),
     "NotStochastic: a kernel row sums off one by inf"),
    (["kernel", "check", "--op"], _kernel_payload(2, [
        (1, 1, 1, 1e308), (1, 1, 2, -1e308), (1, 2, 1, 1.0), (2, 2, 2, 1.0)]),
     "NegativeCoefficient: kernel entry below zero: -inf"),
], ids=["apply", "apply clamped", "dyn iterate", "kernel apply", "skew pair", "skew diagonal",
        "skew magnitude", "kernel sum", "kernel row sum", "kernel negative"])
def test_huge_finite_input_is_one_error_line(files, tmp_path, argv, payload, error):
    # under pytest a warning is captured, not printed: make it an error, as it
    # would be a second line on a user's stderr
    path = files["v2.json"]
    if payload is not None:
        path = str(tmp_path / "huge.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(argv + [path]) == (2, "", f"error: {error}\n")


class TestCountCaps:
    """``--max-iter`` and the payload size take their cap and exit 2 with TooLarge above it."""

    def test_the_cap_runs_and_one_more_is_exit_two(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ITER", 5)
        argv = ["dyn", "iterate", "--op", files["v2.json"], "--x0", "0.2,0.3,0.5", "--max-iter"]
        assert main(argv + ["5"]) == 0
        capsys.readouterr()
        assert main(argv + ["6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TooLarge: --max-iter is capped at 5, got 6\n"

    @staticmethod
    def _payload(kind: str, m: int) -> tuple[list[str], dict]:
        """A size-m payload and the leaf that reads it; "loop" lists fewer than 64 entries."""
        if kind == "skew":
            return ["volterra", "canonical", "--skew"], {"m": m, "a": np.zeros((m, m)).tolist()}
        if kind == "bulk":
            entries = tensor_to_obj(validate(np.ones((m, m, m)), mode="normalize"))["entries"]
        else:  # p[i, j, i] = 1: one entry per slice, a Volterra operator
            entries = [{"i": i, "j": j, "k": i, "p": 1.0}
                       for i in range(1, m + 1) for j in range(i, m + 1)]
        if kind == "kernel":
            return ["kernel", "check", "--op"], {"n": m, "q": entries}
        return ["validate", "--op"], {"m": m, "entries": entries}

    @pytest.mark.parametrize("kind,payload", [
        ("bulk", "tensor"), ("loop", "tensor"), ("kernel", "kernel"), ("skew", "skew matrix"),
    ])
    def test_payload_size_cap_runs_and_one_more_is_exit_two(
            self, tmp_path, capsys, monkeypatch, kind, payload):
        monkeypatch.setattr(serialize, "MAX_DIMENSION", 9)
        path = tmp_path / "op.json"
        for m, code in ((9, 0), (10, 2)):
            argv, obj = self._payload(kind, m)
            path.write_text(json.dumps(obj), encoding="utf-8")
            assert main(argv + [str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: TooLarge: {payload} size is capped at 9, got 10\n"

    def test_the_library_takes_any_budget(self):
        # the golden corpus holds the CLI at and past the documented caps;
        # this orbit stops on a 2-cycle at once
        V = op_family(OpFamilySpec(1, 0.5, 0.5, 0.5))
        traj = iterate(V, SimplexPoint([0.7, 0.1, 0.2]), max_iter=cli.MAX_ITER + 1)
        assert traj.status == "cycle"


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away, on ``write`` or on ``flush``."""

    def __init__(self, on: str):
        super().__init__()
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("on", ["write", "flush"])
def test_closed_stdout_is_not_an_input_error(files, monkeypatch, on):
    monkeypatch.setattr("sys.stdout", _ClosedStdout(on))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["op", "conjugate", "--op", files["v1.json"], "--perm", "2,3,1", "--json"])
    assert code == EXIT_BROKEN_PIPE
    assert err.getvalue() == ""


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of an in-process call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _valid_perm(text: str) -> bool:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        return False
    return all(math.isfinite(v) for v in values) and sorted(values) == [1.0, 2.0, 3.0]


_NUMBERS = st.one_of(
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
)
_PERMS = st.one_of(
    st.lists(_NUMBERS, max_size=5).map(lambda vs: ",".join(map(str, vs))),
    st.text(max_size=12),
).filter(lambda s: not _valid_perm(s))
_INDICES = st.one_of(
    _NUMBERS, st.booleans(), st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2)
).filter(lambda v: not (isinstance(v, (int, float)) and not isinstance(v, bool) and v in (1, 2, 3)))


@pytest.fixture(scope="module")
def v1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "v1.json"
    path.write_text(dumps(tensor_to_obj(op_family(OpFamilySpec(1, 0.3, 0.6, 0.9)))))
    return str(path)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just("perm"), _PERMS),
    st.tuples(st.sampled_from("ijk"), _INDICES),
))
def test_fuzz_malformed_integer_arguments(v1_file, case):
    """A malformed --perm or entry index exits 2 with one error line."""
    kind, value = case
    if kind == "perm":
        code, _, err = _run(["op", "conjugate", "--op", v1_file, f"--perm={value}"])
    else:
        obj = tensor_to_obj(op_family(OpFamilySpec(2, 0.3, 0.6, 0.9)))
        obj["entries"][1][kind] = value
        with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
            fh.write(json.dumps(obj))
            fh.flush()
            code, _, err = _run(["validate", "--op", fh.name])
    assert code == 2 and one_error_line(err), (case, err)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """An m = 3 operator file and an n = 3 kernel file for the argv fuzz."""
    V = op_family(OpFamilySpec(1, 0.3, 0.6, 0.9))
    root = tmp_path_factory.mktemp("argv")
    paths = {}
    for name, obj in (("op.json", tensor_to_obj(V)),
                      ("kernel.json", kernel_to_obj(FiniteKernel.from_tensor(V)))):
        paths[name] = root / name
        paths[name].write_text(dumps(obj))
    return {name: str(path) for name, path in paths.items()}


# besides any number or text, values that are sometimes valid: coordinates
# that can sum to one, small integers and numbers in [0, 1]
_LISTS = st.one_of(
    st.lists(_NUMBERS, max_size=5).map(lambda vs: ",".join(map(str, vs))),
    st.lists(st.sampled_from(["0", "-0.0", "0.25", "0.5", "1"]), min_size=1, max_size=4).map(
        ",".join),
    st.text(max_size=12),
)
_VALUES = st.one_of(_NUMBERS.map(str), st.integers(-2, 8).map(str), st.floats(0, 1).map(str),
                    st.text(max_size=8))
_BUILD = ["op", "build", "--family", "1", "--alpha", "0.3", "--beta", "0.6", "--gamma", "0.9"]

# (argv with the fuzzed option left out, the option, its values); files
# are named by key and replaced by their paths; orbits are kept short
_ARGV_CASES = [
    (["apply", "--op", "op.json"], "--x0", _LISTS),
    (["dyn", "iterate", "--op", "op.json", "--max-iter", "50"], "--x0", _LISTS),
    (["kernel", "apply", "--op", "kernel.json"], "--x0", _LISTS),
    (["dyn", "iterate", "--op", "op.json", "--x0", "0.2,0.3,0.5"], "--max-iter", _VALUES),
    (["validate", "--op", "op.json"], "--mode", _VALUES),
    (["algebra", "refute", "--step", "0.1"], "--family", _VALUES),
] + [(_BUILD[:at] + _BUILD[at + 2:], _BUILD[at], _VALUES) for at in (2, 4, 6, 8)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_argument_values(argv_files, data):
    """Any value of an option that takes numbers or a name exits 0, 1 or 2 without a traceback.

    Exit 2 prints exactly one ``error:`` line.
    """
    argv, option, values = data.draw(st.sampled_from(_ARGV_CASES))
    value = data.draw(values)
    argv = [argv_files.get(a, a) for a in argv] + [f"{option}={value}"]
    code, _, err = _run(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert one_error_line(err), (argv, err)


# every leaf that reads a payload, with the other arguments it needs; the
# orbit is kept short, as any payload that decodes may iterate
_PAYLOAD_LEAVES = [
    ["validate"], ["validate", "--mode", "normalize"], ["apply", "--x0", "0.2,0.3,0.5"],
    ["volterra", "check"], ["volterra", "canonical"], ["volterra", "certificate"],
    ["op", "check"], ["op", "classify"], ["op", "conjugate", "--perm", "2,3,1"],
    ["algebra", "check"], ["algebra", "residual"],
    ["kernel", "apply", "--x0", "0.5,0.5"], ["kernel", "check"], ["kernel", "oracle"],
    ["dyn", "iterate", "--x0", "0.2,0.3,0.5", "--max-iter", "20"], ["dyn", "fixed-points"],
]

_SCALARS = st.one_of(
    st.integers(-10, 10), st.sampled_from([10**20, -(10**40), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none(),
    st.text(max_size=4),
)
_KEYS = st.one_of(st.sampled_from(["m", "n", "entries", "q", "a", "i", "j", "k", "p", "x"]),
                  st.text(max_size=3))
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=12,
)
_SIZES = st.one_of(st.integers(0, 8), _SCALARS)
_ENTRY = st.fixed_dictionaries(
    {key: st.one_of(st.integers(0, 9), _SCALARS) for key in "ijk"} | {"p": _SCALARS})
_ENTRIES = st.one_of(st.lists(_ENTRY, max_size=40), _DOCS)


@st.composite
def _payloads(draw):
    """A tensor, kernel or skew document, or any JSON document at all.

    A "valid" document is an operator or kernel with one entry p = 1 per
    slice i <= j, at most one field of which is then replaced by any value.
    """
    kind = draw(st.sampled_from(["valid", "tensor", "kernel", "skew", "any"]))
    if kind == "valid":
        m = draw(st.integers(1, 8))
        size, key = draw(st.sampled_from([("m", "entries"), ("n", "q")]))
        entries = [{"i": i, "j": j, "k": draw(st.integers(1, m)), "p": 1.0}
                   for i in range(1, m + 1) for j in range(i, m + 1)]
        if draw(st.booleans()):
            entry = draw(st.sampled_from(entries))
            entry[draw(st.sampled_from("ijkp"))] = draw(_SCALARS)
        return {size: m, key: entries}
    if kind == "tensor":
        return {"m": draw(_SIZES), "entries": draw(_ENTRIES)}
    if kind == "kernel":
        return {"n": draw(_SIZES), "q": draw(_ENTRIES)}
    if kind == "skew":
        m = draw(st.integers(0, 8))
        row = st.lists(st.one_of(st.floats(-1, 1), _SCALARS), min_size=m, max_size=m)
        return {"m": draw(_SIZES), "a": draw(st.one_of(st.lists(row, min_size=m, max_size=m),
                                                       _DOCS))}
    return draw(_DOCS)


@settings(max_examples=60, deadline=None)
@given(doc=_payloads())
def test_fuzz_whole_payloads(doc):
    """Any JSON payload, to every leaf that reads one, exits 0, 1 or 2 without a traceback.

    Exit 2 prints nothing on stdout and exactly one ``error:`` line.
    """
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        fh.write(json.dumps(doc))
        fh.flush()
        runs = [leaf + ["--op", fh.name] for leaf in _PAYLOAD_LEAVES]
        runs.append(["volterra", "canonical", "--skew", fh.name])
        for argv in runs:
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, doc, err)
            if code == 2:
                lines = err.splitlines()
                assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (
                    argv, doc, err)


def _commutator_path_tensors(m: int) -> dict:
    """Tensors of size m whose associator residual takes the commutator path."""
    rng = np.random.default_rng(1400 + m)
    constant = np.zeros((m, m, m))
    constant[:, :, 0] = 1.0  # x o y = e_1 for all x, y: associative
    return {
        "dense": validate(rng.random((m, m, m)), mode="normalize"),
        "volterra": rand_volterra_tensor(rng, m),
        "constant": validate(constant),
    }


@pytest.mark.parametrize("m", [14, 16])
def test_algebra_commands_on_the_commutator_path_print_the_library_result(tmp_path, m):
    """``algebra residual`` and ``algebra check`` above m = 13 print exactly what the
    library gives for the decoded tensor. The bits there depend on how the BLAS build
    rounds by product shape, so the comparison runs in one process, not against a record."""
    assert m**4 > _WHOLE_GAP_MAX  # one tensor's gap entries exceed the one-piece bound
    verdicts = set()
    for name, V in _commutator_path_tensors(m).items():
        path = tmp_path / f"{name}{m}.json"
        path.write_text(dumps(tensor_to_obj(V)), encoding="utf-8")
        W = serialize.tensor_from_obj(json.loads(path.read_text(encoding="utf-8")))
        residual, associative = associator_residual(W), is_associative(W)
        verdicts.add(associative)
        code = 0 if associative else 1
        assert _run(["algebra", "residual", "--op", str(path), "--json"]) == (
            0, dumps({"residual": residual}) + "\n", "")
        assert _run(["algebra", "check", "--op", str(path), "--json"]) == (
            code, dumps({"associative": associative}) + "\n", "")
        assert _run(["algebra", "check", "--op", str(path)]) == (
            code, f"associative: {str(associative).lower()}\n", "")
    assert verdicts == {True, False}


def test_a_bad_one_based_perm_is_named_one_based(files):
    code, out, err = _run(["op", "conjugate", "--op", files["v1.json"], "--perm", "4,2,1"])
    assert (code, out) == (2, "")
    assert err == "error: InvalidPermutation: [4, 2, 1] is not a bijection of 1..3\n"
