"""CLI smoke matrix: every subcommand, exit codes, deterministic output."""

from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import rand_kernel, rand_volterra_kernel
from qso import OpFamilySpec, op_family, validate
from qso.cli import main
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
    paths["tmp"] = str(tmp_path)
    return paths


# one row per subcommand: (argv builder, expected exit code)
MATRIX = [
    (lambda f: ["validate", "--op", f["v2.json"]], 0),
    (lambda f: ["apply", "--op", f["v2.json"], "--x0", "0.2,0.3,0.5"], 0),
    (lambda f: ["volterra", "check", "--op", f["v2.json"], "--samples", "20"], 0),
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


class TestExitCodes:
    def test_check_false_is_exit_one(self, files, capsys):
        assert main(["volterra", "check", "--op", files["v1.json"]]) == 1
        assert "volterra: false" in capsys.readouterr().out
        assert main(["op", "check", "--op", files["uniform.json"]]) == 1
        assert main(["algebra", "check", "--op", files["v2.json"]]) == 1
        assert main(["kernel", "check", "--op", files["kernel_generic.json"]]) == 1
        assert main(["volterra", "certificate", "--op", files["uniform.json"]]) == 1

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

    def test_canonical_needs_exactly_one_input(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["volterra", "canonical"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["volterra", "canonical", "--op", files["v2.json"],
                  "--skew", files["skew.json"]])
        assert exc.value.code == 2

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
