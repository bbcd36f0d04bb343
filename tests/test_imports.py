"""What a ``qso`` process imports, and the lazy ``qso`` namespace.

``import qso`` loads no submodule: ``qso.<name>`` imports the module that
defines it on first use. The CLI imports, per command, only the modules that
command uses, and nothing numpy-bound before its payload has been read. The
import sets are checked in fresh interpreters, through a wrapper that runs
``qso.cli`` as ``python -m`` does and writes ``sys.modules`` to a file at
exit, so the command's own stdout and stderr stay as the user sees them.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys

import pytest

import qso
from golden.generate import CORPUS, COLUMNS, build_inputs

SRC = os.path.dirname(os.path.dirname(qso.__file__))

RECORDED = {
    tuple(case["argv"]): case
    for case in json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]
    if case.get("stdin") is None
}

# runs ``qso.cli`` as ``python -m qso.cli`` does; argv[1] names the file that
# receives the loaded qso modules and numpy, whatever way the command exits
WRAPPER = """
import json, runpy, sys
report, sys.argv = sys.argv[1], ["qso", *sys.argv[2:]]
try:
    runpy.run_module("qso.cli", run_name="__main__", alter_sys=True)
finally:
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(sorted(m for m in sys.modules if m == "numpy" or m.startswith("qso.")), fh)
"""


def _child(args: list[str], cwd) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": COLUMNS}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def _run_cli(argv: list[str], cwd) -> tuple[dict, set[str]]:
    """(record, loaded modules) of one ``qso`` process; qso.errors is left out."""
    report = cwd / "modules.json"
    report.unlink(missing_ok=True)  # a child that writes no report fails the read below
    proc = _child(["-c", WRAPPER, str(report), *argv], cwd)
    loaded = set(json.loads(report.read_text(encoding="utf-8")))
    record = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    return record, {m.removeprefix("qso.") for m in loaded} - {"errors"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    build_inputs(directory)
    return directory


def _assert_recorded_bytes(argv, record):
    want = RECORDED.get(tuple(argv))
    if want is not None and want["out"] is None:
        assert record == {key: want[key] for key in ("exit", "stdout", "stderr")}, argv


def test_import_qso_loads_no_submodule(tmp_path):
    child = "import sys, qso; print(sorted(m for m in sys.modules if m.startswith('qso.')))"
    assert _child(["-c", child], tmp_path).stdout == "[]\n"


_TENSOR = {"core", "serialize"}
_OP = _TENSOR | {"orthopreserve"}


_IMPORT_SETS = [
    (["validate", "--op", "f1.json", "--json"], _TENSOR),
    (["apply", "--op", "f1.json", "--x0", "0.2,0.3,0.5", "--json"], _TENSOR),
    (["op", "build", "--family", "2", "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"], _OP),
    (["op", "classify", "--op", "f1.json", "--json"], _OP),
    (["op", "conjugate", "--op", "f1.json", "--perm", "2,3,1"], _OP | {"conjugacy"}),
    (["algebra", "residual", "--op", "f1.json", "--json"], _OP | {"algebra"}),
    (["algebra", "refute", "--family", "4", "--step", "0.1", "--json"], _OP | {"algebra"}),
    (["kernel", "oracle", "--op", "k4.json", "--json"], _TENSOR | {"kernel"}),
    (["dyn", "iterate", "--op", "f1.json", "--x0", "0.2,0.3,0.5", "--json"],
     _TENSOR | {"dynamics"}),
    # a payload that decodes as JSON but not as a tensor stops before the
    # command imports its own modules
    (["op", "classify", "--op", "bad_neg.json", "--json"], _TENSOR),
]


@pytest.mark.parametrize("argv, modules", _IMPORT_SETS,
                         ids=[" ".join(argv) for argv, _ in _IMPORT_SETS])
def test_each_command_loads_only_its_modules(inputs, argv, modules):
    record, loaded = _run_cli(argv, inputs)
    assert record["exit"] in (0, 1, 2) and "Traceback" not in record["stderr"], record
    assert loaded == modules | {"numpy"}
    _assert_recorded_bytes(argv, record)


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["op", "--help"],
    ["op", "classify", "--help"],
    ["op", "classify"],
    ["validate"],
    ["op", "classify", "--op", "bad_syntax.json"],
    ["validate", "--op", "bad_syntax.json"],
    ["validate", "--op", "missing.json"],
], ids=" ".join)
def test_help_usage_errors_and_undecodable_json_load_no_numpy(inputs, argv):
    record, loaded = _run_cli(argv, inputs)
    assert loaded == set()
    assert record["exit"] == (0 if "--help" in argv else 2)
    assert record["stdout"] if "--help" in argv else record["stderr"]
    _assert_recorded_bytes(argv, record)


def test_no_numpy_cases_have_golden_records():
    """The byte checks above are not vacuous: most of their argv are in the corpus."""
    for argv in (["--help"], ["op", "--help"], ["op", "classify", "--help"], ["validate"],
                 ["validate", "--op", "bad_syntax.json"]):
        assert tuple(argv) in RECORDED, argv


# ------------------------------------------------------------ lazy namespace


def test_every_public_name_is_its_modules_object():
    for name in qso.__all__:
        value = getattr(qso, name)
        module = sys.modules[f"qso.{qso._MODULE_OF[name]}"]
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_a_resolved_name_is_kept_in_the_package(monkeypatch):
    calls = []
    resolve = qso.__getattr__

    def counted(name):
        calls.append(name)
        return resolve(name)

    monkeypatch.setattr(qso, "__getattr__", counted)
    monkeypatch.delitem(vars(qso), "apply", raising=False)
    first = qso.apply
    assert vars(qso)["apply"] is first
    assert qso.apply is first
    assert calls == ["apply"]


def test_submodules_resolve():
    for name in ("algebra", "cli", "conjugacy", "core", "dynamics", "errors", "kernel",
                 "orthopreserve", "serialize", "volterra"):
        assert getattr(qso, name) is sys.modules[f"qso.{name}"]


def test_star_import_binds_all():
    namespace = {}
    exec("from qso import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qso.__all__)
    assert all(namespace[name] is getattr(qso, name) for name in qso.__all__)


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'qso' has no attribute 'nope'$"):
        qso.nope  # noqa: B018
    assert not hasattr(qso, "nope")


def test_dir_lists_the_namespace():
    names = dir(qso)
    assert set(qso.__all__) <= set(names)
    assert {"core", "serialize", "__version__"} <= set(names)
    assert names == sorted(names)
