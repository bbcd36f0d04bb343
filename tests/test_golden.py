"""Replay the golden CLI corpus: every recorded argv prints the same bytes.

See ``tests/golden/generate.py`` for what the corpus covers and when it may
be regenerated. The orbit digests of ``tests/orbit_hashes.py`` are kept
next to it, in ``golden/orbit_hashes.txt``.
"""

from __future__ import annotations

import difflib
import json
import re

import orbit_hashes
from golden.generate import CORPUS, build_inputs, run_case

RECORDED = json.loads(CORPUS.read_text(encoding="utf-8"))
ORBITS = CORPUS.with_name("orbit_hashes.txt")


def _diff(want: dict, got: dict) -> str:
    lines = [" ".join(want["argv"])]
    for key in ("exit", "stdout", "stderr", "out"):
        if want[key] != got[key]:
            a, b = str(want[key]).splitlines(), str(got[key]).splitlines()
            lines.append(f"  {key}:")
            lines += ["    " + ln for ln in difflib.unified_diff(a, b, lineterm="", n=1)][2:]
    return "\n".join(lines)


def test_inputs_are_the_recorded_ones(tmp_path):
    assert build_inputs(tmp_path) == RECORDED["inputs"]


def test_corpus_replays_byte_for_byte(tmp_path):
    build_inputs(tmp_path)
    diffs = []
    for want in RECORDED["cases"]:
        got = run_case(want, tmp_path)
        if got != want:
            diffs.append(_diff(want, got))
    assert not diffs, f"{len(diffs)} of {len(RECORDED['cases'])} cases differ:\n" + "\n".join(
        diffs[:10]
    )


def test_no_recorded_output_prints_a_numpy_repr():
    leaks = [case["argv"] for case in RECORDED["cases"]
             if "np." in case["stdout"] or "np." in case["stderr"]]
    assert not leaks


def test_corpus_covers_every_parser_node_and_output_form():
    helps = {
        tuple(case["argv"][:-1]): case["stdout"]
        for case in RECORDED["cases"] if case["argv"][-1:] == ["--help"]
    }
    assert len(helps) == 25
    leaves = [n for n in helps if n and not any(o[: len(n)] == n != o for o in helps)]
    assert len(leaves) == 19
    for leaf in leaves:
        ran = [c for c in RECORDED["cases"]
               if tuple(c["argv"][: len(leaf)]) == leaf and c["exit"] == 0]
        assert any("--json" in c["argv"] for c in ran), leaf
        assert any("--json" not in c["argv"] and c["out"] is None for c in ran), leaf
        if "--out" in helps[leaf]:
            assert any(c["out"] is not None for c in ran), leaf
        recorded = {arg.split("=")[0] for c in RECORDED["cases"]
                    if tuple(c["argv"][: len(leaf)]) == leaf for arg in c["argv"]}
        assert set(re.findall(r"--[a-z][-a-z0-9]*", helps[leaf])) <= recorded, leaf
    assert {case["exit"] for case in RECORDED["cases"]} == {0, 1, 2}


def test_orbit_digests_are_the_recorded_ones():
    # every orbit of tests/orbit_hashes.py, bit for bit, with its stop
    assert orbit_hashes.lines() == ORBITS.read_text(encoding="utf-8").splitlines()
