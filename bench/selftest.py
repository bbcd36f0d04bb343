"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload for one second untraced and twice traced with the same
seed, then asserts that:

* the metric names and units are exactly those in ``BENCHMARK.json``;
* every run is correct, with ``failed`` 0 and ``success_rate`` 1
  (``error_rate`` 0);
* the traced work counts (calls, steps, grid points, subsets, probe
  points, bytes) repeat exactly across the two traced runs.

Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
SEED = "7"


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, msg):
        if not ok:
            problems.append(msg)

    for w in (entry["name"] for entry in spec["workloads"]):
        plain = run(w, 0)
        first, second = run(w, 1), run(w, 1)
        for label, result, units in (("trace 0", plain, e2e), ("trace 1", first, layers),
                                     ("trace 1 again", second, layers)):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{w} {label}: names or units differ from BENCHMARK.json: "
                                 f"{sorted(set(got.items()) ^ set(units.items()))}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} {label}: {result['failed']} of {result['attempted']} tasks failed")
        expect(plain["metrics"]["success_rate"]["value"] == 1.0, f"{w}: error_rate is not 0")
        counts = [k for k, u in layers.items() if u in ("count", "B")]
        differ = [k for k in counts
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        expect(not differ, f"{w}: work counts differ between two traced runs: {differ}")
        print(f"{w}: {plain['attempted']} untraced and {first['attempted']} traced tasks checked")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
