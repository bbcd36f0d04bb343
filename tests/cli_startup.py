"""Wall and CPU time of one ``qso`` process per command, for two source trees.

    python tests/cli_startup.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``qso`` package (a checkout's
``src``). The commands are the ten kinds of the benchmark's ``cli`` workload
(``bench/workloads.py``; ``algebra residual`` at m = 20), with input files
that workload writes from seed ``SEED``. Each of ``RUNS`` rounds runs every
command once under each tree, in an order that alternates between rounds,
so both trees see the same host load. A first, untimed round checks that both trees give
the same exit code, stdout and stderr.

Per command it prints the median wall ms from spawn to exit and the median
child CPU ms (user + system, from ``os.wait4``), and the change in CPU from
OLD to NEW. CPU time is much less noisy than wall time on a shared host. As
in the benchmark, the children run with one BLAS thread; the rest of the
environment is passed on as it is, so with ``PYTHONDONTWRITEBYTECODE``
unset the trees keep their ``__pycache__`` and the numbers are those of a
warm install. The name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# as in the benchmark's CLI children; OpenBLAS's default thread pool would
# add its start-up to every child's CPU time
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
RUNS = 24  # timed runs per command and tree
SEED = 0  # seed of the workload's input files


def commands(workdir: Path, new_src: Path) -> dict[str, list[str]]:
    """One argv per ``cli`` workload kind, with its input files written to ``workdir``."""
    sys.path[:0] = [str(new_src), str(ROOT / "bench")]
    import numpy as np
    from workloads import Cli

    wl = Cli(np.random.default_rng(SEED), workdir)
    argv = {}
    for task_id, kind in enumerate(wl.round_kinds):
        argv.setdefault(kind[0], wl.make_task(task_id, kind).data["argv"])
    return argv


def _child(src: Path, argv: list[str]) -> tuple[list[str], dict]:
    env = {**os.environ, "PYTHONPATH": str(src), **ONE_BLAS_THREAD}
    return [sys.executable, "-m", "qso.cli", *argv], env


def spawn(src: Path, argv: list[str], cwd: Path) -> tuple[float, float]:
    """(wall s, child CPU s) of one ``qso`` process, its output discarded."""
    cmd, env = _child(src, argv)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_utime + usage.ru_stime


def output(src: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    cmd, env = _child(src, argv)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    args = ap.parse_args(argv)
    trees = (args.old_src.resolve(), args.new_src.resolve())

    with tempfile.TemporaryDirectory(prefix="cli-startup-") as tmp:
        workdir = Path(tmp)
        cmds = commands(workdir, trees[1])
        for kind, cmd in cmds.items():
            old, new = (output(src, cmd, workdir) for src in trees)
            if old != new:
                print(f"{kind}: the trees differ on {cmd}:\n  {old}\n  {new}", file=sys.stderr)
                return 1
        times = {(kind, side): ([], []) for kind in cmds for side in (0, 1)}
        for run in range(RUNS):
            for kind, cmd in cmds.items():
                for side in (run % 2, 1 - run % 2):
                    wall, cpu = spawn(trees[side], cmd, workdir)
                    times[kind, side][0].append(wall * 1e3)
                    times[kind, side][1].append(cpu * 1e3)

    print(f"{RUNS} runs per command and tree, medians in ms; "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    print(f"{'command':<18}{'wall old':>10}{'wall new':>10}{'cpu old':>10}{'cpu new':>10}"
          f"{'cpu change':>12}")
    for kind in cmds:
        (wall_old, cpu_old), (wall_new, cpu_new) = (
            [statistics.median(v) for v in times[kind, side]] for side in (0, 1))
        print(f"{kind:<18}{wall_old:>10.1f}{wall_new:>10.1f}{cpu_old:>10.1f}{cpu_new:>10.1f}"
              f"{(cpu_new / cpu_old - 1) * 100:>+11.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
