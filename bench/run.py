"""Benchmark of the qso library and CLI: one workload per process.

    python3 bench/run.py --workload explore-s2 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; qso is imported from ``src/``. Every
workload is a closed loop with one client: the next task starts when the
previous one has returned and its outputs have been checked. BLAS is
pinned to one thread, so the load stays within two cores.

``--trace 0`` runs the tasks for ``--seconds`` and prints the end-to-end
metrics. ``--trace 1`` runs a fixed number of tasks, each once untraced and
once traced, prints the per-layer metrics and writes the spans to
``.bench_out/``. The last line of standard output is the result object;
the line before it is the run record (machine, versions, sample counts).
See ``bench/README.md`` for the workloads and metrics.
"""

import os

# Before numpy loads: one BLAS thread, here and in every CLI child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
INTERPRETER_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

LAYER_FUNCTIONS = [
    "core.validate", "core.apply",
    "volterra.is_volterra", "volterra.volterra_certificate",
    "volterra.to_canonical", "volterra.from_canonical",
    "orthopreserve.op_family", "orthopreserve.is_orthogonality_preserving",
    "orthopreserve.classify_op",
    "conjugacy.conjugate",
    "algebra.is_associative", "algebra.associator_residual", "algebra.refute_associativity",
    "kernel.FiniteKernel.from_tensor", "kernel.kernel_is_volterra", "kernel.kernel_volterra_oracle",
    "dynamics.iterate",
    "serialize.encode", "serialize.decode",
    "cli.main",
]
MODULES = ["core", "volterra", "orthopreserve", "conjugacy", "algebra", "kernel",
           "dynamics", "serialize", "cli"]
WORK_COUNTS = {
    "dynamics.iterate.steps": "count",
    "algebra.associator_residual.bytes_computed": "B",
    "algebra.refute_associativity.grid_points": "count",
    "kernel.kernel_volterra_oracle.subsets": "count",
    "orthopreserve.is_orthogonality_preserving.probe_points": "count",
    "serialize.encode.bytes": "B",
    "serialize.decode.bytes": "B",
}
CLI_COMMANDS = ["validate", "apply", "op_build", "op_classify", "op_conjugate",
                "algebra_residual", "algebra_refute", "kernel_oracle", "dyn_iterate", "malformed"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for f in LAYER_FUNCTIONS:
        units.update({f"{f}.calls": "count", f"{f}.busy_s": "s", f"{f}.us_p50": "us"})
    units.update({f"{m}.failed": "count" for m in MODULES})
    units.update(WORK_COUNTS)
    units["dynamics.iterate.us_per_step"] = "us"
    units.update({f"cli.{c}.ms_p50": "ms" for c in CLI_COMMANDS})
    units.update({"cli.interpreter.ms_p50": "ms", "cli.import.ms_p50": "ms"})
    units.update({"bench.self_s": "s", "bench.trace_overhead_ms": "ms", "bench.traced_tasks": "count"})
    return units


def load_qso():
    """Import qso from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "qso" / "__init__.py").is_file():
        print(f"error: no qso package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import qso

    if Path(qso.__file__).resolve().parent != (SRC / "qso").resolve():
        print(f"error: imported qso from {qso.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def make_workload(name: str, seed: int, workdir: Path):
    import numpy as np
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        raise SystemExit(2)
    return WORKLOADS[name](np.random.default_rng(seed), workdir)


def run_task(wl, task, tracer):
    """Run and check one task; returns (latency in s, failures)."""
    start = time.perf_counter()
    try:
        with tracer.task(task.id):
            out = wl.run(task, tracer)
    except Exception as exc:  # a task that raises counts as failed
        return time.perf_counter() - start, [("bench", f"task {task.id} raised {exc!r}")]
    latency = time.perf_counter() - start
    try:
        fails = wl.check(task, out)
    except Exception as exc:
        fails = [("bench", f"checking task {task.id} raised {exc!r}")]
    for module, _ in fails:
        tracer.fail(module)
    return latency, fails


def report_failures(fails, limit=3):
    for module, msg in fails[:limit]:
        print(f"check failed [{module}]: {msg}", file=sys.stderr)


def percentile(values, q):
    """The q-th percentile (0 < q < 100), interpolating between ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first task being ready.

    Returns the wall times and the same times scaled to the reference host
    speed by the spawn probes taken just before and just after each one.
    """
    from hostspeed import HostSpeed

    speed = HostSpeed("spawn")
    raw = []
    speed.probe()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        speed.probe()
    scaled = [took * speed.reference / statistics.mean(speed.seconds[i:i + 2])
              for i, took in enumerate(raw)]
    return raw, scaled


def measure_commands(argv: list[str]) -> float:
    """Median wall ms of a short-lived interpreter running ``argv``."""
    times = []
    for _ in range(INTERPRETER_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def run_untraced(wl, seconds: float, speed):
    """Closed loop for ``seconds``: (start, latency) per task and the failed tasks."""
    from tracer import NullTracer

    tracer = NullTracer()
    tasks, fails = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        speed.maybe_probe()
        start = time.perf_counter()
        latency, f = run_task(wl, wl.next_task(), tracer)
        tasks.append((start, latency))
        if f:
            fails.append(f)
    speed.probe()
    return tasks, fails


def end_to_end(args, wl) -> tuple[dict, dict]:
    from hostspeed import HostSpeed

    speed = HostSpeed(wl.probe_kind)
    tasks, fails = run_untraced(wl, args.seconds, speed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup_raw, setup = measure_setup(args.workload, args.seed)
    for f in fails:
        report_failures(f)
    attempted, failed = len(tasks), len(fails)
    raw = [latency for _, latency in tasks]
    scaled = [latency * speed.factor_at(start) for start, latency in tasks]
    metrics = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": attempted / sum(scaled),
        "task_ms_p50": statistics.median(scaled) * 1e3,
        "task_ms_p90": percentile(scaled, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted,
    }
    record = {
        "tasks": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "samples_above_p90": sum(x * 1e3 > metrics["task_ms_p90"] for x in scaled),
        "wall": {
            "setup_s": statistics.median(setup_raw),
            "tasks_per_s": attempted / sum(raw),
            "task_ms_p50": statistics.median(raw) * 1e3,
            "task_ms_p90": percentile(raw, 90) * 1e3,
        },
        "probe_ms_p50": statistics.median(speed.seconds) * 1e3,
        "probes": len(speed.seconds),
    }
    return metrics, record


def traced(args, wl) -> tuple[dict, dict]:
    from tracer import NullTracer, Tracer

    tracer, untraced = Tracer(), NullTracer()
    n = max(2, int(args.seconds * wl.trace_rate / 2))
    failed, plain_s, traced_s = 0, 0.0, 0.0
    for _ in range(n):
        task = wl.next_task()
        for t in (untraced, tracer):
            latency, f = run_task(wl, task, t)
            if t is tracer:
                traced_s += latency
            else:
                plain_s += latency
            failed += bool(f)
            report_failures(f)

    stats = tracer.layer_stats()
    cli_spans = {name: s for name, s in stats.items() if name.startswith("cli.")}
    if cli_spans:
        durations = [end - start for name, start, end, *_ in tracer.spans if name.startswith("cli.")]
        stats["cli.main"] = {"calls": len(durations), "busy_s": sum(durations),
                             "us_p50": statistics.median(durations) * 1e6}
    metrics = {}
    for f in LAYER_FUNCTIONS:
        s = stats.get(f, {"calls": 0, "busy_s": 0.0, "us_p50": 0.0})
        metrics.update({f"{f}.calls": s["calls"], f"{f}.busy_s": s["busy_s"], f"{f}.us_p50": s["us_p50"]})
    metrics.update({f"{m}.failed": tracer.failed[m] for m in MODULES})
    metrics.update({k: tracer.counts[k] for k in WORK_COUNTS})
    steps = tracer.counts["dynamics.iterate.steps"]
    metrics["dynamics.iterate.us_per_step"] = (
        metrics["dynamics.iterate.busy_s"] / steps * 1e6 if steps else 0.0)
    for c in CLI_COMMANDS:
        metrics[f"cli.{c}.ms_p50"] = cli_spans.get(f"cli.{c}", {"us_p50": 0.0})["us_p50"] / 1e3
    cli = args.workload == "cli"
    metrics["cli.interpreter.ms_p50"] = measure_commands(["-c", "pass"]) if cli else 0.0
    metrics["cli.import.ms_p50"] = measure_commands(["-c", "import qso.cli"]) if cli else 0.0
    metrics["bench.self_s"] = stats["bench"]["self_s"]
    metrics["bench.trace_overhead_ms"] = (traced_s - plain_s) / n * 1e3
    metrics["bench.traced_tasks"] = n

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "task"],
                                      "spans": tracer.spans}))
    record = {"tasks": 2 * n, "failed": failed, "traced_tasks": n,
              "untraced_task_ms_mean": plain_s / n * 1e3, "traced_task_ms_mean": traced_s / n * 1e3,
              "spans": str(spans_path.relative_to(ROOT))}
    return metrics, record


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        info["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = [line.split()[-1] for line in fh if "openblas" in line.lower()]
        if libs:
            lib = ctypes.CDLL(libs[0])
            for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    break
    except OSError:
        pass
    return info


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one qso workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    load_qso()

    workdir = Path(tempfile.mkdtemp(prefix=".qsobench-", dir=ROOT))
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        metrics, record = (traced if args.trace else end_to_end)(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine_info(), **blas_info(), **record}
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["tasks"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
