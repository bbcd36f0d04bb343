"""Host speed probes: fixed work that does not involve qso, timed between tasks.

The reference host is a shared 2-core VM whose speed swings by up to 2x
for seconds at a time, as other tenants come and go. A run that happens to
fall in a fast stretch then reads 20-40 % better than one in a slow
stretch, more than any bound worth having. The benchmark therefore times a
fixed probe every tenth of a second (every second for the costlier spawn
probe), outside the tasks, and scales each task's latency by
``reference / local probe time``: the latency the task would have had at
the reference speed. The raw wall times are kept in the run record.

The in-process probe mixes small numpy calls with interpreter work, like
the library's hot paths. The spawn probe starts ``python -c pass``, like
the CLI workload. Neither probe may change: changing one rescales every
normalized metric.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

#: Probe times on the reference host in a quiet stretch; they only set the
#: scale, so normalized figures read as ordinary seconds on that host.
REFERENCE_S = {"inproc": 0.0035, "spawn": 0.070}
#: Seconds between probes; the spawn probe costs more, so it runs less often.
INTERVAL_S = {"inproc": 0.1, "spawn": 1.0}

_rng = np.random.default_rng(0)
_P = _rng.random((3, 3, 3))
_X = _rng.random((64, 3))
_B = _rng.random((20, 20, 20))


def _inproc() -> None:
    acc = 0.0
    for i in range(300):
        x = _X[i % 64]
        acc += float(np.einsum("ijk,i,j->k", _P, x, x).sum())
        acc += len(str({"a": i, "b": [i, i + 1]}))
    np.einsum("ija,akb->ijkb", _B, _B).max()


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class HostSpeed:
    """Probe times along a run, and the speed factor they give at any moment."""

    def __init__(self, kind: str):
        self.kind = kind
        self.reference = REFERENCE_S[kind]
        self._probe = _spawn if kind == "spawn" else _inproc
        self.times: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        self._probe()
        took = time.perf_counter() - start
        self.times.append(start)
        self.seconds.append(took)
        return took

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S[self.kind]:
            self.probe()

    def factor_at(self, t: float) -> float:
        """reference / local probe time, from the probes just before and after ``t``."""
        i = bisect.bisect_right(self.times, t)
        near = self.seconds[max(0, i - 1): i + 1]
        return self.reference / statistics.median(near)
