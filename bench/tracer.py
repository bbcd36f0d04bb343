"""Spans around the benchmark's calls into qso modules.

A span is ``[name, start, end, parent, task_id]`` with ``perf_counter``
times. Each task gets a root span named ``task``; every call the task makes
into a qso module is a child span named ``<module>.<function>``. Spans stay
in memory and are written once, when the run ends.

The untraced run uses :class:`NullTracer`, whose ``call`` is a plain call,
so end-to-end metrics are measured with tracing off.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

_clock = time.perf_counter


def layer_name(fn) -> str:
    """``core.apply`` for ``qso.core.apply``; methods keep their class name."""
    return fn.__module__.removeprefix("qso.") + "." + fn.__qualname__


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, fn, *args, name=None, expect=(), **kwargs):
        return fn(*args, **kwargs)

    def task(self, task_id):
        return nullcontext()

    def count(self, key, n):
        pass

    def fail(self, module):
        pass


class Tracer:
    """Records one span per task and per layer call, plus work counters."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self._task_span: int | None = None
        self._task_id: int | None = None

    @contextmanager
    def task(self, task_id):
        idx = len(self.spans)
        self.spans.append(["task", _clock(), None, None, task_id])
        self._task_span, self._task_id = idx, task_id
        try:
            yield
        finally:
            self.spans[idx][2] = _clock()
            self._task_span = self._task_id = None

    def call(self, fn, *args, name=None, expect=(), **kwargs):
        """Call ``fn`` inside a span; an exception not in ``expect`` counts as failed."""
        name = name or layer_name(fn)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        except expect:
            raise
        except Exception:
            self.fail(name.split(".", 1)[0])
            raise
        finally:
            self.spans.append([name, start, _clock(), self._task_span, self._task_id])

    def count(self, key, n):
        self.counts[key] += n

    def fail(self, module):
        self.failed[module] += 1

    def layer_stats(self) -> dict[str, dict]:
        """Per layer name: calls, busy seconds and the median span in µs.

        Layer spans have no children, so a layer's busy time is its self
        time. The task spans' self time is returned under ``bench``.
        """
        durations: dict[str, list[float]] = {}
        task_total = 0.0
        for name, start, end, _parent, _task in self.spans:
            if name == "task":
                task_total += end - start
            else:
                durations.setdefault(name, []).append(end - start)
        stats = {
            name: {
                "calls": len(ds),
                "busy_s": sum(ds),
                "us_p50": statistics.median(ds) * 1e6,
            }
            for name, ds in durations.items()
        }
        layer_total = sum(s["busy_s"] for s in stats.values())
        stats["bench"] = {"self_s": task_total - layer_total}
        return stats
