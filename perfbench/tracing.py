"""In-memory spans and counters recorded around calls into confdop.

The wrappers replace the names that `confdop.cli` and `confdop.checks`
import (for example `confdop.cli.simulate`), so every layer span nests
under the CLI-command span the benchmark opens around `cli.main`.  No
confdop source file changes.  The 3 us kernel calls are only counted,
never timed: a timing wrapper would cost as much as the call.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from collections import defaultdict

import confdop.checks
import confdop.cli

_NULL = contextlib.nullcontext()

# (module, attribute, span name, counter name, count(args, result))
_TIMED = (
    (confdop.cli, "simulate", "tracking.simulate", "tracking.records",
     lambda args, res: len(res)),
    (confdop.cli, "write_records_csv", "tracking.write_records_csv", "tracking.csv_bytes",
     lambda args, res: os.path.getsize(args[1])),
    (confdop.cli, "read_records_csv", "tracking.read_records_csv", None, None),
    (confdop.cli, "fit_alpha", "estimator.fit_alpha", None, None),
    (confdop.cli, "bootstrap_alpha", "estimator.bootstrap_alpha", "estimator.resamples",
     lambda args, res: args[1]),
    (confdop.cli, "build_manifest", "manifest.build_manifest", "manifest.bytes_hashed",
     lambda args, res: sum(o["size_bytes"] for o in res.outputs)),
    (confdop.cli, "write_manifest", "manifest.write_manifest", None, None),
    (confdop.checks, "run_group_suite", "checks.group", "checks.cases",
     lambda args, res: res.cases),
    (confdop.checks, "run_oracle_suite", "checks.oracle", "checks.cases",
     lambda args, res: res.cases),
    (confdop.checks, "run_hill_suite", "checks.hill", "checks.cases",
     lambda args, res: res.cases),
    (confdop.checks, "run_metric_suite", "checks.metric", "checks.cases",
     lambda args, res: res.cases),
)

# (module, attribute, counter name): counted, not timed
_COUNTED = (
    (confdop.cli, "transform_finite", "conformal.transform_finite_calls"),
    (confdop.checks, "transform_finite", "conformal.transform_finite_calls"),
)


class NullTracer:
    """Stands in for a Tracer in untraced operations; records nothing."""

    def span(self, name):
        return _NULL


class Tracer:
    """Spans (name, start, end, parent, op) and per-op counters, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op index]
        self.ops = []  # (kind, {counter: value})
        self._stack = []
        self._counts = None

    def begin_op(self, kind: str) -> None:
        self._counts = defaultdict(int)
        self.ops.append((kind, self._counts))

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, len(self.ops) - 1])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def add(self, counter: str, n) -> None:
        self._counts[counter] += n

    @contextlib.contextmanager
    def installed(self):
        """Put the wrappers on the imported names for the duration of the block."""
        saved = []
        for module, attr, name, counter, count in _TIMED:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._timed(getattr(module, attr), name, counter, count))
        for module, attr, counter in _COUNTED:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._counted(getattr(module, attr), counter))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _timed(self, fn, name, counter, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.add(counter, count(args, result))
            return result

        return wrapper

    def _counted(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def per_op(self):
        """Per op: (kind, {span name: (total s, self s)}, counters)."""
        times = [defaultdict(lambda: [0.0, 0.0]) for _ in self.ops]
        for name, start, end, parent, op in self.spans:
            duration = end - start
            entry = times[op][name]
            entry[0] += duration
            entry[1] += duration
            if parent is not None:
                times[op][self.spans[parent][0]][1] -= duration
        return [(kind, times[i], counts) for i, (kind, counts) in enumerate(self.ops)]

    def layer_metrics(self) -> dict:
        """{op kind: {metric: median over ops of that kind}} for every span's
        total and self time and every counter."""
        values = defaultdict(list)
        for kind, times, counts in self.per_op():
            for name, (total, self_time) in times.items():
                values[(kind, f"{name}_s", "s")].append(total)
                values[(kind, f"{name}_self_s", "s")].append(self_time)
            for name, n in counts.items():
                values[(kind, name, "count")].append(n)
        layers = defaultdict(dict)
        for (kind, name, unit), v in sorted(values.items()):
            mid = statistics.median(v) if unit == "s" else statistics.median_low(v)
            layers[kind][name] = {"value": mid, "unit": unit, "samples": len(v)}
        return dict(layers)

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
