"""Spans around calls into isokit, recorded from outside the package.

`Tracer.wrap` registers a wrapper for a public function at the module
attribute its callers look up at call time (for example
``isokit.cli.verify_triangle``), so spans nest without editing the package;
`install` and `restore` switch the wrappers in and out.  Spans stay in
memory as plain lists and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from typing import Any, Callable

# span record layout: [name, start_ns, end_ns, parent index, op index, extra]
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.installed = False
        self._stack: list[int] = []
        self._wrappers: list[tuple[Any, str, Any, Any]] = []

    def _open(self, name: str, rusage: bool) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if rusage:
            rec[EXTRA] = resource.getrusage(resource.RUSAGE_SELF)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        if rec[EXTRA] is not None:
            ru0, ru1 = rec[EXTRA], resource.getrusage(resource.RUSAGE_SELF)
            rec[EXTRA] = {
                "minflt": ru1.ru_minflt - ru0.ru_minflt,
                "sys_s": ru1.ru_stime - ru0.ru_stime,
                "user_s": ru1.ru_utime - ru0.ru_utime,
            }
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around the body."""
        rec = self._open(name, False)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        rusage: bool = False,
        tag: Callable[[Any], Any] | None = None,
    ) -> None:
        """Register a spanning wrapper for ``module.attr``, which `install`
        puts in place.  With `rusage` the span also records the process's
        minor page faults and user/sys CPU seconds spent inside it; `tag`
        maps the call's result to a value stored in the span."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = self._open(name, rusage)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if tag is not None:
                rec[EXTRA] = tag(result)
            return result

        self._wrappers.append((module, attr, original, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._wrappers:
            setattr(module, attr, traced)
        self.installed = True

    def restore(self) -> None:
        for module, attr, original, _ in self._wrappers:
            setattr(module, attr, original)
        self.installed = False

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children
        (single-threaded spans nest strictly, so children never overlap)."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def write(self, path) -> None:
        """One JSON list per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "op", "parent", "start_ns", "end_ns", "self_ns", "extra"]) + "\n")
            for rec, self_ns in zip(self.spans, self.self_times_ns()):
                row = [rec[NAME], rec[OP], rec[PARENT], rec[START], rec[END], self_ns, rec[EXTRA]]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
