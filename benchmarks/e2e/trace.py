"""Span recording around the public layer boundaries of ``repro``.

The traced benchmark server calls :func:`install` once, before it
serves.  Each entry of :data:`TARGETS` names a public callable *at the
place its caller looks it up* (a class attribute, or the module global
the calling module imported); the callable is replaced by a wrapper
that records ``(name, start, end, parent span)`` on a per-thread
stack.  Spans stay in memory until the server shuts down and are then
dumped as one JSON document for the harness, which computes self
times (a span's duration minus what its child spans cover) and matches
root spans to client requests.

Nothing inside the program is edited: a target that no longer exists
is listed under ``missing`` and its metric reads ``null``, so a
refactor of the layers underneath does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable

#: span name -> (module, class or None, attribute).
TARGETS: dict[str, tuple[str, str | None, str]] = {
    "core.parse": ("repro.api.session", None, "parse_query"),
    "api.execute": ("repro.api.session", "Statement", "execute"),
    "planner.profile": ("repro.api.session", None, "collect_profile"),
    "planner.choose": ("repro.planner.planner", "Planner", "choose"),
    "service.execute": ("repro.serve.service", "QueryService", "execute"),
    "cache.plan_lookup": ("repro.serve.cache", "PlanCache", "get_or_compile"),
    "algorithms.compile": ("repro.serve.service", None, "compile_with"),
    "engine.execute_plan": ("repro.serve.service", None, "execute_plan"),
    "ivm.capture": ("repro.serve.ivm", None, "capture_state"),
    "ivm.merge": ("repro.serve.ivm", None, "merge_state"),
    "service.apply_delta": (
        "repro.serve.service", "QueryService", "apply_delta"
    ),
    "data.apply": ("repro.data.versioned", "VersionedDatabase", "apply_delta"),
}


def _note_parse(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"text": str(result)}


def _note_execute(args: tuple, kwargs: dict, result: Any) -> dict:
    """The paper's currency for one executed statement."""
    report = result.report
    return {
        "text": args[0].text,
        "algorithm": result.algorithm,
        "ivm": result.ivm,
        "rounds": report.num_rounds,
        "max_load_bits": report.max_load_bits,
        "max_load_tuples": report.max_load_tuples,
        "total_bits": report.total_bits,
        "replication_rate": report.replication_rate,
        "predicted_load": result.explain.predicted_load,
    }


def _note_phases(args: tuple, kwargs: dict, result: Any) -> dict:
    """Engine phase seconds, from the public ``profiler=`` argument."""
    profiler = kwargs.get("profiler")
    if profiler is None:
        return {}
    from repro.engine.profile import PHASES

    return {
        "phases": {phase: profiler.phase_total(phase) for phase in PHASES}
    }


#: span name -> what to keep from the call beside its times.
NOTES: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "core.parse": _note_parse,
    "api.execute": _note_execute,
    "engine.execute_plan": _note_phases,
}


class Tracer:
    """In-memory span log of one server process."""

    def __init__(self) -> None:
        #: [id, name, start, end, parent id or None, note dict or None];
        #: times are ``time.perf_counter()`` seconds, which on Linux is
        #: the system-wide monotonic clock the client reads too.
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()
        # Two threads record (the event loop parses, the control
        # thread executes): ids come from a counter, not list length.
        self._ids = itertools.count()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recorded as a span called ``name``."""
        note = NOTES.get(name)
        spans = self.spans
        local = self._local
        ids = self._ids

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            record = [span_id, name, 0.0, 0.0, parent, None]
            spans.append(record)
            stack.append(span_id)
            record[2] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                record[3] = time.perf_counter()
                if note is not None:
                    record[5] = note(args, kwargs, result)
                return result
            finally:
                if not record[3]:
                    record[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every target that exists; remember the ones that don't."""
        for name, (module_name, class_name, attribute) in TARGETS.items():
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                function = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(owner, attribute, self.wrap(name, function))

    def dump(self) -> dict:
        """Everything recorded, JSON-ready."""
        return {"spans": self.spans, "missing": self.missing}
