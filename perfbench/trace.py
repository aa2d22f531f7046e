"""Span recorder for the traced benchmark run.

The recorder times calls into each layer of MPROS from outside the
program: it replaces public methods on the program's classes with thin
wrappers that record a span per call.  Wrapping happens on the class,
before the workload builds its objects, so bound methods the program
captures at construction (a heartbeat ``emit`` registered with the DC
scheduler, the DC database's ``save_scheduler_cursor`` handed to the
scheduler as ``cursor_store``, the uplink's ``submit`` passed to the DC
as its sink) are the wrapped ones too.  Module-level functions are
wrapped in the modules that import them by name.

Each span records name (the layer), start, end, parent and the id of
the benchmark operation it ran under.  Spans stay in memory;
:meth:`SpanRecorder.dump` writes them out when the run ends.  A
layer's self time is its spans' duration minus the time covered by
their child spans.  The workloads are single-threaded, so spans nest
strictly and the self times of all spans add up to the time covered by
top-level spans; the rest of the traced wall time is reported as the
unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span store plus the class/module patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int | None] = []
        self.active = False
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- patching ---------------------------------------------------------
    def _wrapper(self, layer: str, fn: Callable, observer=None) -> Callable:
        """``observer(result, args)`` runs after each traced call, for
        counts taken at the same boundary as the span."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.names)
            rec.names.append(layer)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ops.append(rec.op_id)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            rec.starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = _clock()
                rec._stack.pop()
            if observer is not None:
                observer(result, args)
            return result

        return traced

    def wrap_methods(
        self, cls: type, layer: str, names: tuple[str, ...], observer=None
    ) -> None:
        """Wrap ``cls.<name>`` for each name as a span of ``layer``."""
        for name in names:
            original = cls.__dict__[name]
            self._patches.append((cls, name, original))
            setattr(cls, name, self._wrapper(layer, original, observer))

    def wrap_function(
        self, module: str, name: str, layer: str, observer=None
    ) -> None:
        """Wrap a module-level function where ``module`` looks it up."""
        mod = importlib.import_module(module)
        original = getattr(mod, name)
        self._patches.append((mod, name, original))
        setattr(mod, name, self._wrapper(layer, original, observer))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans (patches stay installed)."""
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.ops.clear()
        self._stack.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus child coverage."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i]) - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "op": self.ops[i],
                }) + "\n")
