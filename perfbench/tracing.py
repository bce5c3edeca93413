"""In-memory spans around the public functions of each qcdesign layer.

The benchmark wraps each function where the program looks it up: ``cli`` and
``search`` bind names such as ``oracle_projectivity`` or ``build_design`` as
module globals, so every module global that is the original function object
is swapped for the wrapper, and swapped back afterwards.  Nothing inside the
program changes.

A span records name, start, end, parent span and thread id.  ``verify`` calls
the layers from its thread pool; a span that opens on a pool thread with
nothing open on that thread takes as parent the innermost span open on the
thread that created the tracer, which is the ``cli.main`` call that started
the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

#: Receives (counters, args, result) and adds the work the call did.
Counter = Callable[[dict, tuple, object], None]


def _bytes_read(counters: dict, args: tuple, result: object) -> None:
    counters["cli.load_design.bytes_read"] += Path(args[0]).stat().st_size


def _table_bytes(counters: dict, args: tuple, result: object) -> None:
    # Computed, not measured: the int64 J-table holds 2^q entries.
    counters["oracle.j_characteristics.table_bytes"] += 8 << args[0].n_factors


def _cells(counters: dict, args: tuple, result: object) -> None:
    counters["qc_core.build_design.cells"] += result.n_runs * result.n_factors


#: (layer module, function, counter) for every wrapped function.
TARGETS: tuple[tuple[str, str, Counter | None], ...] = (
    ("cli", "main", None),
    ("cli", "load_design", _bytes_read),
    ("search", "optimize", None),
    ("theory", "_raw_family", None),
    ("theory", "family_spectrum", None),
    ("oracle", "projectivity", None),
    ("oracle", "projection_level_full", None),
    ("oracle", "j_characteristics", _table_bytes),
    ("oracle", "spectrum_bruteforce", None),
    ("spectrum", "spectrum_metrics", None),
    ("qc_core", "build_design", _cells),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn, _ in TARGETS)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    error: bool


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._origin = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._counter_lock = threading.Lock()

    def _parent(self, tid: int, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        if tid == self._origin:
            return None
        # A slice never raises, even if the origin thread pops meanwhile.
        top = self._stacks.get(self._origin, [])[-1:]
        return top[0] if top else None

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            parent = self._parent(tid, stack)
            sid = next(self._ids)
            stack.append(sid)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, tid, error))
            if counter is not None:
                with self._counter_lock:
                    counter(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets=TARGETS) -> Iterator["Tracer"]:
        """Swap every module-global binding of each target for its wrapper."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "qcdesign" or name.startswith("qcdesign.")
        ]
        swapped: list[tuple[object, str, object]] = []
        try:
            for layer, fn_name, counter in targets:
                original = getattr(importlib.import_module(f"qcdesign.{layer}"), fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            swapped.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as compact JSON rows, names interned."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [s.id, index[s.name], s.start, s.end, s.parent, s.thread, int(s.error)]
            for s in self.spans
        ]
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "thread", "error"],
            "names": names,
            "spans": rows,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover.

    Children may run on other threads and overlap each other, so the covered
    part is the union of their intervals, not the sum of their durations.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id])
        for s in spans
    }


def layer_metrics(spans: Iterable[Span], names: Iterable[str] = SPAN_NAMES) -> dict[str, float]:
    """calls, total_s, self_s and errors per span name (zero when never called)."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.errors"] = 0
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += own[s.id]
        out[f"{s.name}.errors"] += int(s.error)
    return out
