"""In-memory span tracer that wraps library functions from outside the library.

A span records name, start, end, parent span and the workload repetition it
belongs to. Spans live in flat arrays, in the order they were opened, and are
written out once, when the benchmark ends. Nothing here knows about semcom:
callers say which functions to wrap and what to observe on each call.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections.abc import Callable, Iterator, Sequence
from types import ModuleType

import numpy as np

_MARK = "__perfbench_traced__"

# Percentiles tried, lowest first, by the tail rule in :func:`tail_percentile`.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

Observer = Callable[["Tracer", tuple, dict, object], None]

# A phase marks a stretch of a workload: ``Tracer.span`` when traced.
Phase = Callable[[str], contextlib.AbstractContextManager]


def no_phase(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class Tracer:
    """Span store plus the patch table of the functions it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.rep = array("q")
        self.errors: dict[int, str] = {}
        self.counters: dict[int, dict[str, float]] = {}
        self.current_rep = 0
        self._stack = [-1]
        self._patched: list[tuple[ModuleType, str, object]] = []

    def name_index(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self.parent.append(self._stack[-1])
        self.name_id.append(nid)
        self.rep.append(self.current_rep)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Span around a block of the benchmark's own code."""
        sid = self.open(self.name_index(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def count(self, name: str, value: float = 1) -> None:
        """Add to a counter of the current repetition."""
        bucket = self.counters.setdefault(self.current_rep, {})
        bucket[name] = bucket.get(name, 0) + value

    def _wrapper(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        nid = self.name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[sid] = type(exc).__name__
                raise
            finally:
                tracer.close(sid)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(
        self,
        targets: dict[str, Sequence[str]],
        observers: dict[str, Observer],
        package: str,
    ) -> None:
        """Wrap each ``module -> function names`` target everywhere it is bound.

        A module that did ``from .x import f`` holds its own reference to f,
        so every loaded module of ``package`` is searched and each binding of
        the original function object is replaced. Spans are named
        ``<last module component>.<function>``.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for modname, fnames in targets.items():
            home = sys.modules[modname]
            short = modname.rsplit(".", 1)[-1]
            for fname in fnames:
                original = getattr(home, fname)
                if getattr(original, _MARK, False):
                    raise RuntimeError(f"{modname}.{fname} is already wrapped")
                name = f"{short}.{fname}"
                wrapper = self._wrapper(name, original, observers.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def bindings(self) -> list[str]:
        """``module.attr`` of every binding the install replaced."""
        return [f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched]

    def uninstall(self, package: str) -> bool:
        """Put every original back; True when no wrapper is left in ``package``."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        restored = all(getattr(mod, attr) is orig for mod, attr, orig in self._patched)
        self._patched.clear()
        leftover = [
            f"{n}.{attr}"
            for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
            for attr, value in list(vars(m).items())
            if getattr(value, _MARK, False)
        ]
        return restored and not leftover

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it covered by child spans."""
        return self_times(self.start, self.end, self.parent)


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> list[float]:
    """Self time of each span, given spans stored in the order they opened.

    A child interval is clipped to its parent, and overlapping children
    are counted once, so the result never goes below zero.
    """
    out = [e - s for s, e in zip(start, end)]
    covered_to: dict[int, float] = {}
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], start[p], covered_to.get(p, -math.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
        covered_to[p] = max(covered_to.get(p, -math.inf), hi)
    return out


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample count)``, or None when even the
    median has fewer than ten samples above it.
    """
    n = len(samples)
    chosen = None
    for q in PERCENTILE_LADDER:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            chosen = q
    if chosen is None:
        return None
    return chosen, float(np.percentile(samples, chosen)), n
