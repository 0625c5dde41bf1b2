"""Span tracing from outside the program: wrap functions, record spans in
memory, and reduce them to per-layer calls, total time and self time.

A function is patched at every binding that holds it. ``from .model import
restrict`` gives ``pipeline``, ``harness`` and ``windowing`` names of their
own, so patching ``bookcoref.model.restrict`` alone would time nothing they
call. :func:`installed` restores every original on exit.

Spans nest per thread. A span opened on a thread with no open span of its
own (an ``expand_pass`` pool worker) takes the active pass span as parent, so
the worker's time is attributed to its pass. Self time is a span's duration
minus the part of it that its children's intervals cover; with concurrent
children, overlapping intervals are counted once.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterable, Iterator, Sequence

Hook = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is a module (every module binding of the function is patched)
    or a class (its attribute is patched). ``name`` is the span name, or a
    function of the call's arguments. ``hook`` sees each result and may add
    counts. A ``is_pass`` span parents the spans of pool threads.
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple, dict], str]
    hook: Hook | None = None
    is_pass: bool = False


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pass: int | None = None

    def add(self, key: str, value: float) -> None:
        """Add to a counter; hooks run on pool threads too."""
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._pass
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, hook, is_pass = target.name, target.hook, target.is_pass

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            if is_pass:
                self._pass = idx
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_pass:
                    self._pass = None
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def summary(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds. With ``root``,
        only spans under a top-level span of that name count."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        roots: list[str] = []  # per span, the name of its top-level span
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
            roots.append(name if parent is None else roots[parent])  # a parent opens before its children
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            if root is not None and roots[idx] != root:
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered(children.get(idx, ()), start, end)
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def bindings(fn: Callable, modules: Sequence[ModuleType]) -> list[tuple[ModuleType, str]]:
    """Every (module, name) whose value is ``fn``."""
    return [(m, name) for m in modules for name, value in list(vars(m).items()) if value is fn]


@contextmanager
def installed(tracer: Tracer, targets: Sequence[Target], modules: Sequence[ModuleType]) -> Iterator[None]:
    """Patch every target for the duration of the block, then restore."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            if isinstance(target.owner, type):
                sites = [(target.owner, target.attr)]
                original = vars(target.owner)[target.attr]
            else:
                original = getattr(target.owner, target.attr)
                sites = bindings(original, modules)
            wrapper = tracer.wrap(original, target)
            for owner, attr in sites:
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
