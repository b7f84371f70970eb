"""In-memory spans around the program's module boundaries.

A ``Tracer`` replaces public names (a module function, or a method on a
class) with wrappers that open a span around each call.  Spans carry a
name, start, end and the id of the enclosing span; they stay in memory
until the traced process writes them out.  Self time is a span's duration
minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


class TracerError(RuntimeError):
    """A boundary the tracer should wrap does not exist."""


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass(frozen=True)
class Boundary:
    """One public name to wrap.

    ``name`` is the span name, or a callable ``(args, kwargs) -> str``;
    ``on_result(tracer, args, kwargs, result)`` records counters after the
    span has closed.
    """

    module: str
    attribute: str                 # "func" or "Class.method"
    name: object
    on_result: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter, origin: float | None = None):
        self.clock = clock
        self.origin = clock() if origin is None else origin
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._seen: set = set()

    @contextmanager
    def span(self, name: str, start: float | None = None):
        """Span around a block; ``start`` backdates it, relative to the origin."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        if start is None:
            start = self.clock() - self.origin
        try:
            yield sid
        finally:
            end = self.clock() - self.origin
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, counter: str, value: float) -> None:
        self.counters[counter] = value

    def first_time(self, key) -> bool:
        """True the first time a key is seen, so a counter can skip repeats."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def install(self, boundaries) -> None:
        """Wrap every boundary; fail before patching anything if one is missing."""
        targets = [(_resolve(b), b) for b in boundaries]
        for (owner, leaf), boundary in targets:
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, boundary))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, boundary: Boundary):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = boundary.name(args, kwargs) if callable(boundary.name) else boundary.name
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if boundary.on_result is not None:
                boundary.on_result(tracer, args, kwargs, result)
            return result

        return traced


def _resolve(boundary: Boundary):
    """(owner, attribute) for a boundary, or TracerError naming what is gone."""
    where = f"{boundary.module}.{boundary.attribute}"
    try:
        owner = importlib.import_module(boundary.module)
    except ImportError as exc:
        raise TracerError(f"cannot import {boundary.module} to wrap {where}") from exc
    *path, leaf = boundary.attribute.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise TracerError(f"{where}: {part!r} no longer exists")
        owner = getattr(owner, part)
    if not callable(getattr(owner, leaf, None)):
        raise TracerError(f"{where} no longer exists or is not callable")
    return owner, leaf


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.id]
    return totals
