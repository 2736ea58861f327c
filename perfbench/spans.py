"""In-memory span recorder and the wrappers that feed it.

The traced run patches public functions of the program from the
benchmark's own files: each call becomes a span (name, start, end, parent,
query id).  A name is patched where it is looked up at call time — a
method on its class, a module-level function in the module that calls it
(e.g. ``repro.core.query_server.fingerprint``) — and every patch is undone
by :meth:`SpanRecorder.uninstall`.

A span's *self time* is its duration minus the time its child spans
cover.  Calls on one thread nest strictly, so the children of a span never
overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from collections import Counter

NO_PARENT = -1


class SpanRecorder:
    """Spans as parallel lists, in the order they were opened (so a
    parent's index is always smaller than its children's)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[str | None] = []
        self.counts: Counter[str] = Counter()
        self.query_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    # -- recording --------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.queries.append(self.query_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self._clock()
        self._stack.pop()

    # -- patching ---------------------------------------------------------------

    def _target(self, module_name: str, path: str) -> tuple[object, str, object]:
        owner: object = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{module_name}.{path} is not a plain function")
        return owner, attr, original

    def wrap(self, module_name: str, path: str, span_name: str, query_arg: str | None = None) -> None:
        """Record a span named ``span_name`` around every call of
        ``module_name.path``; ``query_arg`` names a keyword argument whose
        value becomes the query id of the span and of everything under it."""
        owner, attr, original = self._target(module_name, path)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            previous = recorder.query_id
            if query_arg is not None and kwargs.get(query_arg) is not None:
                recorder.query_id = kwargs[query_arg]
            index = recorder.open(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)
                recorder.query_id = previous

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def count(self, module_name: str, path: str, counter: str) -> None:
        """Count the calls of ``module_name.path`` that return non-None."""
        owner, attr, original = self._target(module_name, path)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if result is not None:
                counts[counter] += 1
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start and end in
        microseconds from the first span, parent index, query id."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        [
                            name,
                            round((self.starts[i] - origin) * 1e6, 1),
                            round((self.ends[i] - origin) * 1e6, 1),
                            self.parents[i],
                            self.queries[i],
                        ]
                    )
                )
                handle.write("\n")


def self_times(
    names: list[str],
    starts: list[float],
    ends: list[float],
    parents: list[int],
    first: int = 0,
    stop: int | None = None,
) -> dict[str, float]:
    """name -> summed self time of the spans with index in [first, stop)."""
    child_time = [0.0] * len(names)
    for i in range(len(names)):
        parent = parents[i]
        if parent != NO_PARENT:
            child_time[parent] += ends[i] - starts[i]
    totals: dict[str, float] = {}
    for i in range(first, len(names) if stop is None else stop):
        own = ends[i] - starts[i] - child_time[i]
        totals[names[i]] = totals.get(names[i], 0.0) + own
    return totals


def time_excluding(
    names: list[str],
    starts: list[float],
    ends: list[float],
    parents: list[int],
    name: str,
    exclude_prefix: str,
    first: int = 0,
) -> float:
    """Total duration of the outermost ``name`` spans minus the time the
    outermost ``exclude_prefix`` spans under them cover."""
    top: list[int] = [NO_PARENT] * len(names)
    excluded: list[bool] = [False] * len(names)
    total = 0.0
    for i in range(len(names)):
        parent = parents[i]
        parent_top = top[parent] if parent != NO_PARENT else NO_PARENT
        parent_excluded = excluded[parent] if parent != NO_PARENT else False
        is_excluded = names[i].startswith(exclude_prefix)
        excluded[i] = is_excluded or parent_excluded
        if names[i] == name and parent_top == NO_PARENT:
            top[i] = i
            if i >= first:
                total += ends[i] - starts[i]
        else:
            top[i] = parent_top
            if is_excluded and not parent_excluded and parent_top >= first:
                total -= ends[i] - starts[i]
    return total


def covered_time(starts: list[float], ends: list[float], parents: list[int], first: int = 0) -> float:
    """Time covered by top-level spans from index ``first`` on."""
    return sum(
        ends[i] - starts[i] for i in range(first, len(parents)) if parents[i] == NO_PARENT
    )
