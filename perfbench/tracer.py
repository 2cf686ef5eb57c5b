"""Span tracer that wraps datamoll's public functions from outside the package.

A :class:`Target` names one public function (``module.function``).  The
tracer finds every module global that binds that function object, because
``from .tensors import dct2d`` in ``mollifier`` makes a second binding that
patching ``tensors.dct2d`` alone would miss, and swaps a wrapper in at each
site while :meth:`Tracer.active` is entered.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent).  Spans stay in memory in flat arrays; a
span's self time is its duration minus the durations of its direct children.
A generator function gets one span per resumption, so the work done between
two yields is charged to it and the caller's work on the yielded item is not.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Target:
    """One public function to trace.

    ``count_only`` records a call count and no span, for functions too small
    for a span's cost.  ``label`` maps the call's arguments to a suffix of
    the span name.  ``counter`` names a counter and maps (args, kwargs,
    result) to the amount added to it after each call.
    """

    module: str
    func: str
    count_only: bool = False
    label: Callable[[tuple, dict], str] | None = None
    counter: tuple[str, Callable[[tuple, dict, object], float]] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


class Tracer:
    """Records spans for the targets while :meth:`active` is entered."""

    def __init__(
        self,
        package: str,
        targets: Iterable[Target],
        modules: Iterable[ModuleType],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self._patches: list[tuple[ModuleType, str, object, object]] = []
        modules = list(modules)
        for target in targets:
            owner = next(m for m in modules if m.__name__ == f"{package}.{target.module}")
            original = getattr(owner, target.func)
            self.originals[target.name] = original
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def patch_sites(self, name: str) -> list[str]:
        """``module.attr`` of every binding of target ``name`` the tracer swaps."""
        original = self.originals[name]
        return [f"{m.__name__}.{a}" for m, a, o, _ in self._patches if o is original]

    @contextlib.contextmanager
    def active(self) -> Iterator["Tracer"]:
        """Install every wrapper on entry and restore the originals on exit."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        if target.count_only:
            name = f"{target.name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counters[name] = self.counters.get(name, 0.0) + 1.0
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):
            name_id = self._id(target.name)

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._enter(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    yield item

            return generator

        fixed_id = None if target.label else self._id(target.name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if fixed_id is None:
                name_id = self._id(f"{target.name}.{target.label(args, kwargs)}")
            else:
                name_id = fixed_id
            idx = self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if target.counter is not None:
                self.count(target.counter[0], target.counter[1](args, kwargs, result))
            return result

        return spanned

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns: name_id, parent, start, end, self."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "self": duration - child,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Inclusive seconds double-count a function that is open inside
        itself; no traced function recurses.
        """
        cols = self.spans()
        k = len(self.names)
        ids = cols["name_id"]
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=cols["end"] - cols["start"], minlength=k)
        own = np.bincount(ids, weights=cols["self"], minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }


def unpatched_bindings(originals: dict[str, object], modules: Iterable[ModuleType]) -> list[str]:
    """Bindings that still reach an original while the tracer is active.

    Looks at module globals and one level into dict, list, tuple and set
    values, where a function stored in a table would escape the tracer.
    """
    wanted = {id(fn): name for name, fn in originals.items()}
    found = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            items = [value]
            if isinstance(value, dict):
                items += list(value.values())
            elif isinstance(value, (list, tuple, set, frozenset)):
                items += list(value)
            for item in items:
                if id(item) in wanted:
                    found.append(f"{module.__name__}.{attr} -> {wanted[id(item)]}")
    return found
