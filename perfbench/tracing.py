"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces every public function of the traced modules at
each module attribute that holds it, so calls are seen wherever callers look
them up, including calls inside the library such as ``verify_strong_iasi``
reaching ``induced_edge_labels``.  ``Tracer.remove`` puts the originals back.
A span records name, start, end, parent and thread id; a span opened on a
worker thread with nothing open on that thread gets the innermost open span
of the thread that started the op as its parent, which is where the thread
pool's cells come from.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import types
from collections import defaultdict
from typing import Callable

TRACED_MODULES = ("cli", "nourish", "families", "graphcore", "iasi", "setalg")


def _edges(graph) -> dict[str, int]:
    return {"edges": len(graph.edges)}


def _clique(args, result) -> dict[str, int]:
    g = args[0]
    return {"omega": len(result), "shortcut": int(len(g.edges) == g.n * (g.n - 1) // 2)}


# Counts taken at the span boundary, from arguments and result; each is O(1)
# or linear in a small result, so it adds little to the parent's self time.
# A count whose argument or result no longer has the expected shape is
# skipped rather than failing the op.
HOOKS: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "graphcore.power": lambda args, result: _edges(result),
    "families.generate": lambda args, result: _edges(result),
    "graphcore.max_clique": _clique,
    "iasi.sidon_sequence": lambda args, result: {"max_term": result[-1] if result else 0},
    "iasi.greedy_coloring": lambda args, result: {"colors": max(result, default=-1) + 1},
    "iasi.verify_strong_iasi": lambda args, result: {
        "edges": len(args[0].edges), "failures": len(result.failures)},
}


def _counts(hook, args, result) -> dict[str, int] | None:
    if hook is None:
        return None
    try:
        return hook(args, result)
    except (AttributeError, TypeError, IndexError):
        return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._root_tid = threading.get_ident()
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    @staticmethod
    def _modules() -> list[types.ModuleType]:
        """The traced modules, then the package, which re-exports some of their functions."""
        return [importlib.import_module(f"nourishing.{m}") for m in TRACED_MODULES] + [
            importlib.import_module("nourishing")]

    def public_functions(self) -> dict[str, Callable]:
        """``module.name`` -> function, for every public function defined in a traced module."""
        found = {}
        for module in self._modules()[:-1]:
            for name, value in vars(module).items():
                if (not name.startswith("_") and isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    found[f"{module.__name__.rsplit('.', 1)[-1]}.{name}"] = value
        return found

    def install(self) -> None:
        wrappers = {fn: self._wrap(name, fn) for name, fn in self.public_functions().items()}
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def remove(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        stacks, spans, ids = self._stacks, self.spans, self._ids
        root_tid = self._root_tid
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                root = stacks.get(root_tid)
                parent = root[-1] if root else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tid, None))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, name, start, end, parent, tid, _counts(hook, args, result)))
            return result

        return traced

    def open_root(self) -> int:
        """Open the op's own span on the calling thread; returns its id for ``close_root``."""
        sid = next(self._ids)
        self._stacks.setdefault(self._root_tid, []).append(sid)
        self._root_start = time.perf_counter_ns()
        return sid

    def close_root(self, sid: int) -> None:
        end = time.perf_counter_ns()
        self._stacks[self._root_tid].pop()
        self.spans.append((sid, "op", self._root_start, end, None, self._root_tid, None))

    def take(self) -> list[tuple]:
        """The spans recorded so far, clearing the record."""
        spans, self.spans[:] = list(self.spans), []
        return spans


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span, as shares of wall time.

    At each instant the spans that are open and have no open child are the
    ones doing their own work; the instant's wall time is split evenly among
    them.  On one thread this is a span's duration minus the union of its
    children's intervals; with children running on several threads their
    overlap is shared out rather than counted twice, so the self times of an
    op's spans add up to the op's wall time.
    """
    events = []
    for sid, _name, start, end, parent, _tid, _counts in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, sid, parent))
    events.sort()
    own: dict[int, float] = defaultdict(float)
    open_spans: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    last = events[0][0] if events else 0
    for t, is_start, sid, parent in events:
        if active and t > last:
            share = (t - last) / len(active)
            for a in active:
                own[a] += share
        last = t
        if is_start:
            open_spans.add(sid)
            if parent in open_spans:
                open_children[parent] += 1
                active.discard(parent)
            if not open_children[sid]:
                active.add(sid)
        else:
            open_spans.discard(sid)
            active.discard(sid)
            if parent in open_spans:
                open_children[parent] -= 1
                if not open_children[parent]:
                    active.add(parent)
    return {sid: own.get(sid, 0.0) for sid, *_ in spans}


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ns, self ns and summed hook counts."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, _parent, _tid, counts in spans:
        row = table[name]
        row["calls"] += 1
        row["ns"] += end - start
        row["self_ns"] += own[sid]
        for key, value in (counts or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}
