"""In-memory tracing of the adamlab layers, installed from outside the
program by rebinding the names its callers look up.

Coarse boundaries (experiment runs, optimizer runs and epochs, probes,
theory, emission) get one span each. The hot leaves (component gradients,
values, full gradients, permutations) are called about a million times per
Fig3 experiment, so they get a count and a time aggregate instead, charged
to the span that is open when they run. Leaves must not call each other.
"""

from __future__ import annotations

import functools
import time
from types import ModuleType
from typing import Callable, Sequence

# A span is [name, start, end, parent index (-1 for a root), leaf seconds
# spent directly inside it, operation id].
NAME, START, END, PARENT, LEAF_S, OP = range(6)


class Tracer:
    def __init__(self, op_id: int = 0, clock: Callable[[], float] = time.perf_counter) -> None:
        self.op_id = op_id
        self.clock = clock
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, str], list] = {}  # (name, context) -> [calls, seconds]
        self.context = ""  # label charged with leaf calls, such as the experiment name
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, op_id = self.spans, self._stack, self.clock, self.op_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, 0.0, op_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, leaves = self.spans, self._stack, self.clock, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (name, self.context)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][LEAF_S] += dt

        return wrapper

    def leaf_totals(self) -> dict[str, list]:
        """name -> [calls, seconds], summed over contexts."""
        out: dict[str, list] = {}
        for (name, _), (calls, secs) in self.leaves.items():
            tot = out.setdefault(name, [0, 0.0])
            tot[0] += calls
            tot[1] += secs
        return out


def rebind(modules: Sequence[ModuleType], fn: Callable, wrapper: Callable) -> int:
    """Point every module-level name bound to ``fn`` at ``wrapper``, so that
    callers that imported the function by name see the wrapper too. Returns
    the number of names rebound."""
    count = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                count += 1
    return count


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover, minus the leaf time charged to it directly."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[START], s[END]
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(idx, ())
            if hi > start and lo < end
        ]
        out.append((end - start) - _covered(clipped) - s[LEAF_S])
    return out


def per_name(spans: Sequence[Sequence]) -> dict[str, dict]:
    """name -> {"calls", "total_s", "self_s"} over all spans."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        agg = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s[END] - s[START]
        agg["self_s"] += self_s
    return out
