"""Span recording around alphaflow's public functions, from outside the package.

Nothing under ``src/`` is edited: :func:`instrument` replaces each target
function with a recording wrapper at *every* module attribute that is bound
to it (``from .operators import commutator_hat`` in ``solver`` is a binding
site of its own, so patching the defining module alone would miss calls
made through it), and puts the originals back on exit.

A span is (name, start, end, parent, run id).  Spans live in parallel lists
while the benchmark runs and are written out once at the end.  Self time is
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from typing import Callable, Iterable, Sequence

#: percentile levels tried, highest first, for the tail-latency figure
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a percentile before it is reported
MIN_BEYOND = 10

PACKAGE = "alphaflow"


def scalar_transforms(shape: Sequence[int], dim: int) -> int:
    """Scalar transforms done by one call on an array of ``shape``.

    The last ``dim`` axes are the grid; every leading axis is a stack of
    independent fields, so a ``(3, n, n)`` array counts as 3 in 2D.
    """
    if len(shape) < dim:
        raise ValueError(f"shape {tuple(shape)} has fewer than {dim} grid axes")
    return math.prod(shape[: len(shape) - dim])


def covered_length(intervals: Iterable[tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
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


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (a, b) in enumerate(zip(starts, ends)):
        kids = children.get(i, ())
        out.append((b - a) - covered_length(((starts[k], ends[k]) for k in kids), a, b))
    return out


def tail_percentile(samples: Sequence[float], levels: Sequence[float] = TAIL_LEVELS,
                    min_beyond: int = MIN_BEYOND):
    """Highest level whose nearest-rank percentile has ``min_beyond`` samples above it.

    Returns ``(level, value)``, or ``None`` when even the lowest level has
    too few samples beyond it.  Nearest rank: the p-th percentile of n
    sorted samples is the one at rank ceil(p n / 100), leaving n - rank
    samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for level in sorted(levels, reverse=True):
        rank = max(1, math.ceil(level * n / 100.0 - 1e-9))
        if n - rank >= min_beyond:
            return level, ordered[rank - 1]
    return None


def quantile(values: Sequence[float], q: float) -> float:
    """Quantile ``q`` in [0, 1], interpolating linearly between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


class Tracer:
    """In-memory span store with wrappers that record around calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.transforms: list[int] = []  # scalar transforms done by the span itself
        self.nbytes: list[int] = []  # input + output bytes of those transforms
        self.calls: dict[tuple[int, str], int] = {}
        self.run_id = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.transforms.append(0)
        self.nbytes.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_transform(self, fn: Callable, name: str) -> Callable:
        """Wrapper for ``to_spectral(grid, a)`` / ``to_real(grid, a)`` that counts."""

        @functools.wraps(fn)
        def traced(grid, values, *args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(grid, values, *args, **kwargs)
            finally:
                self._close(idx)
            self.transforms[idx] = scalar_transforms(out.shape, grid.dim)
            self.nbytes[idx] = getattr(values, "nbytes", 0) + out.nbytes
            return out

        return traced

    def counter(self, fn: Callable) -> Callable:
        """Wrapper for a workload's own callable that counts its calls.

        Calls are tallied per (run id, name of the innermost open span)
        rather than recorded as spans: RK4 makes hundreds of thousands.
        """

        def counted(*args, **kwargs):
            where = self.names[self._stack[-1]] if self._stack else ""
            key = (self.run_id, where)
            self.calls[key] = self.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis ---------------------------------------------------------

    def ancestor_in(self, idx: int, names: frozenset) -> int:
        """Index of the nearest proper ancestor whose name is in ``names``, or -1."""
        p = self.parents[idx]
        while p >= 0 and self.names[p] not in names:
            p = self.parents[p]
        return p

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.write("id,parent,run,name,start_ns,end_ns,transforms,bytes\n")
            for i in range(len(self.names)):
                out.write(f"{i},{self.parents[i]},{self.runs[i]},{self.names[i]},"
                          f"{self.starts[i]},{self.ends[i]},{self.transforms[i]},"
                          f"{self.nbytes[i]}\n")


def _binding_sites(fn):
    """(module, attribute) pairs bound to ``fn`` across the package's modules."""
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                sites.append((module, attr))
    return sites


@contextlib.contextmanager
def instrument(tracer: Tracer, functions, methods=()):
    """Swap in recording wrappers for the duration of the block.

    ``functions``: (function, span name, kind) with kind "call" or
    "transform"; each is patched at every binding site in the package.
    ``methods``: (class, attribute, span name); class- and static methods
    keep their descriptor type.
    """
    undo = []
    try:
        for fn, name, kind in functions:
            wrapped = (tracer.wrap_transform if kind == "transform" else tracer.wrap)(fn, name)
            sites = _binding_sites(fn)
            if not sites:
                raise LookupError(f"{fn.__qualname__} is bound nowhere in {PACKAGE}")
            for module, attr in sites:
                setattr(module, attr, wrapped)
                undo.append((module, attr, fn))
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(tracer.wrap(original.__func__, name))
            else:
                patched = tracer.wrap(original, name)
            setattr(cls, attr, patched)
            undo.append((cls, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
