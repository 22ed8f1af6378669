"""Timing spans recorded from outside the program.

The benchmark never edits advzoom. It measures a layer by swapping a module
or class attribute for a timing wrapper and putting the original back
afterwards. A module that bound a function with ``from .x import f`` holds
its own reference, so a function is swapped in every advzoom module that
holds it.

A span's self time is its duration minus the time covered by the spans it
called, so RNG time inside ``env.reward`` is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Per-name call count, total time and self time of wrapped calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # exact integer counters
        self.maxima = defaultdict(int)
        self.samples = defaultdict(list)  # per-call durations, when asked for
        self.root_s = 0.0  # time inside spans that have no parent span
        self.paused_s = 0.0  # checking time, excluded from every span
        self.paused_in_spans_s = 0.0
        self.active = True
        self._open = []  # child time accumulated by each open span

    def span(self, name, fn, classify=None, on_result=None, sample=False):
        """Wrap fn so each call is recorded under `name`.

        classify(result) may rename the call after it returns (scalar or
        block RNG calls); on_result(result, args) may update counters.
        """
        open_spans = self._open

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            key = name
            open_spans.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    key = classify(result)
            finally:
                dt = _clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.root_s += dt
                self.calls[key] += 1
                self.total[key] += dt
                self.self_time[key] += dt - child
                if sample:
                    self.samples[key].append(dt)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks untraced and outside every span."""
        was_active = self.active
        self.active = False
        t0 = _clock()
        try:
            yield
        finally:
            dt = _clock() - t0
            self.active = was_active
            self.paused_s += dt
            if self._open:
                self._open[-1] += dt
                self.paused_in_spans_s += dt


class Patches:
    """Attribute swaps that are all undone by restore(), in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        own = vars(owner)
        self._saved.append((owner, name, own.get(name), name in own))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, old, had = self._saved.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def package_modules() -> list:
    """The loaded advzoom modules."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "advzoom" or n.startswith("advzoom."))]


def wrap_function(patches: Patches, fn, wrapper, modules) -> None:
    """Swap every binding of fn in `modules` for wrapper."""
    found = False
    for mod in modules:
        for attr in [a for a, v in vars(mod).items() if v is fn]:
            patches.set(mod, attr, wrapper)
            found = True
    if not found:
        raise LookupError(f"no module binds {fn.__qualname__}")


def wrap_method(patches: Patches, cls, name: str, make_wrapper) -> None:
    patches.set(cls, name, make_wrapper(vars(cls)[name]))
