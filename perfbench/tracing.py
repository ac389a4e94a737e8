"""Spans around the public functions of each catteleport module.

The benchmark installs these wrappers from its own code; nothing inside the
program is changed.  A wrapper opens a span (name, parent, start, end) when a
public function is entered and closes it when the function returns or raises.
Spans stay in memory until their root span closes, then they are folded into
per-function totals: calls, inclusive time and self time, where self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "config", "dynamics", "fidelity", "protocol", "states", "oracle")

# Called so often that a span per call would dominate its cost: counted only,
# so its time lands in the self time of whichever span called it.
COUNT_ONLY = frozenset({"states.overlap"})


@dataclass(frozen=True)
class Span:
    name: str      # "<module>.<function>"
    parent: int    # index of the parent span in the same list, -1 for a root
    start: float
    end: float


def self_times(spans) -> dict:
    """Self time per span name: duration minus the direct children's durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - child[i]
    return dict(out)


def _rk4_counts(counters, bound):
    """RK4 work of one evolve_lindblad call, from its arguments.

    Mirrors the integrator's step rule: ceil(t / dt_max) steps of four
    right-hand-side calls, plus a discarded coarse pass under verify_step.
    """
    t, dt_max = float(bound["t"]), float(bound["dt_max"])
    if t <= 0.0:
        return
    n = max(1, math.ceil(t / dt_max))
    verify = bool(bound.get("verify_step", False))
    steps = 3 * n if verify else n
    counters["oracle.rhs_calls"] += 4 * steps
    counters["oracle.rk4_steps"] += steps
    counters["oracle.rk4_steps_kept"] += 2 * n if verify else n


def _trial_counts(counters, bound):
    counters["protocol.trials"] += int(bound["trials"])


ARG_HOOKS = {
    "oracle.evolve_lindblad": _rk4_counts,
    "protocol.sample_outcomes": _trial_counts,
}


class Tracer:
    """Span recorder for one process; inactive until a phase switches it on."""

    def __init__(self):
        self.active = False
        self.nested = True          # False: record only the outermost span
        self.calls: Counter = Counter()
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.root_durations: dict = defaultdict(list)
        self._spans: list = []
        self._stack: list = []

    def reset(self):
        self.__init__()

    @contextlib.contextmanager
    def paused(self):
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def _open(self, name):
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._spans[idx][3] = time.perf_counter()
        self._stack.pop()
        if not self._stack:
            self._fold()

    def _error(self, idx):
        name, parent = self._spans[idx][0], self._spans[idx][1]
        module = name.split(".", 1)[0]
        # count an exception once, where it leaves the module
        if parent < 0 or self._spans[parent][0].split(".", 1)[0] != module:
            self.errors[module] += 1

    def _fold(self):
        spans = [Span(*s) for s in self._spans]
        self._spans = []
        for s in spans:
            self.calls[s.name] += 1
            self.total_s[s.name] += s.end - s.start
        for name, value in self_times(spans).items():
            self.self_s[name] += value
        root = spans[0]
        self.root_durations[root.name].append(root.end - root.start)

    def wrap(self, name, fn):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    self.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        hook = ARG_HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (self._stack and not self.nested):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                if hook:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self.counters, bound.arguments)
                return fn(*args, **kwargs)
            except Exception:
                self._error(idx)
                raise
            finally:
                self._close(idx)
        return traced

    def module_busy_s(self, module) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == module)


def install(tracer: Tracer, package: str = "catteleport"):
    """Replace every public function of each layer module with a traced wrapper.

    Each function is swapped in every module of the package that bound it, so
    calls across modules (``from .fidelity import fidelity_at``) are traced
    too.  Returns a function that restores the originals.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    swapped = []
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for fname, fn in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{fname}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        swapped.append((m, attr, fn))

    def restore():
        for m, attr, fn in swapped:
            setattr(m, attr, fn)

    return restore
