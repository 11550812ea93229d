"""Outside-in layer timing for quasiprob, by wrapping its public functions.

The program is not edited.  Every public function defined in one of LAYERS is
replaced, in every loaded quasiprob module that refers to it, by a wrapper
that records a span: name, start, end and the enclosing span.  The wrapper is
installed wherever the name is looked up (``from .wigner import
characteristic_function`` in ``tomography`` binds a second reference), and
``WaveFunction.__call__`` is wrapped on the class as ``states.evaluate``.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "states", "wigner", "tomography", "weyl", "serial", "cli")


class Tracer:
    """Aggregates spans in memory: self time and calls per name, plus counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []  # per open span: [child seconds]

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name, fn, count=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([0.0])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()[0]
                if stack:
                    stack[-1][0] += dt
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if count is not None:
                    count(self.counts, args, kwargs)

        return traced


def _count_evaluate(counts, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts["states.evaluate.points"] += int(getattr(x, "size", 1))


def _count_characteristic(counts, args, kwargs):
    import numpy as np

    from quasiprob.states import DEFAULT_GRID

    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    beta = args[2] if len(args) > 2 else kwargs["beta"]
    ygrid = args[3] if len(args) > 3 else kwargs.get("ygrid")
    n = np.broadcast(np.asarray(alpha), np.asarray(beta)).size
    counts["wigner.characteristic_function.points"] += n * (ygrid or DEFAULT_GRID).n


def _count_bytes(counts, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counts["serial.bytes_written"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where each module looks them up."""
    import quasiprob.cli  # noqa: F401  (loads every layer)
    from quasiprob.states import WaveFunction

    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"quasiprob.{layer}"]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            count = None
            if name == "wigner.characteristic_function":
                count = _count_characteristic
            elif layer == "serial" and attr.startswith("write_"):
                count = _count_bytes
            wrappers[id(fn)] = tracer.wrap(name, fn, count)  # the wrapper keeps fn alive
    for modname, mod in list(sys.modules.items()):
        if modname != "quasiprob" and not modname.startswith("quasiprob."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):  # dispatch tables such as cli.HANDLERS
                for key, val in list(obj.items()):
                    if id(val) in wrappers:
                        obj[key] = wrappers[id(val)]
    WaveFunction.__call__ = tracer.wrap("states.evaluate", WaveFunction.__call__, _count_evaluate)
