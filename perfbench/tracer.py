"""Span recorder for the traced benchmark run.

Spans are recorded around public calls into each layer of the package by
replacing module attributes (never source lines), and only names without a
leading underscore are wrapped.  A name that a later refactor removed leaves
its layer unmeasured instead of failing the run.

Spans stay in memory.  Pool workers forked during an operation inherit the
wrappers; a worker cannot hand its memory back, so it appends each span it
closes to a sink file that the parent reads back after the operation.

This module imports only the standard library, so the set-up probe can load
it before timing the package import.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (span name, module, attribute): the public entry points of each layer.
TARGETS = (
    ("groups.build", "groups", "make_group"),
    ("groups.build", "groups", "make_params"),
    ("groups.build", "groups", "validate_omega"),
    ("groups.build", "groups", "omega_from_classes"),
    ("sieve.build", "sieve", "sieve_primes"),
    ("sieve.load", "sieve", "load_prime_table"),
    ("profiles.context", "profiles", "CensusContext"),
    ("profiles.enumerate", "profiles", "enumerate_census"),
    ("profiles.run_task", "profiles", "run_task"),
    ("series.convolve", "series", "convolution_counts"),
    ("constants.report", "constants", "structure_report"),
    ("cli.run", "cli", "run_census"),
)

# Modules searched for references to each wrapped object, so that names a
# module imported with ``from .x import name`` are replaced as well.
MODULES = ("groups", "local_counts", "sieve", "profiles", "constants", "series", "cli")
PACKAGE = "abelian_census"


def _span_attrs(name, args, kwargs, result):
    """Exact counts recorded with a span, read from its call and result."""
    if name == "profiles.run_task":
        return {"nodes": int(result)}
    if name == "sieve.build":
        return {"primes": int(len(result))}
    if name == "series.convolve":
        omega = args[2] if len(args) > 2 else kwargs["omega"]
        gamma = args[5] if len(args) > 5 else kwargs.get("gamma")
        # slice states the engine keeps per target, as convolution_counts sets them
        states = 1 if (omega.is_empty() or gamma is None or gamma == 0) else gamma + 1
        return {"states": states}
    return {}


def _module(name):
    """The package (name None) or one of its modules; None once it is gone."""
    try:
        return importlib.import_module(PACKAGE if name is None else f"{PACKAGE}.{name}")
    except ModuleNotFoundError:
        return None


def _context_attrs(ctx):
    return {"usable_primes": len(ctx.primes), "t_max": int(ctx.t_max)}


class Recorder:
    """Collects spans of one process; forked children append to ``sink``."""

    def __init__(self, sink: str):
        self.pid = os.getpid()
        self.sink = sink
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.op = None
        self.unmeasured: list[str] = []
        self._count = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, args, kwargs, attrs=None):
        self._count += 1
        sid = f"{os.getpid()}:{self._count}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        error = True
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            span = {
                "id": sid, "parent": parent, "name": name, "op": self.op,
                "start": start, "end": end, "error": error,
            }
            if not error:
                span.update(attrs(result) if attrs else _span_attrs(name, args, kwargs, result))
            self._keep(span)

    def _keep(self, span: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        line = (json.dumps(span) + "\n").encode()
        fd = os.open(self.sink, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def collect_children(self) -> None:
        """Move spans that forked workers wrote to the sink into memory."""
        try:
            with open(self.sink) as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        os.remove(self.sink)
        self.spans.extend(json.loads(line) for line in lines if line.strip())

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Replace every target attribute in the package by a recording wrapper."""
        modules = [m for m in map(_module, (None,) + MODULES) if m is not None]
        self.unmeasured = []
        for name, module, attr in TARGETS:
            original = getattr(_module(module), attr, None)
            if original is None:
                self.unmeasured.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def _wrap(self, name, original):
        rec = self
        if isinstance(original, type):

            class Traced(original):
                def __init__(self, *args, **kwargs):
                    init = super().__init__
                    rec.call(name, init, args, kwargs, attrs=lambda _: _context_attrs(self))

            Traced.__name__ = original.__name__
            Traced.__qualname__ = original.__qualname__
            Traced.__module__ = original.__module__
            return Traced

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return rec.call(name, original, args, kwargs)

        return wrapper


# -- per-layer figures from spans ---------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of each span: its duration minus the part its children cover.

    Children in forked workers count too, so a parent waiting on a pool is
    charged only for the stretches when no worker runs one of its children.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], [])
            if b > s["start"] and a < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(clipped)
    return out
