"""Span tracing of driftlearn's layers, installed from outside the package.

Every public module-level function of the eight layer modules is replaced,
in every ``driftlearn`` namespace and module-level container that holds it,
by a wrapper that records one span (name, start, end, parent, job id).
Spans live in flat arrays while the benchmark runs and are written out once
at the end.  A few extra probes count work that has no function boundary of
its own: ``cho_factor`` calls made through ``linreg`` and ``logreg``,
objective-gradient calls inside the o2nc loop, loss rows evaluated by a
``RegretLedger``, and bytes handed to the CSV readers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import tracemalloc
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("streams", "linreg", "logreg", "regret", "adam", "o2nc", "lemmas", "cli")

# Layer whose outermost spans get their own tracemalloc window in the
# memory pass (``regret.peak_mib``).
MEMORY_LAYER = "regret"


class Tracer:
    """In-memory span store plus the counters the probes fill."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: Counter = Counter()
        self.watch_memory = False
        self.memory_peak = 0
        self._memory_depth = 0
        self._swaps: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, post=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        nid = self.name_id(name)
        watch = name.split(".", 1)[0] == MEMORY_LAYER
        start, end, names, parents, jobs, stack = (
            self.start, self.end, self.name, self.parent, self.job, self.stack,
        )
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            windowed = watch and tracer.watch_memory and tracer._enter_memory()
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if windowed:
                    tracer._leave_memory()
            return post(result) if post is not None else result

        functools.update_wrapper(traced, fn)
        traced.__bench_original__ = fn
        return traced

    def counter(self, key: str, fn):
        """Wrap ``fn`` so each call adds one to ``counts[key]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__bench_original__ = fn
        return counted

    def _enter_memory(self) -> bool:
        if self._memory_depth == 0:
            tracemalloc.start()
        self._memory_depth += 1
        return True

    def _leave_memory(self) -> None:
        self._memory_depth -= 1
        if self._memory_depth == 0:
            self.memory_peak = max(self.memory_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    # -- installation -------------------------------------------------------

    def _swap(self, container, key, new) -> None:
        if isinstance(container, dict):
            self._swaps.append((container, key, container[key]))
            container[key] = new
        else:
            self._swaps.append((container, key, getattr(container, key)))
            setattr(container, key, new)

    def install(self) -> None:
        """Wrap every public layer function wherever driftlearn holds it."""
        mods = {layer: importlib.import_module(f"driftlearn.{layer}") for layer in LAYERS}
        o2nc, regret = mods["o2nc"], mods["regret"]
        factories = set(o2nc.OBJECTIVES.values())
        wrapped: dict[types.FunctionType, object] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                post = self._count_grads if obj in factories else None
                if layer == "streams" and attr in ("stream_from_csv", "path_from_csv"):
                    wrapped[obj] = self._count_bytes(self.span(f"{layer}.{attr}", obj))
                else:
                    wrapped[obj] = self.span(f"{layer}.{attr}", obj, post)
        for mod in mods.values():
            self._replace_in(mod, wrapped)
        for layer in ("linreg", "logreg"):
            mod = mods[layer]
            self._swap(mod, "cho_factor",
                       self.counter(f"{layer}.cho_factor", mod.cho_factor))
        self._swap(o2nc.O2ncTrace, "to_csv",
                   self.span("o2nc.O2ncTrace.to_csv", o2nc.O2ncTrace.to_csv))
        self._swap(regret.RegretLedger, "__post_init__",
                   self._count_rows(regret.RegretLedger.__post_init__))
        self.assert_complete(mods, set(wrapped))

    def _replace_in(self, mod, wrapped) -> None:
        for attr, obj in list(vars(mod).items()):
            if _is_key(obj, wrapped):
                self._swap(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if _is_key(value, wrapped):
                        self._swap(obj, key, wrapped[value])
                    elif isinstance(value, tuple) and any(_is_key(v, wrapped) for v in value):
                        self._swap(obj, key, tuple(
                            wrapped[v] if _is_key(v, wrapped) else v for v in value))

    @staticmethod
    def assert_complete(mods, originals) -> None:
        """Raise if any unwrapped original is still reachable from a layer."""
        leftovers = []
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                values = [obj]
                if isinstance(obj, dict):
                    values = list(obj.values())
                    values += [v for t in values if isinstance(t, tuple) for v in t]
                if any(_is_key(v, originals) for v in values):
                    leftovers.append(f"{layer}.{attr}")
        if leftovers:
            raise RuntimeError(f"unwrapped layer functions remain: {leftovers}")

    def uninstall(self) -> None:
        while self._swaps:
            container, key, old = self._swaps.pop()
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)

    # -- probes -------------------------------------------------------------

    def _count_bytes(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def reading(text, *args, **kwargs):
            counts["streams.bytes_read"] += len(text.encode())
            return fn(text, *args, **kwargs)

        reading.__bench_original__ = fn.__bench_original__
        return reading

    def _count_grads(self, objective):
        """Count gradient calls made directly inside the o2nc driver loop."""
        counts, grad = self.counts, objective.grad
        loop = self.name_id("o2nc.run_o2nc")
        stack, names = self.stack, self.name

        def counted_grad(x):
            if stack and names[stack[-1]] == loop:
                counts["o2nc.loop_grad_calls"] += 1
            return grad(x)

        return dataclasses.replace(objective, grad=counted_grad)

    def _count_rows(self, post_init):
        """Count every f_s(u) a ledger computes, including sliced-away rows."""
        counts = self.counts

        def rows(fn, size):
            if getattr(fn, "__bench_rows__", False):
                return fn

            def counted(*args):
                out = fn(*args)
                counts["regret.loss_rows"] += size(out)
                return out

            counted.__bench_rows__ = True
            return counted

        @functools.wraps(post_init)
        def counting_post_init(ledger):
            post_init(ledger)
            ledger.loss_eval = rows(ledger.loss_eval, lambda out: 1)
            if ledger.loss_eval_batch is not None:
                ledger.loss_eval_batch = rows(ledger.loss_eval_batch, len)

        return counting_post_init

    # -- results ------------------------------------------------------------

    def job_table(self, job_id: int):
        """Per-span arrays of one job: name ids, inclusive and self times."""
        name = np.array(self.name, dtype=np.int64)
        job = np.array(self.job, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        mask = job == job_id
        return name[mask], dur[mask], (dur - child)[mask]

    def save(self, path) -> None:
        """Write every span recorded so far as one table of columns."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.array(self.job, dtype=np.int64),
        )


def _is_key(obj, mapping) -> bool:
    return isinstance(obj, types.FunctionType) and obj in mapping
