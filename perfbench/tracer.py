"""Span tracer that times calls into the program's layers from outside.

Nothing inside ``src/`` is instrumented.  :func:`install` wraps the public
entry points of each layer (module functions, methods, classmethods,
generators and coroutines) and rebinds every ``repro.*`` module attribute
that still points at the original, so callers that did
``from module import name`` are traced too.

Each wrapped call is a span with a layer name.  Spans nest on one stack
(the benchmark drives a single thread, and its single client keeps
service coroutines strictly nested), so a layer's *self time* is its span
durations minus the time covered by child spans.  Counters record work
done (calls, sources, bytes, budget charges) at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

_clock = time.perf_counter


class Tracer:
    """In-memory spans and counters; nothing is written until the end."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans = 0
        self.active = True
        self._stack: List[List[float]] = []

    def enter(self) -> None:
        self._stack.append([_clock(), 0.0])

    def leave(self, layer: str) -> None:
        start, child = self._stack.pop()
        duration = _clock() - start
        self.self_s[layer] += duration - child
        self.spans += 1
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def counts_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since the ``before`` copy of ``counts``."""
        return {name: n - before.get(name, 0)
                for name, n in self.counts.items()
                if n != before.get(name, 0)}


def _span(tracer: Tracer, layer: str, fn: Callable,
          on_call: Callable[..., None] = None,
          on_result: Callable[[Any], None] = None) -> Callable:
    """Wrap ``fn`` so every call is one ``layer`` span."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_coro(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            tracer.enter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.leave(layer)
            if on_result is not None:
                on_result(result)
            return result
        return traced_coro

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            if on_call is not None:
                on_call(*args, **kwargs)
            it = fn(*args, **kwargs)
            while True:
                # Each resumption is a span; the consumer's work between
                # two rows belongs to the consumer.
                tracer.enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave(layer)
                yield item
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(*args, **kwargs)
        tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(layer)
        if on_result is not None:
            on_result(result)
        return result
    return traced


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro.*`` module name bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_function(tracer: Tracer, module: Any, name: str, layer: str,
                    **hooks: Any) -> None:
    original = getattr(module, name)
    _rebind(original, _span(tracer, layer, original, **hooks))


def _patch_method(tracer: Tracer, cls: type, name: str, layer: str,
                  **hooks: Any) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name,
                classmethod(_span(tracer, layer, raw.__func__, **hooks)))
    else:
        setattr(cls, name, _span(tracer, layer, raw, **hooks))


def _sources_counter(tracer: Tracer) -> Callable[..., None]:
    """Count msbfs calls, sources and 64-lane sweeps from the arguments."""
    def on_call(csr, sources, batch_size=None):
        from repro.graph.msbfs import DEFAULT_BATCH

        width = DEFAULT_BATCH if batch_size is None else batch_size
        n = len(sources)
        tracer.count("graph.msbfs_calls")
        tracer.count("graph.msbfs_sources", n)
        tracer.count("graph.msbfs_sweeps", math.ceil(n / width))
    return on_call


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary.  Call once, after the imports."""
    import repro.cli
    import repro.core.algorithm as algorithm
    import repro.core.budget as budget
    import repro.core.fastpairs as fastpairs
    import repro.core.pairs as pairs
    import repro.datasets.io as dio
    import repro.graph.csr as csr
    import repro.graph.dynamic as dynamic
    import repro.graph.incremental as incremental
    import repro.graph.msbfs as msbfs
    import repro.graph.traversal as traversal
    import repro.resilience.checkpoint as checkpoint
    import repro.runtime.engine as engine
    import repro.runtime.wal as wal
    import repro.selection.base as selection_base
    import repro.service.answers as answers
    import repro.service.server as server

    def counter(name: str) -> Callable[..., None]:
        return lambda *a, **k: tracer.count(name)

    _patch_function(tracer, repro.cli, "main", "cli.command")

    for name in ("read_edge_stream", "read_edge_list"):
        _patch_function(
            tracer, dio, name, "datasets.read",
            on_result=lambda tg: tracer.count("datasets.events", tg.num_events),
        )

    _patch_method(tracer, dynamic.TemporalGraph, "snapshot_pair",
                  "graph.snapshot")

    _patch_method(tracer, csr.CSRGraph, "from_graph", "graph.csr_build",
                  on_call=counter("graph.csr_builds"))
    _patch_function(tracer, csr, "bfs_levels", "graph.bfs",
                    on_call=counter("graph.bfs_calls"))

    for name in ("msbfs_levels", "iter_msbfs_rows"):
        _patch_function(tracer, msbfs, name, "graph.msbfs",
                        on_call=_sources_counter(tracer))

    _patch_method(tracer, incremental.SnapshotDelta, "from_graphs",
                  "graph.incremental", on_call=counter("graph.incremental_calls"))
    for name in ("repair_levels", "levels_pair_indexed", "levels_pair"):
        _patch_function(tracer, incremental, name, "graph.incremental",
                        on_call=counter("graph.incremental_calls"))

    for name in ("dijkstra_distances", "dijkstra_tree"):
        _patch_function(tracer, traversal, name, "graph.dijkstra",
                        on_call=counter("graph.dijkstra_calls"))

    _patch_function(tracer, pairs, "top_k_converging_pairs", "core.pairs")
    _patch_function(tracer, pairs, "delta_histogram", "core.histogram")
    _patch_function(tracer, fastpairs, "csr_delta_histogram", "core.histogram")
    _patch_function(tracer, pairs, "converging_pairs_at_threshold",
                    "core.threshold")
    _patch_function(tracer, fastpairs, "csr_pairs_at_threshold",
                    "core.threshold")

    for cls in _subclasses(selection_base.CandidateSelector):
        if "select" in cls.__dict__:
            _patch_method(tracer, cls, "select", "selection.select")

    _patch_function(tracer, algorithm, "find_top_k_converging_pairs",
                    "core.algorithm")

    original_charge = budget.SPBudget.charge

    def charge(self, phase, snapshot, count=1):
        if tracer.active:
            tracer.count(f"budget.{phase}", count)
        return original_charge(self, phase, snapshot, count)
    budget.SPBudget.charge = charge

    _patch_method(tracer, engine.StreamRuntime, "run", "runtime.run")
    _patch_method(tracer, engine.StreamRuntime, "window_snapshots",
                  "runtime.window_snapshots")
    _patch_method(tracer, wal.WriteAheadLog, "append", "runtime.wal_append")

    def checkpoint_bytes(path):
        tracer.count("resilience.checkpoint_bytes", path.stat().st_size)
    _patch_method(tracer, checkpoint.CheckpointStore, "put",
                  "resilience.checkpoint_put", on_result=checkpoint_bytes)

    _patch_method(tracer, server.ConvergenceService, "handle_line",
                  "service.handle")
    _patch_function(tracer, answers, "compute_answer", "service.answer")


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out
