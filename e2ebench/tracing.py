"""The traced run: spans recorded around calls into each layer.

Nothing in the program changes.  :class:`LayerTracer` replaces public
entry points on the program's classes and modules with thin wrappers
that record one span per call — name, start, end, parent span and
operation id — in memory, and restores the originals afterwards.  A
layer's time is the summed duration of its *outermost* spans (a
``prefix`` query that calls ``range`` counts once); self time subtracts
the spans of named child layers nested inside.
"""

from __future__ import annotations

import gc
import json
import time

#: Span list layout: [name, start, end, parent index, op id].
NAME, START, END, PARENT, OP = range(5)


class LayerTracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: Work counts the wrappers note at the same boundaries.
        self.counts: dict[str, float] = {}
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        if self.op < 0:  # outside the timed operations (checks)
            return
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None,
             before=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.
        ``after(tracer, result, args, kwargs, seen)`` notes counts once
        the call returns; ``seen`` is what ``before()`` returned just
        before the call (None without ``before``)."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            seen = before() if before is not None else None
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, result, args, kwargs, seen)
            return result

        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2 or self.op < 0:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started

    def install(self) -> None:
        """Wrap every layer's public entry points (see module doc)."""
        import repro.core.moneq.backends  # noqa: F401 - every source class
        import repro.packs.runtime as pack_runtime
        from repro import testbeds
        from repro.chaos.injector import ChannelInjector
        from repro.core.moneq.session import MoneqSession
        from repro.fleet.sites import Fleet
        from repro.mech.cache import ChannelCache
        from repro.mech.mechanism import Mechanism
        from repro.mech.source import SensorSource
        from repro.obs.instruments import STORE_CACHE_MISSES
        from repro.service.app import ServiceApp
        from repro.store.aggregate import AggregateCache
        from repro.store.engine import ShardedStore
        from repro.store.federation import FederatedStore

        self.wrap(ServiceApp, "__call__", "service.request")
        for attr in ("range", "prefix", "latest", "aggregate", "tail"):
            self.wrap(ShardedStore, attr, "store.query")
        self.wrap(ShardedStore, "plan", "store.plan", after=_note_fanout)
        self.wrap(ShardedStore, "ingest_batch", "store.ingest",
                  after=_note_offered)
        self.wrap(FederatedStore, "aggregate", "federation.aggregate")

        def note_rebuild(tracer, result, args, kwargs, misses):
            if STORE_CACHE_MISSES.value() > misses:  # this call rebuilt
                records = args[4] if len(args) > 4 else kwargs["records"]
                tracer.count("store.rebuild_rows", len(records))

        self.wrap(AggregateCache, "windows", "store.agg_windows",
                  after=note_rebuild, before=STORE_CACHE_MISSES.value)
        self.wrap(Fleet, "advance_to", "fleet.advance")
        self.wrap(pack_runtime, "build_testbed", "packs.build")
        self.wrap(testbeds, "gpu_node", "packs.build")
        self.wrap(MoneqSession, "__init__", "packs.build",
                  after=_note_slots)
        self.wrap(MoneqSession, "finalize", "moneq.finalize")
        self.wrap(Mechanism, "read_block", "mech.read_block")
        for cls in _subclasses(SensorSource):
            if "collect" in cls.__dict__:
                self.wrap(cls, "collect", "mech.collect")
        self.wrap(ChannelCache, "lookup", "mech.cache")
        self.wrap(ChannelCache, "store", "mech.cache")
        self.wrap(ChannelInjector, "cross_block_verdicts", "chaos.inject")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def _outer(self, name: str) -> list[int]:
        """Indexes of ``name`` spans with no ``name`` ancestor."""
        out = []
        for index, span in enumerate(self.spans):
            if span[NAME] != name or span[OP] < 0:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != name:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                out.append(index)
        return out

    def total_s(self, name: str) -> float:
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in self._outer(name))

    def calls(self, name: str) -> int:
        return len(self._outer(name))

    def self_s(self, name: str, children: tuple[str, ...]) -> float:
        """Outermost ``name`` time minus the part covered by the
        outermost ``children`` spans nested inside it."""
        owners = set(self._outer(name))
        covered = 0.0
        for index, span in enumerate(self.spans):
            if span[NAME] not in children:
                continue
            parent = span[PARENT]
            while parent >= 0 and parent not in owners \
                    and self.spans[parent][NAME] not in children:
                parent = self.spans[parent][PARENT]
            if parent in owners:
                covered += span[END] - span[START]
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in owners) - covered

    def dump(self, path) -> None:
        """Write the spans out, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _note_fanout(tracer, plan, args, kwargs, seen) -> None:
    tracer.count("store.plans", 1)
    tracer.count("store.fanout_sum", plan.fan_out)


def _note_offered(tracer, report, args, kwargs, seen) -> None:
    tracer.count("store.offered", report.offered)


def _note_slots(tracer, result, args, kwargs, seen) -> None:
    session = args[0]
    tracer.count("moneq.slots", sum(len(a.records) for a in session.agents))
