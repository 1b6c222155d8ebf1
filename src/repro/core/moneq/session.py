"""The MonEQ session: initialize -> (app runs) -> finalize.

Execution model
---------------
Agents collect **in parallel** across nodes: one virtual-SIGALRM timer
ticks for the whole session, every agent samples its backend passively
at the tick time, each agent's process is charged its own query cost,
and the shared clock advances by the *maximum* agent cost (the slowest
node gates the tick, everyone else overlaps).  That is why Table III's
collection time is identical at 32, 512 and 1024 nodes.

Block sampling
--------------
Every tick collects a *block*: a grid of tick times sampled once per
backend with :meth:`~repro.core.moneq.backend.Backend.read_block` and
slab-assigned into agent buffers.  Because every tick costs the same
constant clock advance, the whole grid between two intervening events
is known the moment the first tick fires.  When the driving
:meth:`~repro.sim.events.EventQueue.run_until` exposes its horizon, the
session plans up to ``config.block_ticks`` deadlines ahead
(:meth:`~repro.sim.timers.PeriodicTimer.plan_block`); without one
(:meth:`~repro.sim.events.EventQueue.step`,
:meth:`~repro.sim.events.EventQueue.run_all`) or at ``block_ticks=1``
the grid is the firing tick alone.  The block stops strictly before the
next foreign event, at the horizon, and at remaining buffer capacity,
so clock advancement, tag boundaries, buffer-full errors and output
files are **byte-identical** at any lookahead — the parity tests pin
this down against one-tick blocks fired event by event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.moneq.backend import Backend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.output import render_agent_file, sanitize_label, write_outputs
from repro.core.moneq.overhead import (
    OverheadReport,
    finalize_time_s,
    initialize_time_s,
)
from repro.core.moneq.tags import TagSet
from repro.errors import ConfigError, MoneqBufferFullError, MoneqStateError
from repro.host.process import Process
from repro.host.vfs import VirtualFileSystem
from repro.obs.instruments import (
    MONEQ_BUFFER_FILL,
    MONEQ_BUFFER_FULL,
    MONEQ_RECORDS,
    MONEQ_SESSIONS_FINALIZED,
    MONEQ_SESSIONS_STARTED,
    MONEQ_TICKS,
    CollectorInstrument,
)
from repro.obs.tracing import get_tracer
from repro.sim.events import EventQueue
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceSeries, TraceSet


#: Rows of an agent's first record slab; it doubles as it fills.
_FIRST_SLAB_ROWS = 1024


@dataclass
class _Agent:
    """One collection locus: a backend plus its record buffer.  The
    buffer holds up to ``capacity`` records (``buffer_slots``) in a slab
    that starts small and doubles as it fills, so memory follows what a
    session collects rather than what it may."""

    backend: Backend
    process: Process | None
    records: np.ndarray
    capacity: int
    count: int = 0
    instrument: CollectorInstrument | None = None

    def extend_block(self, times: np.ndarray, block: np.ndarray) -> None:
        """Slab-append one block: row ``i`` gets ``times[i]`` plus
        ``block``'s columns.  The caller guarantees capacity."""
        n = times.shape[0]
        if self.count + n > len(self.records):
            size = len(self.records)
            while size < self.count + n:
                size *= 2
            grown = np.zeros(min(size, self.capacity),
                             dtype=self.records.dtype)
            grown[:self.count] = self.records[:self.count]
            self.records = grown
        rows = self.records[self.count:self.count + n]
        rows["time_s"] = times
        for name in block.dtype.names:
            rows[name] = block[name]
        self.count += n

    def filled(self) -> np.ndarray:
        return self.records[: self.count]


@dataclass
class MoneqResult:
    """Everything finalize produces."""

    traces: dict[str, TraceSet]
    overhead: OverheadReport
    output_paths: list[str]
    tags: list

    def trace(self, field_name: str, agent: str | None = None) -> TraceSeries:
        """One field's series; agent defaults to the only agent."""
        if agent is None:
            if len(self.traces) != 1:
                raise MoneqStateError(
                    f"session has {len(self.traces)} agents; name one of "
                    f"{sorted(self.traces)}"
                )
            agent = next(iter(self.traces))
        return self.traces[agent][field_name]

    def tag_window(self, tag_name: str, field_name: str,
                   agent: str | None = None) -> TraceSeries:
        """A field's series restricted to one closed tag's [start, end] —
        the "separate profiles for each work loop" the tagging feature
        exists for."""
        for tag in self.tags:
            if tag.name == tag_name:
                return self.trace(field_name, agent).between(tag.t_start, tag.t_end)
        raise MoneqStateError(
            f"no closed tag {tag_name!r}; have {[t.name for t in self.tags]}"
        )


class MoneqSession:
    """A live profiling session (between initialize and finalize)."""

    def __init__(self, backends: list[Backend], queue: EventQueue,
                 config: MoneqConfig | None = None,
                 processes: list[Process] | None = None,
                 node_count: int | None = None,
                 vfs: VirtualFileSystem | None = None):
        if not backends:
            raise ConfigError("MonEQ needs at least one backend")
        self.config = config if config is not None else MoneqConfig()
        self.queue = queue
        self.vfs = vfs if vfs is not None else VirtualFileSystem()
        self.node_count = node_count if node_count is not None else len(backends)
        if processes is not None and len(processes) != len(backends):
            raise ConfigError("processes must align 1:1 with backends")

        # "The lowest polling interval possible for the given hardware":
        # the slowest backend minimum governs a mixed-device session,
        # and a too-fast explicit request fails here, naming the
        # offending backend, not mid-run.
        self.interval_s = self.config.resolve_interval(backends)

        self.agents: list[_Agent] = []
        labels_seen: set[str] = set()
        for i, backend in enumerate(backends):
            if backend.label in labels_seen:
                raise ConfigError(f"duplicate backend label {backend.label!r}")
            labels_seen.add(backend.label)
            dtype = [("time_s", "f8")] + [(name, "f8") for name in backend.fields()]
            self.agents.append(_Agent(
                backend=backend,
                process=processes[i] if processes is not None else None,
                records=np.zeros(min(self.config.buffer_slots,
                                     _FIRST_SLAB_ROWS), dtype=dtype),
                capacity=self.config.buffer_slots,
                instrument=backend.instrument,
            ))

        # Every tick advances the clock by the same constant — the
        # slowest agent's query cost — which is what makes the tick grid
        # plannable ahead of time.
        self._tick_cost = max(a.backend.query_latency_s for a in self.agents)

        self.tags = TagSet()
        self._finalized = False
        MONEQ_SESSIONS_STARTED.inc()
        # Initialize cost: charged to the clock now, before the timer arms.
        self._init_cost = initialize_time_s(self.node_count)
        with get_tracer().span("moneq.initialize", clock=queue.clock,
                               agents=len(self.agents),
                               nodes=self.node_count):
            queue.clock.advance(self._init_cost)
        self.t_start = queue.clock.now
        for agent in self.agents:
            agent.backend.on_session_start(self.t_start, self.interval_s)
        self._timer = PeriodicTimer(queue, self.interval_s, self._on_tick)

    # -- collection ------------------------------------------------------------

    def _on_tick(self, t: float, index: int) -> None:
        """Collect the block that starts at the firing tick ``t``."""
        capacity = min(a.capacity - a.count for a in self.agents)
        if capacity == 0:
            agent = next(a for a in self.agents if a.count == a.capacity)
            MONEQ_BUFFER_FULL.inc()
            if agent.instrument is not None:
                agent.instrument.record_error("buffer_full")
            raise MoneqBufferFullError(
                f"agent {agent.backend.label}: buffer of {agent.capacity} "
                "records exhausted; raise MoneqConfig.buffer_slots"
            )
        horizon = self.queue.horizon
        if horizon is None:
            # step()/run_all() expose no bound, so no lookahead is safe.
            self._collect_block(np.array([t]))
            return
        # How far can we look ahead?  Strictly before the next foreign
        # event (it must keep its place in the event order), within the
        # run_until bound, and within buffer capacity, so a full buffer
        # raises at the tick where it fills.
        times, k_last, coalesced = self._timer.plan_block(
            self._tick_cost, self.queue.peek_time(), horizon,
            min(self.config.block_ticks, capacity),
        )
        self._collect_block(np.asarray(times, dtype=np.float64))
        self._timer.commit_block(len(times), k_last, coalesced)

    def _collect_block(self, times: np.ndarray) -> None:
        """Collect a planned grid of ticks in one columnar pass.  With a
        configured fault plan every crossing suffers that plan's faults
        and degrades to sensor-dark NaN rows instead of raising, so the
        session always reaches finalize."""
        n = times.shape[0]
        max_fill = 0.0
        plan = self.config.fault_plan
        for agent in self.agents:
            agent.extend_block(
                times, agent.backend.read_block(times, plan=plan))
            cost = agent.backend.query_latency_s
            if agent.process is not None and agent.process.alive:
                # cpu_seconds accumulation only; per-tick granularity
                # is not observable in any output.
                agent.process.charge(cost * n)
            if agent.instrument is not None:
                agent.instrument.record_query(cost, n)
            fill = agent.count / agent.capacity
            if fill > max_fill:
                max_fill = fill
        MONEQ_TICKS.inc(n)
        MONEQ_RECORDS.inc(len(self.agents) * n)
        MONEQ_BUFFER_FILL.set(max_fill)
        # Land exactly where n one-tick blocks would have left the
        # clock: at the last deadline plus one tick cost.
        self.queue.clock.advance_to(float(times[-1]))
        self.queue.clock.advance(self._tick_cost)

    @property
    def ticks(self) -> int:
        return self._timer.ticks_fired

    # -- tagging ------------------------------------------------------------------

    def start_tag(self, name: str) -> None:
        """Open a named section at the current virtual time."""
        self._ensure_live()
        if not self.config.tagging_enabled:
            raise MoneqStateError("tagging disabled in this session's config")
        self.tags.start(name, self.queue.clock.now)

    def end_tag(self, name: str) -> None:
        """Close a named section at the current virtual time."""
        self._ensure_live()
        if not self.config.tagging_enabled:
            raise MoneqStateError("tagging disabled in this session's config")
        self.tags.end(name, self.queue.clock.now)

    # -- finalize -----------------------------------------------------------------

    def finalize(self) -> MoneqResult:
        """Stop collection, write output files, report overhead."""
        self._ensure_live()
        self.tags.require_all_closed()
        self._finalized = True
        self._timer.cancel()
        t_end = self.queue.clock.now
        runtime = t_end - self.t_start
        for agent in self.agents:
            agent.backend.on_session_stop(t_end)

        finalize_cost = finalize_time_s(len(self.agents))
        with get_tracer().span("moneq.finalize", clock=self.queue.clock,
                               agents=len(self.agents), ticks=self.ticks):
            self.queue.clock.advance(finalize_cost)
        MONEQ_SESSIONS_FINALIZED.inc()

        markers = self.tags.markers()
        agent_files: dict[str, str] = {}
        traces: dict[str, TraceSet] = {}
        collection_cost = 0.0
        for agent in self.agents:
            filled = agent.filled()
            agent_files[f"{sanitize_label(agent.backend.label)}.dat"] = render_agent_file(
                agent.backend.label, agent.backend.platform,
                agent.backend.fields(), filled, markers,
            )
            trace_set = TraceSet()
            for name in agent.backend.fields():
                units = "W" if name.endswith("_w") else ""
                trace_set.add(name, TraceSeries(
                    filled["time_s"].copy(), filled[name].copy(), name, units,
                ))
            traces[agent.backend.label] = trace_set
            collection_cost = max(
                collection_cost, agent.count * agent.backend.query_latency_s
            )

        paths = write_outputs(self.vfs, self.config.output_dir, agent_files)
        max_fields = max(len(agent.backend.fields()) for agent in self.agents)
        overhead = OverheadReport(
            application_runtime_s=runtime,
            initialize_s=self._init_cost,
            finalize_s=finalize_cost,
            collection_s=collection_cost,
            ticks=self.ticks,
            node_count=self.node_count,
            agent_count=len(self.agents),
            memory_bytes_per_agent=self.config.memory_bytes_per_agent(max_fields),
        )
        return MoneqResult(
            traces=traces, overhead=overhead, output_paths=paths,
            tags=list(self.tags.closed),
        )

    # -- helpers -----------------------------------------------------------------

    def _ensure_live(self) -> None:
        if self._finalized:
            raise MoneqStateError("session already finalized")

    def tag(self, name: str):
        """Context manager sugar over start/end tags."""
        return _TagContext(self, name)


class _TagContext:
    def __init__(self, session: MoneqSession, name: str):
        self.session = session
        self.name = name

    def __enter__(self):
        self.session.start_tag(self.name)
        return self

    def __exit__(self, *exc):
        self.session.end_tag(self.name)
