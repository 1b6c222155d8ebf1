"""What a finalized MonEQ session hands back, and what it leaves behind.

``MoneqResult`` keeps each agent's filled records as a view and builds
its traces on first access, so a caller that reads only the output files
(``execute_scenario``) never builds a trace; and a finalized session,
with the testbed it ran on, is freed by reference counting: no object
graph the program builds has a cycle, so a collection right after
finds nothing to free.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.api.packs import all_packs, execute_scenario
from repro.core.moneq import finalize, initialize
from repro.core.moneq.backends import NvmlBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.packs import schema
from repro.packs.runtime import build_testbed
from repro.sim.trace import TraceSeries, TraceSet
from repro.testbeds import gpu_node, multi_device_node
from repro.workloads.vectoradd import VectorAddWorkload

LIVE_PACKS = sorted(name for name, spec in all_packs().items()
                    if spec.kind in ("session", "chaos"))


@pytest.fixture
def sessions(monkeypatch):
    """Weak references to every MonEQ session started from here on."""
    refs = []
    init = MoneqSession.__init__

    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(MoneqSession, "__init__", tracked)
    return refs


@pytest.fixture
def no_collector():
    """The cycle collector off, from a clean start."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("pack", LIVE_PACKS)
def test_a_scenario_session_is_freed_without_the_collector(
        pack, sessions, no_collector):
    execute_scenario(all_packs()[pack], seed=5)
    assert len(sessions) == 1
    assert sessions[0]() is None
    assert gc.collect() == 0


def _shared_gpu_session(consumers: int = 8, ticks: int = 100) -> None:
    """Many NVML consumers of one GPU in one block-sampled session,
    finalized: the shape of e2ebench's shared-device session."""
    node, gpu, _ = gpu_node(seed=9)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    backends = []
    for i in range(consumers):
        backend = NvmlBackend(gpu)
        backend.label = f"{backend.label}.{i}"
        backends.append(backend)
    poll = backends[0].min_interval_s
    session = MoneqSession(
        backends, node.events, vfs=node.vfs,
        config=MoneqConfig(polling_interval_s=poll, block_ticks=256))
    node.events.run_until(ticks * poll + poll / 2)
    session.finalize()


def test_a_shared_gpu_session_is_freed_without_the_collector(
        sessions, no_collector):
    _shared_gpu_session()
    assert len(sessions) == 1
    assert sessions[0]() is None
    assert gc.collect() == 0


@pytest.mark.parametrize("kind", ["fleet", "gpu", "phi", "rapl"])
def test_a_testbed_is_freed_without_the_collector(kind, no_collector):
    node = weakref.ref(build_testbed(schema.TestbedSpec(kind=kind), seed=3)[0])
    assert node() is None
    assert gc.collect() == 0


def test_a_scenario_run_builds_no_trace(monkeypatch):
    calls = []
    add = TraceSet.add

    def counted(self, name, series):
        calls.append(name)
        add(self, name, series)

    monkeypatch.setattr(TraceSet, "add", counted)
    for pack in LIVE_PACKS:
        execute_scenario(all_packs()[pack], seed=5)
    assert calls == []


def _eager_traces(session) -> dict[str, TraceSet]:
    """The traces as finalize used to build them for every agent."""
    traces = {}
    for agent in session.agents:
        filled = agent.filled()
        trace_set = TraceSet()
        for name in agent.backend.fields():
            units = "W" if name.endswith("_w") else ""
            trace_set.add(name, TraceSeries(
                filled["time_s"].copy(), filled[name].copy(), name, units))
        traces[agent.backend.label] = trace_set
    return traces


def test_traces_on_first_access_equal_the_eager_construction():
    node, _ = multi_device_node(seed=21)
    session = initialize(node)
    node.events.run_until(node.clock.now + 3.0)
    result = finalize(session)
    expected = _eager_traces(session)
    assert "traces" not in vars(result)
    assert list(result.traces) == list(expected) and len(expected) == 3
    for label, trace_set in expected.items():
        built = result.traces[label]
        assert built.names == trace_set.names
        for name in trace_set:
            got, want = built[name], trace_set[name]
            assert (got.name, got.units) == (want.name, want.units)
            np.testing.assert_array_equal(got.times, want.times)
            np.testing.assert_array_equal(got.values, want.values)
            assert len(got) > 0
    assert result.traces is result.traces  # built once


def test_records_are_views_of_the_session_slabs():
    node, _ = multi_device_node(seed=22)
    session = initialize(node)
    node.events.run_until(node.clock.now + 1.0)
    result = finalize(session)
    for agent in session.agents:
        records = result.records[agent.backend.label]
        assert np.shares_memory(records, agent.records)
        assert len(records) == agent.count
        assert records.dtype.names == ("time_s",) + tuple(
            agent.backend.fields())
    # Traces own their columns: the records stay as collected.
    label = session.agents[0].backend.label
    before = result.records[label].copy()
    series = result.traces[label][session.agents[0].backend.fields()[0]]
    series.values[:] = -1.0
    np.testing.assert_array_equal(result.records[label], before)
