"""What a finalized MonEQ session hands back, and what it leaves behind.

``MoneqResult`` keeps each agent's filled records as a view and builds
its traces on first access, so a caller that reads only the output files
(``execute_scenario``) never builds a trace; and a finalized session is
freed by reference counting, with no cycle left for the collector.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.api.packs import all_packs, execute_scenario
from repro.core.moneq import finalize, initialize
from repro.core.moneq.session import MoneqSession
from repro.sim.trace import TraceSeries, TraceSet
from repro.testbeds import multi_device_node

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


@pytest.mark.parametrize("pack", LIVE_PACKS)
def test_a_scenario_session_is_freed_without_the_collector(pack, sessions):
    gc.collect()
    gc.disable()
    try:
        execute_scenario(all_packs()[pack], seed=5)
        assert len(sessions) == 1
        assert sessions[0]() is None
    finally:
        gc.enable()


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
