"""Session-level guarantees of the columnar block-sampling engine.

``block_ticks=1`` is the reference: no lookahead, a one-tick block
collected as each timer event fires.  Everything observable — output
bytes, clock advancement, tick/coalesce counters, tag windows,
buffer-full failures — must be identical at any other setting.
"""

import pytest

from repro import testbeds
from repro.core.moneq import MoneqConfig, NvmlBackend
from repro.core.moneq.api import finalize, initialize
from repro.core.moneq.session import MoneqSession
from repro.errors import ConfigError, MoneqBufferFullError


def _drive(node, session, t_end):
    """A run with tag activity and uneven run_until strides."""
    node.events.run_until(t_end * 0.23)
    session.start_tag("solve")
    node.events.run_until(t_end * 0.61)
    session.end_tag("solve")
    session.start_tag("drain")
    node.events.run_until(t_end * 0.8)
    session.end_tag("drain")
    node.events.run_until(t_end)
    return finalize(session)


def _observables(make_node, block_ticks, t_end=90.0, buffer_slots=4096):
    node = make_node()
    config = MoneqConfig(block_ticks=block_ticks, buffer_slots=buffer_slots)
    session = initialize(node, config=config)
    result = _drive(node, session, t_end)
    return {
        "clock": node.clock.now,
        "ticks": result.overhead.ticks,
        "coalesced": session._timer.ticks_coalesced,
        "files": {p: node.vfs.read_text(p) for p in result.output_paths},
        "tags": [(t.name, t.t_start, t.t_end) for t in result.tags],
        "collection_s": result.overhead.collection_s,
    }


class TestBlockScalarParity:
    @pytest.mark.parametrize("block_ticks", [2, 7, 64, 4096])
    def test_rapl_node_outputs_byte_identical(self, block_ticks):
        scalar = _observables(lambda: testbeds.rapl_node(seed=5)[0], 1)
        block = _observables(lambda: testbeds.rapl_node(seed=5)[0], block_ticks)
        assert scalar == block

    def test_multi_device_node_outputs_byte_identical(self):
        scalar = _observables(lambda: testbeds.multi_device_node(seed=9)[0], 1)
        block = _observables(lambda: testbeds.multi_device_node(seed=9)[0], 4096)
        assert scalar == block

    def test_phi_node_outputs_byte_identical(self):
        scalar = _observables(lambda: testbeds.phi_node(seed=2).node, 1)
        block = _observables(lambda: testbeds.phi_node(seed=2).node, 512)
        assert scalar == block

    def test_overrunning_handler_coalesces_identically(self):
        """When the tick cost overruns the interval, the block planner
        replays the exact coalescing recurrence of per-event firing."""

        class SlowNvml(NvmlBackend):
            @property
            def query_latency_s(self):
                return 0.095  # > the 60 ms interval: every tick overruns

        def run(block_ticks):
            node, gpu, _ = testbeds.gpu_node(seed=4)
            session = MoneqSession(
                [SlowNvml(gpu)], node.events,
                config=MoneqConfig(polling_interval_s=0.060,
                                   block_ticks=block_ticks),
                vfs=node.vfs,
            )
            node.events.run_until(30.0)
            result = session.finalize()
            assert session._timer.ticks_coalesced > 0
            return (node.clock.now, result.overhead.ticks,
                    session._timer.ticks_coalesced,
                    {p: node.vfs.read_text(p) for p in result.output_paths})

        assert run(1) == run(128)

    def test_buffer_full_raises_identically(self):
        def run(block_ticks):
            node, _ = testbeds.rapl_node(seed=3)
            config = MoneqConfig(block_ticks=block_ticks, buffer_slots=40)
            session = initialize(node, config=config)
            with pytest.raises(MoneqBufferFullError) as err:
                node.events.run_until(60.0)
            return node.clock.now, str(err.value), session.agents[0].count

        assert run(1) == run(16)

    def test_step_driven_queue_stays_scalar(self):
        """Without a run_until horizon the engine cannot see how far
        lookahead is safe, so step() collects one tick per event — and
        writes the bytes a run_until drive to the same time writes."""
        def run(drive):
            node, _ = testbeds.rapl_node(seed=6)
            session = initialize(node, config=MoneqConfig(block_ticks=4096))
            drive(node)
            count = session.agents[0].count
            result = finalize(session)
            return (count, node.clock.now, result.overhead.ticks,
                    {p: node.vfs.read_text(p) for p in result.output_paths})

        ends = []

        def step_five(node):
            for _ in range(5):
                node.events.step()
            ends.append(node.clock.now)

        stepped = run(step_five)
        assert stepped[0] == 5
        assert run(lambda node: node.events.run_until(ends[0])) == stepped

    def test_block_mode_faster_than_scalar(self):
        """The point of the engine: same bytes, far fewer Python-level
        tick dispatches (buffer fills via slab assignment)."""
        import time

        node, _ = testbeds.rapl_node(seed=8)
        session = initialize(node, config=MoneqConfig(block_ticks=1))
        t0 = time.perf_counter()
        node.events.run_until(120.0)
        scalar_wall = time.perf_counter() - t0
        finalize(session)

        node, _ = testbeds.rapl_node(seed=8)
        session = initialize(node, config=MoneqConfig(block_ticks=4096))
        t0 = time.perf_counter()
        node.events.run_until(120.0)
        block_wall = time.perf_counter() - t0
        finalize(session)
        assert block_wall < scalar_wall


class TestConfigAndGuards:
    def test_block_ticks_must_be_at_least_one(self):
        with pytest.raises(ConfigError, match="block_ticks"):
            MoneqConfig(block_ticks=0)

    def test_missing_instrument_is_tolerated(self):
        """Agents without an instrument handle still collect (the tick
        path guards the metrics call instead of crashing)."""
        node, _ = testbeds.rapl_node(seed=1)
        session = initialize(node, config=MoneqConfig(block_ticks=1))
        for agent in session.agents:
            agent.instrument = None
        node.events.run_until(10.0)
        result = finalize(session)
        assert session.agents[0].count > 0
        assert result.overhead.ticks == session.agents[0].count
