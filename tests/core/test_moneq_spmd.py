"""Integration tests for SPMD profiling (the Listing 1 path)."""

import pytest

from repro.bgq.machine import BgqMachine
from repro.core.moneq.spmd import RANKS_PER_BOARD, profile_spmd
from repro.errors import ConfigError
from repro.runtime.ops import Barrier, Compute, Recv, Send
from repro.sim.rng import RngRegistry


def bsp_program(iterations=4, compute_s=30.0, halo_bytes=1 << 30):
    """Bulk-synchronous phases long enough for 560 ms EMON sampling."""

    def program(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for it in range(iterations):
            yield Compute(compute_s)
            yield Send(dest=right, payload=None, nbytes=halo_bytes, tag=it)
            yield Recv(source=left, tag=it)
        yield Barrier()

    return program


@pytest.fixture(scope="module")
def profiled():
    machine = BgqMachine(racks=1, rng=RngRegistry(97), start_poller=False)
    return profile_spmd(machine, bsp_program(), ranks=64, bucket_s=0.25)


class TestProfileSpmd:
    def test_one_agent_per_node_card(self, profiled):
        assert len(profiled.boards) == 2  # 64 ranks / 32 per board
        assert set(profiled.moneq.traces) == set(profiled.boards)

    def test_program_elapsed_drives_session_length(self, profiled):
        ticks = profiled.moneq.overhead.ticks
        expected = int(profiled.program_elapsed_s / 0.560)
        assert abs(ticks - expected) <= 2

    def test_board_power_reflects_compute_phases(self, profiled):
        trace = profiled.moneq.traces[profiled.boards[0]]["node_card_w"]
        # Compute phases run hot; post-send stalls dip.
        assert trace.max() > 1200.0
        assert trace.max() - trace.min() > 100.0

    def test_all_ranks_completed(self, profiled):
        assert len(profiled.ranks) == 64
        assert all(r.finish_time > 0 for r in profiled.ranks)

    def test_too_many_ranks_rejected(self):
        machine = BgqMachine(racks=1, rng=RngRegistry(98), start_poller=False)
        with pytest.raises(ConfigError):
            profile_spmd(machine, bsp_program(), ranks=33 * 1024)

    def test_rank_count_validated(self):
        machine = BgqMachine(racks=1, rng=RngRegistry(99), start_poller=False)
        with pytest.raises(ConfigError):
            profile_spmd(machine, bsp_program(), ranks=0)

    def test_constant(self):
        assert RANKS_PER_BOARD == 32
