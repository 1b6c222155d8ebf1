"""Unit tests for the freshness-aware channel cache.

The cache's contract has three legs: keys derive from each mechanism's
declared refresh behavior (held windows or exact timestamps), entries
are shared exactly by consumers of the same device object, and the
cache is byte-invisible — a hit returns precisely the bytes the device
would have produced.  The mechanism-level integration (shared-device
hits, chaos invalidation) is pinned here too; the fleet-wide ablation
numbers live in ``BENCH_fleet.json``.
"""

import gc

import numpy as np
import pytest

from repro import testbeds
from repro.chaos.faults import FaultPlan, FaultRule
from repro.core.moneq.backends import NvmlBackend, RaplMsrBackend
from repro.errors import ConfigError
from repro.mech.cache import (
    CachePlan,
    ChannelCache,
    FieldPlan,
    cache_token,
    channel_cache,
    channel_cache_disabled,
)
from repro.nvml.source import NvmlSource


@pytest.fixture(autouse=True)
def _clean_cache():
    channel_cache().clear()
    yield
    channel_cache().clear()


# -- key derivation ----------------------------------------------------------


def test_held_field_keys_are_window_indices():
    plan = FieldPlan(period_s=0.25, phase_s=0.05)
    times = np.array([0.0, 0.05, 0.29, 0.30, 0.31, 1.04])
    keys = plan.keys_for(times)
    assert keys.tolist() == [-1.0, 0.0, 0.0, 1.0, 1.0, 3.0]


def test_exact_field_keys_are_timestamps():
    times = np.array([0.0, 1.5, 1.5, 7.25])
    assert FieldPlan().keys_for(times) is times


def test_field_plan_rejects_nonpositive_period():
    with pytest.raises(ConfigError):
        FieldPlan(period_s=0.0)
    with pytest.raises(ConfigError):
        FieldPlan(period_s=-1.0)


def test_cache_plan_rejects_empty_fields():
    with pytest.raises(ConfigError):
        CachePlan(object(), {})


def test_tokens_shared_per_device_object():
    _, gpu, _ = testbeds.gpu_node(seed=1)
    _, other, _ = testbeds.gpu_node(seed=1)
    assert cache_token(gpu) == cache_token(gpu)
    assert cache_token(gpu) != cache_token(other)
    # Two sources over one device share the token — that is what makes
    # 1024 MonEQ agents on one GPU share entries.
    assert NvmlSource(gpu).cache_plan().token == \
        NvmlSource(gpu).cache_plan().token


# -- entry mechanics ---------------------------------------------------------


def test_lookup_miss_then_store_then_hit():
    cache = ChannelCache()
    keys = np.array([1.0, 2.0, 3.0])
    _, hit = cache.lookup("m", 1, "f", keys)
    assert not hit.any()
    cache.store("m", 1, "f", keys, np.array([10.0, 20.0, 30.0]))
    values, hit = cache.lookup("m", 1, "f", np.array([0.5, 2.0, 3.0, 9.0]))
    assert hit.tolist() == [False, True, True, False]
    assert values[1] == 20.0 and values[2] == 30.0


def test_store_merges_and_keeps_first_on_duplicate_keys():
    cache = ChannelCache()
    cache.store("m", 1, "f", np.array([2.0, 1.0]), np.array([20.0, 10.0]))
    cache.store("m", 1, "f", np.array([2.0, 3.0]), np.array([99.0, 30.0]))
    values, hit = cache.lookup("m", 1, "f", np.array([1.0, 2.0, 3.0]))
    assert hit.all()
    # Equal keys carry equal values by construction; the first stays.
    assert values.tolist() == [10.0, 20.0, 30.0]


def test_key_overflow_keeps_newest_half():
    cache = ChannelCache(max_keys_per_entry=8)
    keys = np.arange(12, dtype=np.float64)
    cache.store("m", 1, "f", keys, keys * 10.0)
    _, hit = cache.lookup("m", 1, "f", keys)
    # The oldest (smallest) keys were dropped; the newest survive.
    assert not hit[:6].any()
    assert hit[6:].all()


def test_entry_overflow_clears_cache_and_counts_invalidations():
    cache = ChannelCache(max_entries=2)
    cache.store("m", 1, "a", np.array([1.0]), np.array([1.0]))
    cache.store("m", 1, "b", np.array([1.0]), np.array([1.0]))
    cache.store("m", 2, "a", np.array([1.0]), np.array([1.0]))
    stats = cache.stats()
    assert stats.entries == 1  # the overflowing store survives alone
    assert stats.invalidations == 2


def test_invalidate_device_drops_only_that_token():
    cache = ChannelCache()
    cache.store("m", 1, "a", np.array([1.0]), np.array([1.0]))
    cache.store("m", 1, "b", np.array([1.0]), np.array([1.0]))
    cache.store("m", 2, "a", np.array([1.0]), np.array([1.0]))
    cache.store("n", 1, "a", np.array([1.0]), np.array([1.0]))
    assert cache.invalidate_device("m", 1) == 2
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.invalidations == 2
    _, hit = cache.lookup("m", 2, "a", np.array([1.0]))
    assert hit.all()


def test_note_block_accounting_and_hit_rate():
    cache = ChannelCache()
    cache.note_block("nvml", rows=10, row_hits=8, queries_per_read=3)
    cache.note_block("emon", rows=5, row_hits=0, queries_per_read=1)
    stats = cache.stats()
    assert stats.hits == 8 and stats.misses == 7
    assert stats.crossings_saved == 24
    assert stats.by_mechanism["nvml"].hit_rate == 0.8
    assert stats.hit_rate == 8 / 15


def test_disabled_context_restores_and_keeps_entries():
    cache = channel_cache()
    cache.store("m", 1, "f", np.array([1.0]), np.array([1.0]))
    assert cache.enabled
    with channel_cache_disabled() as inner:
        assert inner is cache and not cache.enabled
        with channel_cache_disabled():
            assert not cache.enabled
        assert not cache.enabled
    assert cache.enabled
    _, hit = cache.lookup("m", 1, "f", np.array([1.0]))
    assert hit.all()


# -- mechanism integration ---------------------------------------------------


def _shared_gpu_backends(seed=0x1CE, consumers=2):
    from repro.workloads.vectoradd import VectorAddWorkload

    _, gpu, _ = testbeds.gpu_node(seed=seed)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    return gpu, [NvmlBackend(gpu) for _ in range(consumers)]


def test_second_consumer_hits_and_bytes_match_uncached():
    _, (first, second) = _shared_gpu_backends()
    times = np.arange(40, dtype=np.float64) * first.min_interval_s
    first.read_block(times)
    before = channel_cache().stats()
    cached_rows = second.read_block(times)
    after = channel_cache().stats()
    assert after.hits - before.hits == times.shape[0]
    assert after.misses == before.misses

    _, (fresh, _) = _shared_gpu_backends()  # identical device, cold cache
    with channel_cache_disabled():
        plain_rows = fresh.read_block(times)
    assert cached_rows.tobytes() == plain_rows.tobytes()


def test_counter_sources_declare_no_plan():
    node, _ = testbeds.rapl_node(seed=5)
    backend = RaplMsrBackend(node.devices("cpu")[0], "a")
    # Consecutive-read deltas depend on reader history: uncacheable.
    assert backend.source.cache_plan() is None
    times = np.linspace(0.0, 3.0, 16)
    before = channel_cache().stats()
    backend.read_block(times)
    after = channel_cache().stats()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_dark_crossing_invalidates_device_entries():
    _, (backend, _) = _shared_gpu_backends(seed=0xDA2C)
    times = np.arange(16, dtype=np.float64) * backend.min_interval_s
    backend.read_block(times)
    assert channel_cache().stats().entries > 0
    plan = FaultPlan(seed=7, rules=(FaultRule("nvml", rate=1.0),))
    rows = backend.read_block(times, plan=plan)
    assert np.isnan(rows["board_w"]).all()
    stats = channel_cache().stats()
    assert stats.entries == 0
    assert stats.invalidations > 0


def test_cache_hit_never_masks_a_fault():
    """Injection draws over the full grid: a row whose freshness key
    hits still goes dark when its crossing draws a fault."""
    _, (first, second) = _shared_gpu_backends(seed=0xFA17)
    times = np.arange(24, dtype=np.float64) * first.min_interval_s
    first.read_block(times)  # warm every freshness window
    plan = FaultPlan(seed=3, rules=(FaultRule("nvml", rate=0.4),))
    rows = second.read_block(times, plan=plan)
    dark = np.isnan(rows["board_w"])
    assert dark.any(), "plan at rate 0.4 over 24 rows drew no fault"
    assert plan.stats.dark == int(np.count_nonzero(dark))


def test_entries_of_collected_devices_are_dropped():
    """A device's entries go when the device is garbage-collected, so
    the cache does not grow with every device a process has ever read,
    and the drops are not counted as invalidations."""
    from repro.core.moneq.session import MoneqSession

    def session_on_a_fresh_node(seed):
        node, backends = testbeds.fleet_node(seed=seed)
        session = MoneqSession(list(backends.values()), node.events,
                               node_count=1, vfs=node.vfs)
        node.events.run_until(node.clock.now + 4.0)
        session.finalize()
        return node, backends

    gc.collect()
    baseline = channel_cache().stats()
    alive = [session_on_a_fresh_node(seed) for seed in range(3)]
    grown = channel_cache().stats()
    assert grown.entries > baseline.entries
    del alive
    gc.collect()
    after = channel_cache().stats()
    assert after.entries == baseline.entries
    assert after.invalidations == grown.invalidations
