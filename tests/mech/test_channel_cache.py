"""Unit tests for the freshness-aware channel cache.

The cache's contract has three legs: keys derive from each mechanism's
declared refresh behavior (held windows or exact timestamps), entries
are shared exactly by consumers of the same device object (each device
owns its cache), and the
cache is byte-invisible — a hit returns precisely the bytes the device
would have produced.  The mechanism-level integration (shared-device
hits, chaos invalidation, per-device isolation) is pinned here too;
the fleet-wide ablation numbers are the ``fleet`` row of
``BENCH_trajectory.json``.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.mech.cache as cache_module
from repro import testbeds
from repro.chaos.faults import FaultPlan, FaultRule
from repro.core.moneq.backends import NvmlBackend, RaplMsrBackend
from repro.errors import ConfigError
from repro.mech.cache import (
    CachePlan,
    ChannelCache,
    FieldPlan,
    cache_bypassed,
    channel_cache_disabled,
    device_cache,
)
from repro.nvml.source import NvmlSource
from repro.obs.instruments import CACHE_HITS, CACHE_MISSES


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


def test_one_device_gives_one_cache():
    _, gpu, _ = testbeds.gpu_node(seed=1)
    _, other, _ = testbeds.gpu_node(seed=1)
    assert device_cache(gpu) is device_cache(gpu)
    assert device_cache(gpu) is not device_cache(other)
    # Two sources over one device share the cache — that is what makes
    # 1024 MonEQ agents on one GPU share entries.
    assert NvmlSource(gpu).cache_plan().cache is device_cache(gpu)
    assert NvmlSource(other).cache_plan().cache is device_cache(other)


# -- entry mechanics ---------------------------------------------------------


def test_lookup_miss_then_store_then_hit():
    cache = ChannelCache()
    keys = np.array([1.0, 2.0, 3.0])
    _, hit = cache.lookup("m", "f", keys)
    assert not hit.any()
    cache.store("m", "f", keys, np.array([10.0, 20.0, 30.0]))
    values, hit = cache.lookup("m", "f", np.array([0.5, 2.0, 3.0, 9.0]))
    assert hit.tolist() == [False, True, True, False]
    assert values[1] == 20.0 and values[2] == 30.0


def test_store_merges_and_keeps_first_on_duplicate_keys():
    cache = ChannelCache()
    cache.store("m", "f", np.array([2.0, 1.0]), np.array([20.0, 10.0]))
    cache.store("m", "f", np.array([2.0, 3.0]), np.array([99.0, 30.0]))
    values, hit = cache.lookup("m", "f", np.array([1.0, 2.0, 3.0]))
    assert hit.all()
    # Equal keys carry equal values by construction; the first stays.
    assert values.tolist() == [10.0, 20.0, 30.0]


def test_key_overflow_keeps_newest_half(monkeypatch):
    monkeypatch.setattr(cache_module, "MAX_KEYS_PER_ENTRY", 8)
    cache = ChannelCache()
    keys = np.arange(12, dtype=np.float64)
    cache.store("m", "f", keys, keys * 10.0)
    _, hit = cache.lookup("m", "f", keys)
    # The oldest (smallest) keys were dropped; the newest survive.
    assert not hit[:6].any()
    assert hit[6:].all()


def test_invalidate_drops_only_that_mechanism():
    cache = ChannelCache()
    cache.store("m", "a", np.array([1.0]), np.array([1.0]))
    cache.store("m", "b", np.array([1.0]), np.array([1.0]))
    cache.store("n", "a", np.array([1.0]), np.array([1.0]))
    assert cache.invalidate("m") == 2
    stats = cache.stats()
    assert stats.entries == 1
    assert stats.invalidations == 2
    _, hit = cache.lookup("n", "a", np.array([1.0]))
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


# -- mechanism integration ---------------------------------------------------


def _shared_gpu_backends(seed=0x1CE, consumers=2):
    from repro.workloads.vectoradd import VectorAddWorkload

    _, gpu, _ = testbeds.gpu_node(seed=seed)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    return gpu, [NvmlBackend(gpu) for _ in range(consumers)]


def test_second_consumer_hits_and_bytes_match_uncached():
    gpu, (first, second) = _shared_gpu_backends()
    times = np.arange(40, dtype=np.float64) * first.min_interval_s
    first.read_block(times)
    before = device_cache(gpu).stats()
    cached_rows = second.read_block(times)
    after = device_cache(gpu).stats()
    assert after.hits - before.hits == times.shape[0]
    assert after.misses == before.misses

    _, (fresh, _) = _shared_gpu_backends()  # identical device, cold cache
    with channel_cache_disabled():
        plain_rows = fresh.read_block(times)
    assert cached_rows.tobytes() == plain_rows.tobytes()


def test_disabled_context_restores_and_keeps_entries():
    gpu, (backend, _) = _shared_gpu_backends()
    times = np.arange(8, dtype=np.float64) * backend.min_interval_s
    backend.read_block(times)
    warm = device_cache(gpu).stats()
    assert not cache_bypassed()
    with channel_cache_disabled():
        assert cache_bypassed()
        with channel_cache_disabled():
            backend.read_block(times)
        assert cache_bypassed()
        backend.read_block(times)
    assert not cache_bypassed()
    # Bypassed reads neither hit nor count; the entries stayed.
    assert device_cache(gpu).stats() == warm
    backend.read_block(times)
    assert device_cache(gpu).stats().hits == warm.hits + times.shape[0]


def test_counter_sources_declare_no_plan():
    node, _ = testbeds.rapl_node(seed=5)
    backend = RaplMsrBackend(node.devices("cpu")[0], "a")
    # Consecutive-read deltas depend on reader history: uncacheable.
    assert backend.source.cache_plan() is None
    times = np.linspace(0.0, 3.0, 16)
    mechanism = backend.mechanism
    before = (CACHE_HITS.value(mechanism), CACHE_MISSES.value(mechanism))
    backend.read_block(times)
    assert (CACHE_HITS.value(mechanism),
            CACHE_MISSES.value(mechanism)) == before


def test_dark_crossing_invalidates_device_entries():
    gpu, (backend, _) = _shared_gpu_backends(seed=0xDA2C)
    times = np.arange(16, dtype=np.float64) * backend.min_interval_s
    backend.read_block(times)
    assert device_cache(gpu).stats().entries > 0
    plan = FaultPlan(seed=7, rules=(FaultRule("nvml", rate=1.0),))
    rows = backend.read_block(times, plan=plan)
    assert np.isnan(rows["board_w"]).all()
    stats = device_cache(gpu).stats()
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


def test_devices_cache_in_isolation():
    """Two GPUs' consumer groups read interleaved in one process write
    the bytes, and leave the per-device hits, misses, crossings saved
    and invalidations, that each group leaves when read alone — one
    group under a fault plan whose dark crossings invalidate entries."""
    seeds = (0x150, 0x151)

    def run(order):
        groups = {seed: _shared_gpu_backends(seed, consumers=3)
                  for seed in seeds}
        plans = {seeds[0]: FaultPlan(seed=5, rules=(
            FaultRule("nvml", rate=0.9),)), seeds[1]: None}
        interval = groups[seeds[0]][1][0].min_interval_s
        rows = {seed: [] for seed in seeds}
        for seed, block in order:
            times = (np.arange(12, dtype=np.float64) + 12 * block) * interval
            for backend in groups[seed][1]:
                rows[seed].append(backend.read_block(
                    times, plan=plans[seed]).tobytes())
        return {seed: (rows[seed], device_cache(groups[seed][0]).stats())
                for seed in seeds}

    blocks = range(4)
    interleaved = run([(seed, k) for k in blocks for seed in seeds])
    for seed in seeds:
        alone = run([(seed, k) for k in blocks])[seed]
        assert interleaved[seed] == alone
    assert interleaved[seeds[0]][1].invalidations > 0
    assert interleaved[seeds[1]][1].hits > 0


def test_a_device_cache_dies_with_the_device():
    """The cache lives on the device, so a process does not keep the
    entries of every device it has ever read."""
    gpu, backends = _shared_gpu_backends()
    times = np.arange(8, dtype=np.float64) * backends[0].min_interval_s
    for backend in backends:
        backend.read_block(times)
    cache = weakref.ref(device_cache(gpu))
    assert cache().stats().entries > 0
    del gpu, backends, backend
    gc.collect()
    assert cache() is None
