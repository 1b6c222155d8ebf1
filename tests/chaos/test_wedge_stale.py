"""The wedged-daemon stale-serve semantics.

Paper §II: the Phi's MicRAS daemon can wedge while its pseudo-files
keep answering — reads return promptly, but with the values the daemon
produced *before* it wedged, stale beyond any freshness window.  A
wedge is therefore neither a dark read (the exchange delivers) nor a
retryable fault (nothing errors): the channel serves the last
delivered bytes, the breaker records success, and the plan counts the
crossing as ``stale``.  These tests pin that down — including the
carry of last-delivered values across blocks, chunking invariance, and
the interplay with the channel cache (a freshness hit must never mask
a wedge).
"""

import numpy as np

from repro import testbeds
from repro.chaos.faults import FaultPlan, FaultRule
from repro.core.moneq.backends import NvmlBackend, PhiMicrasBackend

WEDGE_AT = 2.0


def _micras(seed=0x57A1E):
    rig = testbeds.phi_node(seed=seed)
    return PhiMicrasBackend(rig.micras)


def _wedge_plan(mechanism="micras", seed=11, t_start=WEDGE_AT):
    # micras' default kind IS daemon_wedged; rate 1.0 pins every
    # crossing inside the window.
    return FaultPlan(seed=seed, rules=(
        FaultRule(mechanism, rate=1.0, kind="daemon_wedged",
                  t_start=t_start),
    ))


def test_wedged_rows_freeze_at_last_delivered_values():
    backend = _micras()
    times = np.arange(16, dtype=np.float64) * 0.5  # wedge hits at row 4
    plan = _wedge_plan()
    rows = backend.read_block(times, plan=plan)
    wedged = times >= WEDGE_AT
    last_live = int(np.flatnonzero(~wedged)[-1])
    for name in backend.fields():
        column = rows[name]
        assert not np.isnan(column).any()
        # Every wedged row serves the pre-wedge bytes, unchanged.
        assert (column[wedged] == column[last_live]).all()
    assert plan.stats.stale == int(np.count_nonzero(wedged))
    assert plan.stats.dark == 0
    assert plan.stats.retries == 0


def test_wedge_is_not_a_retry_and_not_a_breaker_failure():
    backend = _micras()
    times = np.arange(12, dtype=np.float64) * 0.5
    plan = _wedge_plan()
    backend.read_block(times, plan=plan)
    assert plan.stats.breaker_opens == 0
    assert all(e.outcome == "stale" and e.attempts == 0
               for e in plan.timeline)
    assert all(e.kind == "daemon_wedged" for e in plan.timeline)


def test_last_delivered_carries_across_blocks():
    """A wedge at the head of a later block serves the previous block's
    last delivered values — the injector carries them, matching one
    contiguous read byte for byte."""
    times = np.arange(16, dtype=np.float64) * 0.5

    whole = _micras()
    contiguous = whole.read_block(times, plan=_wedge_plan())

    chunked = _micras()
    plan = _wedge_plan()
    parts = [chunked.read_block(times[:3], plan=plan),   # all delivered
             chunked.read_block(times[3:5], plan=plan),  # wedge begins inside
             chunked.read_block(times[5:], plan=plan)]   # wedged from row 0
    assert np.concatenate(parts).tobytes() == contiguous.tobytes()


def test_wedge_before_any_delivery_degrades_to_dark_values():
    backend = _micras()
    times = np.arange(6, dtype=np.float64) * 0.5
    plan = _wedge_plan(t_start=0.0)
    rows = backend.read_block(times, plan=plan)
    for name in backend.fields():
        assert np.isnan(rows[name]).all()
    # Still accounted as stale serves, not dark reads: the exchange
    # delivered, there was just nothing pre-wedge to serve.
    assert plan.stats.stale == times.shape[0]
    assert plan.stats.dark == 0


def test_cache_hit_never_masks_a_wedge():
    """micras carries a cache plan (held power window + exact temps);
    a warmed freshness window must NOT satisfy a wedged crossing with
    fresh bytes — stale-serve wins over the cache."""
    rig = testbeds.phi_node(seed=0xCAFE)
    warm = PhiMicrasBackend(rig.micras)
    wedged = PhiMicrasBackend(rig.micras)  # same SMC, shared entries
    assert warm.source.cache_plan() is not None
    times = np.arange(16, dtype=np.float64) * 0.5
    warm.read_block(times)  # fill every freshness window, no plan
    plan = _wedge_plan()
    rows = wedged.read_block(times, plan=plan)
    assert plan.stats.stale > 0
    mask = times >= WEDGE_AT
    last_live = int(np.flatnonzero(~mask)[-1])
    for name in wedged.fields():
        assert (rows[name][mask] == rows[name][last_live]).all()


def test_wedged_values_diverge_from_healthy_timeline():
    """On a varying signal the frozen bytes are visibly stale: compare
    a wedged NVML run against the healthy run of an identical GPU."""
    from repro.workloads.vectoradd import VectorAddWorkload

    def gpu_backend(seed=0xBEEF):
        _, gpu, _ = testbeds.gpu_node(seed=seed)
        gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
        return NvmlBackend(gpu)

    times = np.arange(64, dtype=np.float64) * 0.25
    healthy = gpu_backend().read_block(times)
    backend = gpu_backend()
    rows = backend.read_block(times, plan=_wedge_plan("nvml", t_start=4.0))
    mask = times >= 4.0
    assert (rows["board_w"][~mask] == healthy["board_w"][~mask]).all()
    assert (rows["board_w"][mask] != healthy["board_w"][mask]).any()
