"""The channel cache's byte-invisibility property.

The freshness-aware cache's whole claim is that it is *unobservable in
the data*: for every registered mechanism, any poll grid, any chunking
of that grid, and any fault plan, a cache-on run produces
byte-identical output to a cache-off run.  This suite drives exactly
that oracle over random configurations — reusing the shared-device
backend factories of the read-block parity suite, with identical fresh
fault plans passed to each side's reads so chaos draws replay
identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.moneq.backends  # noqa: F401  (registers the fleet)
from repro.chaos.faults import FaultPlan, FaultRule
from repro.mech.cache import channel_cache_disabled
from repro.mech.registry import mechanisms

from tests.properties.test_read_block_parity import PAIRS, _block_rows, _grid


def test_pairs_cover_every_registered_mechanism():
    """The oracle below runs over PAIRS; this pins PAIRS to the full
    ``api.mechanisms()`` registry so a new vendor path cannot dodge
    the byte-identity property."""
    assert set(PAIRS) == set(mechanisms())


@pytest.mark.parametrize("mechanism", sorted(PAIRS))
@given(
    seed=st.integers(0, 2**16),
    start=st.floats(0.0, 5.0),
    span=st.floats(0.5, 20.0),
    count=st.integers(2, 32),
    jitters=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=4),
    splits=st.lists(st.integers(0, 36), min_size=0, max_size=3),
    rate=st.floats(0.0, 1.0),
    window=st.floats(0.0, 1.0),
)
@settings(max_examples=8, deadline=None)
def test_cache_on_equals_cache_off(mechanism, seed, start, span, count,
                                   jitters, splits, rate, window):
    times = _grid(start, span, count, jitters)
    t_start = float(times[0]) + window * span  # fault window mid-grid

    def run(disabled: bool) -> bytes:
        # Fresh identical devices and a fresh identical plan per side:
        # all chaos state lives on the plan, so draws replay exactly.
        backend, _, _ = PAIRS[mechanism](seed)
        plan = FaultPlan(seed=seed ^ 0x5EED, rules=(
            FaultRule(backend.mechanism, rate=rate, t_start=t_start),
        ))
        if disabled:
            with channel_cache_disabled():
                return _block_rows(backend, times, splits, plan).tobytes()
        return _block_rows(backend, times, splits, plan).tobytes()

    assert run(False) == run(True)


@pytest.mark.parametrize("mechanism", sorted(PAIRS))
def test_repolling_the_same_grid_is_byte_stable(mechanism):
    """The fleet's canonical pattern: a second consumer re-polls the
    grid the first already paid for.  Whatever the hit rate, the bytes
    must match the first run exactly."""
    first, second, _ = PAIRS[mechanism](0xD0)
    times = _grid(0.0, 8.0, 24, [0.1, 0.5])
    a = first.read_block(times)
    b = second.read_block(times)
    # Stateful (uncacheable) mechanisms keep per-instance carries that
    # make instances independent-but-identical; cacheable ones share
    # freshness windows.  Both must agree byte for byte.
    assert a.tobytes() == b.tobytes()
