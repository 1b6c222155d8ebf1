"""Unit tests for the periodic (virtual SIGALRM) timer."""

import gc
import weakref

import pytest

from repro.errors import ConfigError
from repro.sim.timers import PeriodicTimer


def make_recorder():
    ticks = []

    def handler(t, index):
        ticks.append((t, index))

    return ticks, handler


def test_fires_at_multiples_of_interval(queue):
    ticks, handler = make_recorder()
    PeriodicTimer(queue, interval=0.5, handler=handler)
    queue.run_until(2.0)
    assert [t for t, _ in ticks] == [0.5, 1.0, 1.5, 2.0]
    assert [i for _, i in ticks] == [0, 1, 2, 3]


def test_interval_must_be_positive(queue):
    with pytest.raises(ConfigError):
        PeriodicTimer(queue, interval=0.0, handler=lambda t, i: None)


def test_start_offset_shifts_first_tick(queue):
    ticks, handler = make_recorder()
    PeriodicTimer(queue, interval=1.0, handler=handler, start_offset=0.25)
    queue.run_until(2.5)
    assert [t for t, _ in ticks] == [0.25, 1.25, 2.25]


def test_zero_start_offset_fires_immediately(queue):
    ticks, handler = make_recorder()
    PeriodicTimer(queue, interval=1.0, handler=handler, start_offset=0.0)
    queue.run_until(1.0)
    assert [t for t, _ in ticks] == [0.0, 1.0]


def test_negative_offset_rejected(queue):
    with pytest.raises(ConfigError):
        PeriodicTimer(queue, interval=1.0, handler=lambda t, i: None, start_offset=-0.1)


def test_cancel_stops_future_ticks(queue):
    ticks = []
    timer = None

    def handler(t, index):
        ticks.append(t)
        if len(ticks) == 2:
            timer.cancel()

    timer = PeriodicTimer(queue, interval=1.0, handler=handler)
    queue.run_until(10.0)
    assert ticks == [1.0, 2.0]
    assert not timer.armed


def test_handler_cost_does_not_drift_schedule(queue):
    """A handler that burns 30% of the period must not delay later ticks:
    deadlines stay on the epoch grid (drift-free SIGALRM semantics)."""
    ticks = []

    def handler(t, index):
        ticks.append(t)
        queue.clock.advance(0.3)

    PeriodicTimer(queue, interval=1.0, handler=handler)
    queue.run_until(5.0)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_overrunning_handler_coalesces_ticks(queue):
    """A handler longer than the period skips the missed deadlines and
    counts them, like non-queued POSIX signals."""
    ticks = []

    def handler(t, index):
        ticks.append((t, index))
        queue.clock.advance(2.5)  # overrun 2 full periods

    timer = PeriodicTimer(queue, interval=1.0, handler=handler)
    queue.run_until(8.0)
    times = [t for t, _ in ticks]
    assert times == [1.0, 4.0, 7.0]
    assert timer.ticks_coalesced == 6  # 2 missed deadlines per overrun x 3 fires
    assert timer.ticks_fired == 3


def test_tick_count_matches_runtime_over_interval(queue):
    """MonEQ's collection count is runtime/interval; the 0.387 s collection
    figure in Table III is 1.10 ms x ~352 ticks at 560 ms over 202.7 s."""
    ticks, handler = make_recorder()
    PeriodicTimer(queue, interval=0.560, handler=handler)
    queue.run_until(202.78)
    assert len(ticks) == int(202.78 / 0.560)


def test_cancel_releases_an_owner_held_through_its_handler(queue):
    """owner -> timer -> bound handler -> owner is no cycle once the
    timer is cancelled, so the owner goes with its last reference."""
    class Owner:
        def __init__(self):
            self.ticks = 0
            self.timer = PeriodicTimer(queue, 0.5, self.on_tick)

        def on_tick(self, t, index):
            self.ticks += 1

    owner = Owner()
    queue.run_until(1.0)
    assert owner.ticks == 2
    owner.timer.cancel()
    alive = weakref.ref(owner)
    gc.disable()
    try:
        del owner
        assert alive() is None
    finally:
        gc.enable()
    queue.run_until(3.0)  # the dropped tick never fires
