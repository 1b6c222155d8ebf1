"""Unit tests for the discrete-event queue."""

import pytest

from repro.errors import SimulationError


def test_events_fire_in_time_order(queue):
    order = []
    queue.schedule(2.0, lambda t: order.append("b"))
    queue.schedule(1.0, lambda t: order.append("a"))
    queue.schedule(3.0, lambda t: order.append("c"))
    queue.run_all()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order(queue):
    order = []
    for tag in ["first", "second", "third"]:
        queue.schedule(1.0, lambda t, tag=tag: order.append(tag))
    queue.run_all()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time(queue):
    seen = []
    queue.schedule(4.25, lambda t: seen.append(queue.clock.now))
    queue.run_all()
    assert seen == [4.25]
    assert queue.clock.now == 4.25


def test_scheduling_in_past_rejected(queue):
    queue.clock.advance(5.0)
    with pytest.raises(SimulationError):
        queue.schedule(4.0, lambda t: None)


def test_schedule_in_relative_delay(queue):
    queue.clock.advance(2.0)
    fired = []
    queue.schedule_in(1.5, lambda t: fired.append(t))
    queue.run_all()
    assert fired == [3.5]


def test_negative_delay_rejected(queue):
    with pytest.raises(SimulationError):
        queue.schedule_in(-1.0, lambda t: None)


def test_run_until_fires_only_due_events(queue):
    fired = []
    queue.schedule(1.0, lambda t: fired.append(1.0))
    queue.schedule(2.0, lambda t: fired.append(2.0))
    queue.schedule(5.0, lambda t: fired.append(5.0))
    count = queue.run_until(3.0)
    assert count == 2
    assert fired == [1.0, 2.0]
    assert queue.clock.now == 3.0


def test_run_until_boundary_event_fires(queue):
    fired = []
    queue.schedule(3.0, lambda t: fired.append(t))
    queue.run_until(3.0)
    assert fired == [3.0]


def test_run_until_advances_clock_even_with_no_events(queue):
    queue.run_until(7.0)
    assert queue.clock.now == 7.0


def test_cancelled_event_does_not_fire(queue):
    fired = []
    event = queue.schedule(1.0, lambda t: fired.append(t))
    event.cancel()
    queue.run_all()
    assert fired == []


def test_len_excludes_cancelled(queue):
    e1 = queue.schedule(1.0, lambda t: None)
    queue.schedule(2.0, lambda t: None)
    assert len(queue) == 2
    e1.cancel()
    assert len(queue) == 1


def test_callback_may_schedule_more_events(queue):
    fired = []

    def chain(t):
        fired.append(t)
        if t < 3.0:
            queue.schedule(t + 1.0, chain)

    queue.schedule(1.0, chain)
    queue.run_all()
    assert fired == [1.0, 2.0, 3.0]


def test_step_returns_false_on_empty(queue):
    assert queue.step() is False


def test_run_all_guards_against_runaway(queue):
    def forever(t):
        queue.schedule(t + 1.0, forever)

    queue.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        queue.run_all(max_events=50)


def test_peek_time(queue):
    assert queue.peek_time() is None
    queue.schedule(2.0, lambda t: None)
    queue.schedule(1.0, lambda t: None)
    assert queue.peek_time() == 1.0
