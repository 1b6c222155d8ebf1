"""Discrete-event queue.

A thin, deterministic event scheduler: events fire in (time, sequence)
order, so two events scheduled for the same instant fire in the order they
were scheduled.  Used by :class:`repro.sim.timers.PeriodicTimer` (MonEQ's
virtual SIGALRM), by the BG/Q environmental database poller, and by the
SPMD runtime.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by (time, seq) for determinism."""

    time: float
    seq: int
    callback: Callable[[float], None] | None = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped, and drop its
        callback: a cancelled event waits in the heap until it reaches
        the top, and the callback's owner (a timer, a poller) usually
        holds the queue, so keeping it would close a cycle."""
        self.cancelled = True
        self.callback = None


class EventQueue:
    """Priority queue of :class:`Event` bound to a :class:`VirtualClock`.

    Callbacks receive the firing time and may schedule further events
    (periodic timers reschedule themselves this way).
    """

    def __init__(self, clock: VirtualClock | None = None):
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: list[Event] = []
        self._seq = itertools.count()
        #: While :meth:`run_until` drives the queue, the bound it will
        #: run to; None under :meth:`step`/:meth:`run_all`.  Handlers
        #: that can batch work ahead of the clock (the MonEQ
        #: block-sampling engine) read this to know how far lookahead
        #: is safe.
        self.horizon: float | None = None

    def __len__(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)

    def schedule(self, time: float, callback: Callable[[float], None]) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past: t={time}, now={self.clock.now}"
            )
        event = Event(time=float(time), seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[float], None]) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.clock.now + delay, callback)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Fire the next live event, advancing the clock to its time.

        Returns False when no live events remain.
        """
        self._drop_cancelled()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.time)
        event.callback(event.time)
        return True

    def run_until(self, t_end: float) -> int:
        """Fire every event with ``time <= t_end`` then advance the clock
        to exactly ``t_end``.  Returns the number of events fired.

        :attr:`horizon` exposes ``t_end`` for the duration of the drive
        (saved and restored, so a handler that itself calls run_until
        sees its own bound)."""
        fired = 0
        previous = self.horizon
        self.horizon = float(t_end)
        try:
            while True:
                self._drop_cancelled()
                if not self._heap or self._heap[0].time > t_end:
                    break
                event = heapq.heappop(self._heap)
                self.clock.advance_to(event.time)
                event.callback(event.time)
                fired += 1
        finally:
            self.horizon = previous
        self.clock.advance_to(max(self.clock.now, t_end))
        return fired

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the queue.  ``max_events`` guards against runaway
        self-rescheduling timers."""
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events:
                raise SimulationError(f"run_all exceeded {max_events} events")
        return fired

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
