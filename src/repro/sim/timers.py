"""Periodic virtual timers — the simulation analogue of SIGALRM.

MonEQ "registers to receive a SIGALRM signal at that polling interval"
(paper §III).  :class:`PeriodicTimer` reproduces the semantics that matter
for overhead accounting: drift-free scheduling (ticks land on
``epoch + k*interval`` regardless of how long the handler runs, as long as
the handler is shorter than the interval), and coalescing (if a handler
overruns one or more periods, missed ticks collapse into a single late
tick, as POSIX does for non-queued signals).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigError
from repro.sim.events import Event, EventQueue


class PeriodicTimer:
    """Fires ``handler(t, tick_index)`` every ``interval`` virtual seconds.

    Parameters
    ----------
    queue:
        Event queue providing the clock.
    interval:
        Period in seconds; must be positive.
    handler:
        Callback; may advance the clock (handler cost).  If it advances
        past one or more subsequent deadlines, those ticks coalesce into
        the next one and are counted in :attr:`ticks_coalesced`.
    start_offset:
        Delay before the first tick, default one full interval.
    """

    def __init__(
        self,
        queue: EventQueue,
        interval: float,
        handler: Callable[[float, int], None],
        start_offset: float | None = None,
    ):
        if interval <= 0.0:
            raise ConfigError(f"timer interval must be positive, got {interval}")
        self.queue = queue
        self.interval = float(interval)
        self.handler = handler
        self.ticks_fired = 0
        self.ticks_coalesced = 0
        self._armed = True
        offset = self.interval if start_offset is None else float(start_offset)
        if offset < 0.0:
            raise ConfigError(f"start offset must be non-negative, got {offset}")
        # Deadlines are epoch + k*interval for integer k >= 1, where the
        # epoch is chosen so the first deadline is now + offset.
        self.epoch = queue.clock.now + offset - self.interval
        self._k = 1
        self._event: Event | None = queue.schedule(
            self.epoch + self._k * self.interval, self._fire
        )

    @property
    def armed(self) -> bool:
        """True until :meth:`cancel` is called."""
        return self._armed

    def cancel(self) -> None:
        """Stop the timer; the pending tick is dropped."""
        self._armed = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def plan_block(self, advance_per_tick: float, t_limit: float | None,
                   horizon: float, max_ticks: int) -> tuple[list[float], int, int]:
        """Deadlines of the currently-firing tick plus the lookahead
        ticks that would follow it, assuming the handler advances the
        clock by exactly ``advance_per_tick`` per tick.

        Call from *inside* the handler.  The grid replays this timer's
        recurrence — including coalescing, when ``advance_per_tick``
        overruns the interval — and stops strictly before ``t_limit``
        (the next foreign event must keep its place in the event order),
        at ``horizon`` inclusive (a tick exactly on the run_until bound
        still fires), and at ``max_ticks`` entries.

        Returns ``(times, k_last, coalesced)``; pass the counts to
        :meth:`commit_block` after handling the block so the
        post-handler reschedule continues the exact recurrence that
        firing each tick as its own event would have produced.
        """
        k = self._k
        t = self.epoch + k * self.interval
        times = [t]
        coalesced = 0
        while len(times) < max_ticks:
            now = t + advance_per_tick
            k_next = max(k + 1, math.floor((now - self.epoch) / self.interval) + 1)
            t_next = self.epoch + k_next * self.interval
            if t_limit is not None and t_next >= t_limit:
                break
            if t_next > horizon:
                break
            coalesced += k_next - (k + 1)
            k = k_next
            t = t_next
            times.append(t)
        return times, k, coalesced

    def commit_block(self, count: int, k_last: int, coalesced: int) -> None:
        """Account for ``count`` ticks handled in one batched call.

        The firing tick was already counted by the dispatch; the
        ``count - 1`` lookahead ticks and any intra-block coalescing
        land here, and the deadline index moves to the last handled
        tick so the reschedule after the handler returns matches
        per-event firing bit for bit.
        """
        self.ticks_fired += count - 1
        self.ticks_coalesced += coalesced
        self._k = k_last

    def _fire(self, t: float) -> None:
        if not self._armed:
            return
        index = self.ticks_fired
        self.ticks_fired += 1
        self.handler(t, index)
        if not self._armed:
            return
        # Next deadline: first multiple strictly after the post-handler
        # clock.  Any deadlines the handler ran past are coalesced.
        now = self.queue.clock.now
        k_next = max(self._k + 1, math.floor((now - self.epoch) / self.interval) + 1)
        self.ticks_coalesced += k_next - (self._k + 1)
        self._k = k_next
        self._event = self.queue.schedule(self.epoch + self._k * self.interval, self._fire)
