"""The launcher's order oracle: the original full-scan scheduler.

:class:`LinearLauncher` runs rank programs exactly as
:class:`repro.runtime.launcher.Launcher` does, except that every step
rescans all ranks for the smallest (time, rank) runnable one — O(n) per
step, with no runnable heap and no run-ahead fast path.  The heap
launcher must reproduce its schedule bit for bit: values, finish times,
message counts, busy spans and deadlock reports.
"""

from repro.runtime.launcher import Launcher, RankContext, RankResult, _RankState


class LinearLauncher(Launcher):
    """:class:`Launcher` scheduled by a full rescan per step."""

    def _push_runnable(self, state: _RankState) -> None:
        """No heap to push to: :meth:`_pick_runnable` rescans instead."""

    def run(self) -> list[RankResult]:
        self._ranks = [
            _RankState(generator=self._as_generator(
                self.rank_fn, RankContext(rank, self.size)), rank=rank)
            for rank in range(self.size)
        ]
        self._mailboxes = {}
        self._collective_gate = {}
        self._any_heads = {}
        while True:
            state = self._pick_runnable()
            if state is None:
                if all(s.finished for s in self._ranks):
                    break
                self._raise_deadlock()
            self._step(state)
        return [
            RankResult(rank=i, value=s.value, finish_time=s.time,
                       messages_sent=s.sent, messages_received=s.received,
                       busy_spans=list(s.busy_spans))
            for i, s in enumerate(self._ranks)
        ]

    def _pick_runnable(self) -> _RankState | None:
        """Smallest (time, rank) over ranks that can make progress."""
        best = None
        for state in self._ranks:
            if state.finished or state.in_collective is not None:
                continue
            if (state.blocked_on is not None
                    and self._find_mailbox(state.rank, state.blocked_on) is None):
                continue
            if best is None or state.time < best.time:
                best = state
        return best
