"""The SPMD launcher: deterministic cooperative scheduling of rank
generators over the interconnect cost model.

Semantics:

* sends are eager and non-blocking (buffered), costing the sender its
  injection overhead; the message becomes receivable at
  ``send_time + ptp_time(nbytes)``;
* receives block until a matching message exists; the receiver's clock
  advances to at least the message's arrival time;
* collectives are synchronizing: participants leave at
  ``max(entry times) + collective_time``;
* scheduling is by smallest (local_time, rank), so runs are fully
  deterministic;
* if every unfinished rank is blocked, :class:`DeadlockError` names the
  blocked ranks, their local times, and what they wait on.

Runnable ranks live in a (time, rank) heap: a rank leaves the heap
when it blocks and is pushed back by the send or collective completion
that unblocks it, so each scheduling decision is O(log n) instead of an
O(n) rescan.  ANY_SOURCE receives use a per-(dest, tag) heap over the
*heads* of the per-source message queues (heads only: within one queue
arrivals are not sorted, because transfer time depends on message
size).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.errors import DeadlockError, RankError, RuntimeSimError
from repro.obs.instruments import (
    LAUNCHER_ERRORS,
    LAUNCHER_MESSAGES,
    LAUNCHER_RANKS,
    LAUNCHER_RUNS,
)
from repro.runtime.interconnect import BGQ_TORUS, Interconnect
from repro.runtime.ops import (
    ANY_SOURCE,
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Gather,
    Recv,
    Reduce,
    Scatter,
    Send,
    payload_nbytes,
)

#: Fixed software cost of posting/completing a receive.
RECV_OVERHEAD_S = 0.3e-6


@dataclass(frozen=True)
class RankContext:
    """Passed to every rank function: its coordinates in the job."""

    rank: int
    size: int


@dataclass
class RankResult:
    """Outcome of one rank: return value and final local time."""

    rank: int
    value: Any
    finish_time: float
    messages_sent: int = 0
    messages_received: int = 0
    #: (t0, t1) spans the rank spent computing or injecting messages
    #: (populated when the launcher runs with ``record_busy=True``).
    busy_spans: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class _RankState:
    generator: Generator
    rank: int = 0
    time: float = 0.0
    finished: bool = False
    value: Any = None
    blocked_on: Recv | None = None
    in_collective: Any = None
    collective_payload: Any = None
    send_next: Any = None  # value to send into the generator on resume
    #: True while this rank has an entry in the runnable heap.  A rank's
    #: time never changes while queued, so entries are never stale.
    queued: bool = False
    sent: int = 0
    received: int = 0
    busy_spans: list = field(default_factory=list)

    def mark_busy(self, t0: float, t1: float) -> None:
        if t1 <= t0:
            return
        # Merge with the previous span when contiguous.
        if self.busy_spans and abs(self.busy_spans[-1][1] - t0) < 1e-12:
            self.busy_spans[-1] = (self.busy_spans[-1][0], t1)
        else:
            self.busy_spans.append((t0, t1))


class Launcher:
    """Runs one SPMD program.

    Parameters
    ----------
    rank_fn:
        ``rank_fn(ctx)`` returning a generator (i.e. a function that
        yields ops).  Plain functions that never yield are allowed.
    size:
        Number of ranks.
    interconnect:
        Cost model; defaults to the BG/Q torus.
    """

    def __init__(self, rank_fn: Callable[[RankContext], Any], size: int,
                 interconnect: Interconnect = BGQ_TORUS,
                 record_busy: bool = False):
        if size <= 0:
            raise RuntimeSimError(f"size must be positive, got {size}")
        self.rank_fn = rank_fn
        self.size = size
        self.net = interconnect
        self.record_busy = record_busy
        self._ranks: list[_RankState] = []
        #: (dest, source, tag) -> deque of (arrival_time, payload)
        self._mailboxes: dict[tuple[int, int, int], deque] = {}
        self._collective_gate: dict[Any, list[int]] = {}
        #: Runnable ranks as a (time, rank) heap.
        self._runnable: list[tuple[float, int]] = []
        #: (dest, tag) -> heap of (head_arrival, source) over non-empty
        #: mailboxes, for O(log n) ANY_SOURCE matching.  Entries go
        #: stale when their head is consumed; they are discarded lazily.
        self._any_heads: dict[tuple[int, int], list[tuple[float, int]]] = {}

    # -- public API ------------------------------------------------------------

    def run(self) -> list[RankResult]:
        """Execute to completion; returns per-rank results."""
        self._ranks = []
        self._mailboxes = {}
        self._collective_gate = {}
        self._runnable = []
        self._any_heads = {}
        for rank in range(self.size):
            gen = self._as_generator(self.rank_fn, RankContext(rank, self.size))
            self._ranks.append(_RankState(generator=gen, rank=rank))
        for state in self._ranks:
            self._push_runnable(state)
        runnable = self._runnable
        while True:
            state = self._pop_runnable()
            if state is None:
                if all(s.finished for s in self._ranks):
                    break
                self._raise_deadlock()
            self._step(state)
            # Fast path: while this rank stays runnable, unqueued, and
            # strictly ahead of every queued rank, keep stepping it
            # without a push/pop round trip.  Every other runnable rank
            # is in the heap (sends and collective completions push
            # their wakeups), so beating the heap top *is* winning the
            # global (time, rank) ordering — at few ranks this removes
            # nearly all heap traffic.
            while (not state.finished and state.blocked_on is None
                   and state.in_collective is None and not state.queued
                   and (not runnable
                        or (state.time, state.rank) < runnable[0])):
                self._step(state)
            if not state.finished \
                    and state.in_collective is None and state.blocked_on is None:
                self._push_runnable(state)
        # Scheduling telemetry lands once per run, off the hot loop.
        LAUNCHER_RUNS.inc()
        LAUNCHER_RANKS.inc(self.size)
        LAUNCHER_MESSAGES.labels("sent").inc(sum(s.sent for s in self._ranks))
        LAUNCHER_MESSAGES.labels("received").inc(
            sum(s.received for s in self._ranks)
        )
        return [
            RankResult(rank=i, value=s.value, finish_time=s.time,
                       messages_sent=s.sent, messages_received=s.received,
                       busy_spans=list(s.busy_spans))
            for i, s in enumerate(self._ranks)
        ]

    # -- scheduling -----------------------------------------------------------

    def _push_runnable(self, state: _RankState) -> None:
        if not state.queued:
            state.queued = True
            heapq.heappush(self._runnable, (state.time, state.rank))

    def _pop_runnable(self) -> _RankState | None:
        if not self._runnable:
            return None
        _, rank = heapq.heappop(self._runnable)
        state = self._ranks[rank]
        state.queued = False
        return state

    def _step(self, state: _RankState) -> None:
        rank = state.rank
        if state.blocked_on is not None:
            # A match arrived; complete the receive.
            state.send_next = self._complete_recv(rank, state, state.blocked_on)
            state.blocked_on = None
        try:
            op = state.generator.send(state.send_next)
        except StopIteration as stop:
            state.finished = True
            state.value = stop.value
            return
        except Exception as exc:
            state.finished = True
            LAUNCHER_ERRORS.labels("rank_crash").inc()
            raise RankError(rank, exc) from exc
        state.send_next = None
        self._dispatch(rank, state, op)

    def _dispatch(self, rank: int, state: _RankState, op: Any) -> None:
        if isinstance(op, Compute):
            if self.record_busy:
                state.mark_busy(state.time, state.time + op.seconds)
            state.time += op.seconds
        elif isinstance(op, Send):
            self._do_send(rank, state, op)
        elif isinstance(op, Recv):
            if self._match_exists_for(rank, op):
                state.send_next = self._complete_recv(rank, state, op)
            else:
                state.blocked_on = op
        elif isinstance(op, (Barrier, Bcast, Gather, Scatter, Allreduce, Reduce)):
            self._enter_collective(rank, state, op)
        else:
            state.finished = True
            raise RankError(rank, RuntimeSimError(f"unknown op {op!r}"))

    # -- point-to-point ----------------------------------------------------------

    def _do_send(self, rank: int, state: _RankState, op: Send) -> None:
        if not 0 <= op.dest < self.size:
            state.finished = True
            raise RankError(rank, RuntimeSimError(f"send to invalid rank {op.dest}"))
        nbytes = payload_nbytes(op.payload, op.nbytes)
        # LogGP gap: back-to-back sends serialize at link bandwidth.
        gap = self.net.injection_gap(nbytes)
        if self.record_busy:
            state.mark_busy(state.time, state.time + gap)
        state.time += gap
        arrival = state.time + self.net.ptp_time(nbytes)
        key = (op.dest, rank, op.tag)
        queue = self._mailboxes.setdefault(key, deque())
        if not queue:
            # The message becomes this mailbox's head: index it.
            heapq.heappush(
                self._any_heads.setdefault((op.dest, op.tag), []), (arrival, rank)
            )
        queue.append((arrival, op.payload))
        state.sent += 1
        dest_state = self._ranks[op.dest]
        if (dest_state.blocked_on is not None
                and dest_state.blocked_on.tag == op.tag
                and dest_state.blocked_on.source in (rank, ANY_SOURCE)):
            # This send is the match the blocked receiver waits for.
            self._push_runnable(dest_state)

    def _match_exists_for(self, rank: int, op: Recv) -> bool:
        return self._find_mailbox(rank, op) is not None

    def _find_mailbox(self, rank: int, op: Recv) -> tuple[int, int, int] | None:
        if op.source != ANY_SOURCE:
            key = (rank, op.source, op.tag)
            return key if self._mailboxes.get(key) else None
        # ANY_SOURCE: deterministic choice — earliest arrival, then
        # lowest source rank.  The head index gives the answer without
        # scanning every source; an entry is live iff it still describes
        # its mailbox's head.
        heads = self._any_heads.get((rank, op.tag))
        while heads:
            arrival, source = heads[0]
            queue = self._mailboxes.get((rank, source, op.tag))
            if queue and queue[0][0] == arrival:
                return (rank, source, op.tag)
            heapq.heappop(heads)
        return None

    def _complete_recv(self, rank: int, state: _RankState, op: Recv) -> Any:
        key = self._find_mailbox(rank, op)
        if key is None:  # pragma: no cover - guarded by callers
            raise RuntimeSimError("recv completed without a match")
        queue = self._mailboxes[key]
        arrival, payload = queue.popleft()
        if queue:
            # A new head emerged: index it.
            heapq.heappush(
                self._any_heads.setdefault((rank, op.tag), []),
                (queue[0][0], key[1]),
            )
        state.time = max(state.time, arrival) + RECV_OVERHEAD_S
        state.received += 1
        return payload

    # -- collectives -----------------------------------------------------------

    def _collective_key(self, op: Any) -> tuple:
        if isinstance(op, Barrier):
            return ("barrier",)
        if isinstance(op, Bcast):
            return ("bcast", op.root)
        if isinstance(op, Gather):
            return ("gather", op.root)
        if isinstance(op, Scatter):
            return ("scatter", op.root)
        if isinstance(op, Reduce):
            return ("reduce", op.root)
        if isinstance(op, Allreduce):
            return ("allreduce",)
        raise RuntimeSimError(f"not a collective: {op!r}")  # pragma: no cover

    def _enter_collective(self, rank: int, state: _RankState, op: Any) -> None:
        key = self._collective_key(op)
        state.in_collective = op
        state.collective_payload = getattr(op, "payload", None)
        gate = self._collective_gate.setdefault(key, [])
        gate.append(rank)
        if len(gate) == self.size:
            self._finish_collective(key, gate)

    def _finish_collective(self, key: tuple, gate: list[int]) -> None:
        members = [self._ranks[r] for r in gate]
        ops = [s.in_collective for s in members]
        # Everyone leaves at max entry + tree time.
        nbytes = max(
            payload_nbytes(getattr(op, "payload", None), getattr(op, "nbytes", None))
            for op in ops
        )
        exit_time = max(s.time for s in members) + self.net.collective_time(
            self.size, nbytes
        )
        results = self._collective_results(key, gate, members)
        for state, result in zip(members, results):
            state.time = exit_time
            state.in_collective = None
            state.collective_payload = None
            state.send_next = result
            self._push_runnable(state)
        del self._collective_gate[key]

    def _collective_results(self, key: tuple, gate: list[int],
                            members: list[_RankState]) -> list[Any]:
        kind = key[0]
        if kind == "barrier":
            return [None] * len(members)
        by_rank = {r: s.collective_payload for r, s in zip(gate, members)}
        if kind == "bcast":
            root_value = by_rank[key[1]]
            return [root_value] * len(members)
        if kind == "gather":
            ordered = [by_rank[r] for r in sorted(by_rank)]
            return [ordered if r == key[1] else None for r in gate]
        if kind == "scatter":
            root_payload = by_rank[key[1]]
            if root_payload is None or len(root_payload) != len(gate):
                raise RuntimeSimError(
                    f"scatter root payload must have {len(gate)} entries"
                )
            return [root_payload[r] for r in gate]
        if kind == "reduce":
            ordered_ranks = sorted(by_rank)
            op_fn = members[gate.index(ordered_ranks[0])].in_collective.op
            accumulator = by_rank[ordered_ranks[0]]
            for r in ordered_ranks[1:]:
                accumulator = op_fn(accumulator, by_rank[r])
            return [accumulator if r == key[1] else None for r in gate]
        if kind == "allreduce":
            ordered_ranks = sorted(by_rank)
            op_fn = members[gate.index(ordered_ranks[0])].in_collective.op
            accumulator = by_rank[ordered_ranks[0]]
            for r in ordered_ranks[1:]:
                accumulator = op_fn(accumulator, by_rank[r])
            return [accumulator] * len(members)
        raise RuntimeSimError(f"unknown collective {kind}")  # pragma: no cover

    # -- failure reporting -------------------------------------------------------

    def _raise_deadlock(self) -> None:
        blocked = []
        for i, state in enumerate(self._ranks):
            if state.finished:
                continue
            if state.blocked_on is not None:
                op = state.blocked_on
                source = ("ANY_SOURCE" if op.source == ANY_SOURCE
                          else str(op.source))
                blocked.append(
                    f"rank {i} at t={state.time:.9g}s waiting on recv"
                    f"(source={source}, tag={op.tag})"
                )
            elif state.in_collective is not None:
                blocked.append(
                    f"rank {i} at t={state.time:.9g}s inside "
                    f"{type(state.in_collective).__name__}"
                )
        LAUNCHER_ERRORS.labels("deadlock").inc()
        raise DeadlockError("; ".join(blocked) or "no runnable ranks")

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _as_generator(fn: Callable, ctx: RankContext) -> Generator:
        result = fn(ctx)
        if isinstance(result, Generator):
            return result

        def trivial():
            return result
            yield  # pragma: no cover - makes this a generator

        return trivial()
