"""Unit and integration tests for the SPMD runtime."""

import pytest

from repro.errors import ConfigError, DeadlockError, RankError, RuntimeSimError
from repro.runtime.interconnect import BGQ_TORUS, CLUSTER_FDR_IB, Interconnect
from repro.runtime.launcher import Launcher
from repro.runtime.ops import (
    ANY_SOURCE,
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Gather,
    Recv,
    Send,
)


class TestInterconnect:
    def test_ptp_time_postal_model(self):
        net = Interconnect(latency_s=1e-6, bandwidth_Bps=1e9)
        assert net.ptp_time(1000) == pytest.approx(1e-6 + 1e-6)

    def test_collective_log_rounds(self):
        net = BGQ_TORUS
        assert net.rounds(1) == 0
        assert net.rounds(2) == 1
        assert net.rounds(1024) == 10

    def test_messaging_rate_mmps_scale(self):
        # Small messages on the BG/Q torus: ~2 M messages/s/node.
        assert 1e6 < BGQ_TORUS.messaging_rate(32) < 5e6

    def test_validation(self):
        with pytest.raises(ConfigError):
            Interconnect(latency_s=-1.0, bandwidth_Bps=1.0)
        with pytest.raises(ConfigError):
            Interconnect(latency_s=0.0, bandwidth_Bps=0.0)
        with pytest.raises(ConfigError):
            BGQ_TORUS.ptp_time(-1)
        with pytest.raises(ConfigError):
            BGQ_TORUS.rounds(0)


class TestPointToPoint:
    def test_send_recv(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(dest=1, payload={"a": 7}, tag=11)
                return "sent"
            data = yield Recv(source=0, tag=11)
            return data

        results = Launcher(program, size=2).run()
        assert results[0].value == "sent"
        assert results[1].value == {"a": 7}
        assert results[1].messages_received == 1

    def test_recv_before_send_blocks_then_completes(self):
        def program(ctx):
            if ctx.rank == 1:
                data = yield Recv(source=0)
                return data
            yield Compute(1.0)  # rank 1 blocks while rank 0 computes
            yield Send(dest=1, payload="late")

        results = Launcher(program, size=2).run()
        assert results[1].value == "late"
        assert results[1].finish_time >= 1.0  # waited for the send

    def test_tags_do_not_cross_match(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Send(dest=1, payload="a", tag=1)
                yield Send(dest=1, payload="b", tag=2)
            else:
                second = yield Recv(source=0, tag=2)
                first = yield Recv(source=0, tag=1)
                return (first, second)

        results = Launcher(program, size=2).run()
        assert results[1].value == ("a", "b")

    def test_fifo_per_channel(self):
        def program(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield Send(dest=1, payload=i)
            else:
                got = []
                for _ in range(5):
                    got.append((yield Recv(source=0)))
                return got

        assert Launcher(program, size=2).run()[1].value == [0, 1, 2, 3, 4]

    def test_any_source(self):
        def program(ctx):
            if ctx.rank == 0:
                got = []
                for _ in range(2):
                    got.append((yield Recv(source=ANY_SOURCE)))
                return sorted(got)
            yield Send(dest=0, payload=ctx.rank)

        assert Launcher(program, size=3).run()[0].value == [1, 2]

    def test_send_to_invalid_rank(self):
        def program(ctx):
            yield Send(dest=5)

        with pytest.raises(RankError):
            Launcher(program, size=2).run()

    def test_message_latency_advances_receiver_clock(self):
        big = 10_000_000  # 10 MB over ~20 GB/s ~ 0.5 ms

        def program(ctx):
            if ctx.rank == 0:
                yield Send(dest=1, payload=None, nbytes=big)
            else:
                yield Recv(source=0)

        results = Launcher(program, size=2).run()
        assert results[1].finish_time >= BGQ_TORUS.ptp_time(big)


class TestCollectives:
    def test_barrier_synchronizes_clocks(self):
        def program(ctx):
            yield Compute(float(ctx.rank))  # staggered entry
            yield Barrier()

        results = Launcher(program, size=4).run()
        times = {r.finish_time for r in results}
        assert len(times) == 1
        assert times.pop() >= 3.0

    def test_bcast_delivers_root_payload(self):
        def program(ctx):
            data = yield Bcast(root=1, payload="x" if ctx.rank == 1 else None)
            return data

        results = Launcher(program, size=3).run()
        assert all(r.value == "x" for r in results)

    def test_gather_collects_in_rank_order(self):
        def program(ctx):
            data = yield Gather(root=0, payload=ctx.rank * 10)
            return data

        results = Launcher(program, size=4).run()
        assert results[0].value == [0, 10, 20, 30]
        assert all(r.value is None for r in results[1:])

    def test_allreduce_sum(self):
        def program(ctx):
            total = yield Allreduce(payload=ctx.rank + 1)
            return total

        results = Launcher(program, size=4).run()
        assert all(r.value == 10 for r in results)

    def test_allreduce_custom_op(self):
        def program(ctx):
            biggest = yield Allreduce(payload=ctx.rank, op=max)
            return biggest

        assert Launcher(program, size=5).run()[0].value == 4

    def test_collective_costs_tree_time(self):
        def program(ctx):
            yield Barrier()

        results = Launcher(program, size=8, interconnect=CLUSTER_FDR_IB).run()
        assert results[0].finish_time >= 3 * CLUSTER_FDR_IB.latency_s


class TestFailureModes:
    def test_deadlock_detected_and_named(self):
        def program(ctx):
            yield Recv(source=(ctx.rank + 1) % 2)  # mutual waits, no sends

        with pytest.raises(DeadlockError, match="rank 0"):
            Launcher(program, size=2).run()

    def test_partial_barrier_deadlocks(self):
        def program(ctx):
            if ctx.rank == 0:
                yield Barrier()
            # rank 1 returns without entering

        with pytest.raises(DeadlockError, match="Barrier"):
            Launcher(program, size=2).run()

    def test_rank_exception_wrapped(self):
        def program(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            yield Compute(0.1)

        with pytest.raises(RankError) as exc:
            Launcher(program, size=2).run()
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, ValueError)

    def test_size_validated(self):
        with pytest.raises(RuntimeSimError):
            Launcher(lambda ctx: None, size=0)

    def test_plain_function_ranks_allowed(self):
        results = Launcher(lambda ctx: ctx.rank * 2, size=3).run()
        assert [r.value for r in results] == [0, 2, 4]


class TestDeterminism:
    def test_identical_runs(self):
        def program(ctx):
            if ctx.rank == 0:
                got = []
                for _ in range(4):
                    got.append((yield Recv(source=ANY_SOURCE)))
                return got
            yield Compute(0.001 * ctx.rank)
            yield Send(dest=0, payload=ctx.rank)

        a = Launcher(program, size=5).run()
        b = Launcher(program, size=5).run()
        assert [r.value for r in a] == [r.value for r in b]
        assert [r.finish_time for r in a] == [r.finish_time for r in b]


class TestMmpsStyleProgram:
    def test_pairwise_message_storm(self):
        """An MMPS-like exchange: neighbors trade many small messages;
        the achieved rate is within the interconnect's postal bound."""
        messages = 200

        def program(ctx):
            peer = ctx.rank ^ 1
            for i in range(messages):
                yield Send(dest=peer, payload=None, nbytes=32, tag=i)
            for i in range(messages):
                yield Recv(source=peer, tag=i)
            return "done"

        results = Launcher(program, size=2).run()
        elapsed = max(r.finish_time for r in results)
        rate = messages / elapsed
        assert rate <= BGQ_TORUS.messaging_rate(32) * 1.01
        assert rate > BGQ_TORUS.messaging_rate(32) * 0.3


class TestHeapScheduler:
    """The heap scheduler must reproduce the linear reference schedule
    exactly — same values, same times, same message counts."""

    @staticmethod
    def _equivalent(program, size, interconnect=BGQ_TORUS):
        a = Launcher(program, size=size, scheduler="linear",
                     interconnect=interconnect, record_busy=True).run()
        b = Launcher(program, size=size, scheduler="heap",
                     interconnect=interconnect, record_busy=True).run()
        assert [(r.value, r.finish_time, r.messages_sent, r.messages_received,
                 r.busy_spans) for r in a] == \
               [(r.value, r.finish_time, r.messages_sent, r.messages_received,
                 r.busy_spans) for r in b]
        return b

    def test_scheduler_name_validated(self):
        with pytest.raises(RuntimeSimError, match="scheduler"):
            Launcher(lambda ctx: None, size=1, scheduler="quantum")

    def test_any_source_fan_in_equivalent(self):
        def program(ctx):
            if ctx.rank == 0:
                got = []
                for _ in range(ctx.size - 1):
                    got.append((yield Recv(source=ANY_SOURCE, tag=3)))
                return sorted(got)
            yield Compute(1e-5 * ((ctx.rank * 7) % 5 + 1))
            yield Send(dest=0, payload=ctx.rank, tag=3,
                       nbytes=64 if ctx.rank % 2 else 65536)

        results = self._equivalent(program, size=16)
        assert results[0].value == list(range(1, 16))

    def test_mixed_collectives_and_ptp_equivalent(self):
        def program(ctx):
            yield Compute(1e-6 * (ctx.rank % 3))
            peer = ctx.rank ^ 1
            for i in range(5):
                yield Send(dest=peer, payload=(ctx.rank, i), tag=i)
            got = []
            for i in range(5):
                got.append((yield Recv(source=peer, tag=i)))
            yield Barrier()
            total = yield Allreduce(ctx.rank, op=lambda x, y: x + y)
            return (got, total)

        self._equivalent(program, size=8)

    def test_same_source_out_of_order_arrivals(self):
        """Two sends from one source where the second *arrives* first
        (big message then small): non-overtaking order must hold, so
        the ANY_SOURCE head index must track queue heads, not arrivals."""
        def program(ctx):
            if ctx.rank == 0:
                first = yield Recv(source=ANY_SOURCE, tag=0)
                second = yield Recv(source=ANY_SOURCE, tag=0)
                return [first, second]
            yield Send(dest=0, payload="big", tag=0, nbytes=10_000_000)
            yield Send(dest=0, payload="small", tag=0, nbytes=8)

        results = self._equivalent(program, size=2)
        assert results[0].value == ["big", "small"]

    def test_deadlock_report_names_every_blocked_rank(self):
        """The report lists each blocked rank with its local time and
        what it waits on — (source, tag) or the collective."""
        def program(ctx):
            if ctx.rank == 0:
                yield Compute(0.25)
                yield Recv(source=2, tag=7)
            elif ctx.rank == 1:
                yield Recv(source=ANY_SOURCE, tag=9)
            else:
                yield Barrier()

        with pytest.raises(DeadlockError) as err:
            Launcher(program, size=3).run()
        message = str(err.value)
        assert "rank 0 at t=0.25s waiting on recv(source=2, tag=7)" in message
        assert "rank 1 at t=0s waiting on recv(source=ANY_SOURCE, tag=9)" \
            in message
        assert "rank 2 at t=0s inside Barrier" in message

    def test_deadlock_equivalent_across_schedulers(self):
        def program(ctx):
            yield Recv(source=(ctx.rank + 1) % ctx.size, tag=1)

        messages = []
        for scheduler in ("linear", "heap"):
            with pytest.raises(DeadlockError) as err:
                Launcher(program, size=4, scheduler=scheduler).run()
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_launcher_reusable_after_run(self):
        def program(ctx):
            yield Send(dest=(ctx.rank + 1) % ctx.size, payload=ctx.rank, tag=0)
            return (yield Recv(source=ANY_SOURCE, tag=0))

        launcher = Launcher(program, size=4)
        assert [r.value for r in launcher.run()] == \
               [r.value for r in launcher.run()]


class TestAutoScheduler:
    """``scheduler="auto"`` resolves to the linear scan below the
    measured crossover and to the heap at or above it — same schedule
    either way."""

    def test_resolution_by_size(self):
        from repro.runtime.launcher import AUTO_HEAP_MIN_RANKS

        def program(ctx):
            return ctx.rank
            yield

        small = Launcher(program, size=AUTO_HEAP_MIN_RANKS - 1)
        large = Launcher(program, size=AUTO_HEAP_MIN_RANKS)
        assert small.scheduler == "auto"  # the default
        assert small.effective_scheduler == "linear"
        assert large.effective_scheduler == "heap"

    def test_explicit_choice_not_overridden(self):
        def program(ctx):
            return ctx.rank
            yield

        assert Launcher(program, size=2,
                        scheduler="heap").effective_scheduler == "heap"
        assert Launcher(program, size=4096,
                        scheduler="linear").effective_scheduler == "linear"

    def test_auto_matches_both_references(self):
        def program(ctx):
            peer = ctx.rank ^ 1
            yield Send(dest=peer, payload=ctx.rank, tag=0, nbytes=64)
            got = yield Recv(source=peer, tag=0)
            yield Barrier()
            return got

        outcomes = [
            [(r.value, r.finish_time) for r in
             Launcher(program, size=8, scheduler=scheduler).run()]
            for scheduler in ("auto", "heap", "linear")
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
