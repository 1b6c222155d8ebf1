"""Ready-made SPMD programs.

Executable (simulated) analogues of the applications the paper
profiles: the ALCF MMPS benchmark as a real message-exchange program
whose achieved rate comes out of the runtime rather than a formula, a
halo-exchange compute loop with the sync structure that produces the
Figure 3 rhythm, and a bulk-synchronous reduction kernel.  Each returns
a result object with figures of merit the tests can check against the
closed-form interconnect model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.runtime.interconnect import BGQ_TORUS, Interconnect
from repro.runtime.launcher import Launcher, RankResult
from repro.runtime.ops import Allreduce, Barrier, Compute, Recv, Send


@dataclass(frozen=True)
class MmpsResult:
    """Outcome of an MMPS run."""

    ranks: int
    messages_per_rank: int
    message_bytes: int
    elapsed_s: float
    achieved_rate_per_rank: float
    model_rate_per_rank: float

    @property
    def model_agreement(self) -> float:
        """achieved / closed-form postal-model rate."""
        return self.achieved_rate_per_rank / self.model_rate_per_rank


def run_mmps(ranks: int = 2, messages_per_rank: int = 1000,
             message_bytes: int = 32,
             interconnect: Interconnect = BGQ_TORUS) -> MmpsResult:
    """The messaging-rate benchmark: every rank streams messages to its
    XOR-partner, then drains its inbox; the achieved per-rank rate is
    messages / elapsed."""
    if ranks < 2 or ranks % 2:
        raise ConfigError(f"MMPS pairs ranks; need an even count >= 2, got {ranks}")
    if messages_per_rank <= 0:
        raise ConfigError("messages_per_rank must be positive")

    def program(ctx):
        peer = ctx.rank ^ 1
        yield Barrier()
        for i in range(messages_per_rank):
            yield Send(dest=peer, payload=None, nbytes=message_bytes, tag=i)
        for i in range(messages_per_rank):
            yield Recv(source=peer, tag=i)
        yield Barrier()
        return ctx.rank

    results = Launcher(program, size=ranks, interconnect=interconnect).run()
    elapsed = max(r.finish_time for r in results)
    achieved = messages_per_rank / elapsed
    return MmpsResult(
        ranks=ranks,
        messages_per_rank=messages_per_rank,
        message_bytes=message_bytes,
        elapsed_s=elapsed,
        achieved_rate_per_rank=achieved,
        model_rate_per_rank=interconnect.messaging_rate(message_bytes),
    )


@dataclass(frozen=True)
class HaloExchangeResult:
    """Outcome of the halo-exchange loop."""

    ranks: int
    iterations: int
    elapsed_s: float
    compute_fraction: float
    per_rank: list[RankResult]


def run_halo_exchange(ranks: int = 4, iterations: int = 20,
                      compute_s: float = 0.25, halo_bytes: int = 64 * 1024,
                      interconnect: Interconnect = BGQ_TORUS) -> HaloExchangeResult:
    """1-D ring halo exchange: compute, trade boundaries with both
    neighbours, repeat.  The periodic communication stall is the program
    structure behind Figure 3's rhythmic utilization drop."""
    if ranks < 2:
        raise ConfigError("halo exchange needs >= 2 ranks")
    if iterations <= 0 or compute_s <= 0.0:
        raise ConfigError("iterations and compute time must be positive")

    def program(ctx):
        left = (ctx.rank - 1) % ctx.size
        right = (ctx.rank + 1) % ctx.size
        for it in range(iterations):
            yield Compute(compute_s)
            yield Send(dest=right, payload=None, nbytes=halo_bytes, tag=2 * it)
            yield Send(dest=left, payload=None, nbytes=halo_bytes, tag=2 * it + 1)
            yield Recv(source=left, tag=2 * it)
            yield Recv(source=right, tag=2 * it + 1)
        yield Barrier()
        return iterations

    results = Launcher(program, size=ranks, interconnect=interconnect).run()
    elapsed = max(r.finish_time for r in results)
    return HaloExchangeResult(
        ranks=ranks,
        iterations=iterations,
        elapsed_s=elapsed,
        compute_fraction=(iterations * compute_s) / elapsed,
        per_rank=results,
    )


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of the bulk-synchronous reduction kernel."""

    ranks: int
    rounds: int
    elapsed_s: float
    final_value: float


def run_reduction(ranks: int = 8, rounds: int = 10, compute_s: float = 0.1,
                  interconnect: Interconnect = BGQ_TORUS) -> ReductionResult:
    """Iterated compute + allreduce (the residual-norm pattern of every
    iterative solver)."""
    if ranks < 1 or rounds < 1:
        raise ConfigError("ranks and rounds must be positive")

    def program(ctx):
        value = float(ctx.rank + 1)
        for _ in range(rounds):
            yield Compute(compute_s)
            value = yield Allreduce(payload=value / ctx.size)
        return value

    results = Launcher(program, size=ranks, interconnect=interconnect).run()
    return ReductionResult(
        ranks=ranks,
        rounds=rounds,
        elapsed_s=max(r.finish_time for r in results),
        final_value=float(results[0].value),
    )
