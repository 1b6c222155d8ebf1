"""The heap launcher schedules exactly like the linear-scan oracle.

Random SPMD programs — point-to-point and ANY_SOURCE traffic with mixed
message sizes, computes and collectives, including programs that
deadlock — run under both schedulers; values, finish times, message
counts, busy spans and deadlock reports must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.runtime.interconnect import BGQ_TORUS, CLUSTER_FDR_IB
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

from tests.runtime.linear_oracle import LinearLauncher

TAGS = (0, 1)
#: From one packet to a large transfer: a big message sent first can
#: arrive after a small one sent later.
NBYTES = (8, 64, 4096, 1_000_000)
COMPUTE_S = (0.0, 1e-6, 3e-6, 2e-5)


@st.composite
def scripts(draw):
    """Per-rank op lists, built phase by phase.

    A message phase draws (source, dest, tag, nbytes, any_source)
    messages; each becomes a send on the source and a receive on the
    dest.  Receives usually follow the phase's sends (ANY_SOURCE may
    still take another sender's message and strand a later receive);
    sometimes they come first, which can deadlock in a cycle, and
    sometimes one send is dropped, which always leaves a receive
    waiting.
    """
    size = draw(st.integers(min_value=1, max_value=6))
    script = [[] for _ in range(size)]
    rank = st.integers(min_value=0, max_value=size - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            kind = draw(st.sampled_from(("barrier", "allreduce", "bcast",
                                         "gather")))
            root = draw(rank)
            for ops in script:
                ops.append((kind, root))
            continue
        messages = draw(st.lists(
            st.tuples(rank, rank, st.sampled_from(TAGS),
                      st.sampled_from(NBYTES), st.booleans()),
            max_size=8))
        sends = [[] for _ in range(size)]
        recvs = [[] for _ in range(size)]
        for source, dest, tag, nbytes, any_source in messages:
            sends[source].append(("send", dest, tag, nbytes))
            recvs[dest].append(
                ("recv", ANY_SOURCE if any_source else source, tag))
        recv_first = draw(st.integers(min_value=0, max_value=3)) == 0
        for r, ops in enumerate(script):
            ops.append(("compute", draw(st.sampled_from(COMPUTE_S))))
            ops.extend(recvs[r] + sends[r] if recv_first
                       else sends[r] + recvs[r])
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        with_sends = [ops for ops in script
                      if any(op[0] == "send" for op in ops)]
        if with_sends:
            ops = draw(st.sampled_from(with_sends))
            ops.remove(next(op for op in ops if op[0] == "send"))
    return script


def _program(script):
    def program(ctx):
        got = []
        for op in script[ctx.rank]:
            kind = op[0]
            if kind == "compute":
                yield Compute(op[1])
            elif kind == "send":
                _, dest, tag, nbytes = op
                yield Send(dest=dest, payload=(ctx.rank, tag), tag=tag,
                           nbytes=nbytes)
            elif kind == "recv":
                got.append((yield Recv(source=op[1], tag=op[2])))
            elif kind == "barrier":
                yield Barrier()
            elif kind == "allreduce":
                got.append((yield Allreduce(ctx.rank)))
            elif kind == "bcast":
                got.append((yield Bcast(root=op[1], payload=ctx.rank)))
            else:
                got.append((yield Gather(root=op[1], payload=ctx.rank)))
        return got

    return program


def _outcome(launcher, script, interconnect):
    try:
        results = launcher(_program(script), size=len(script),
                           interconnect=interconnect, record_busy=True).run()
    except DeadlockError as err:
        return ("deadlock", str(err))
    return ("ok", [(r.value, r.finish_time, r.messages_sent,
                    r.messages_received, r.busy_spans) for r in results])


@given(script=scripts(), interconnect=st.sampled_from((BGQ_TORUS,
                                                       CLUSTER_FDR_IB)))
@settings(max_examples=300, deadline=None)
def test_heap_launcher_matches_linear_oracle(script, interconnect):
    assert _outcome(Launcher, script, interconnect) == \
        _outcome(LinearLauncher, script, interconnect)


def test_generated_programs_include_deadlocks():
    """The strategy reaches both outcomes, so the property compares
    deadlock reports as well as finished schedules."""
    seen = set()

    @given(script=scripts())
    @settings(max_examples=200, deadline=None, database=None)
    def collect(script):
        seen.add(_outcome(Launcher, script, BGQ_TORUS)[0])

    collect()
    assert seen == {"ok", "deadlock"}
