"""Ablation: tagging on vs off.

"Because the injection happens after the program has completed, the
overhead of tagging is almost negligible."  Two identical profiled runs
— one wrapping three work loops in tags (6 API calls), one without —
must show identical collection overhead and virtually identical
finalize cost.
"""

import pytest

from repro.core import moneq
from repro.testbeds import rapl_node


def run_pair():
    node_a, _ = rapl_node(seed=94)
    session = moneq.initialize(node_a)
    for i in range(3):
        with session.tag(f"work-loop-{i}"):
            node_a.events.run_until(node_a.clock.now + 10.0)
    tagged = moneq.finalize(session)

    node_b, _ = rapl_node(seed=94)
    untagged = moneq.profile_run(node_b, duration_s=30.0)
    return tagged, untagged


def test_tagging_overhead_negligible(benchmark, report):
    tagged, untagged = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert len(tagged.tags) == 3
    assert tagged.overhead.collection_s == pytest.approx(
        untagged.overhead.collection_s, rel=0.02
    )
    assert tagged.overhead.total_s == pytest.approx(
        untagged.overhead.total_s, rel=0.02
    )
    report("Tagging ablation (3 work loops, 6 tag calls)", [
        ("collection overhead", "unchanged",
         f"tagged {tagged.overhead.collection_s * 1000:.1f} ms vs "
         f"untagged {untagged.overhead.collection_s * 1000:.1f} ms"),
        ("total MonEQ time", "almost negligible difference",
         f"tagged {tagged.overhead.total_s * 1000:.1f} ms vs "
         f"untagged {untagged.overhead.total_s * 1000:.1f} ms"),
    ])
