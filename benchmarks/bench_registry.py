"""Every row of the bench registry, live at full size.

One test per row of :data:`repro.perfbench.BENCHES`, held to the row's
own full-profile bounds — the block engine >= 10x over one-tick
blocks, a full MonEQ session <= 15.75 us per tick, the 4096-rank
fan-in scaling at >= 0.5 of linear from 512 ranks, the fleet sweep
>= 2x realtime, and the rest — so no bound is restated here.  ``python -m repro bench`` runs the same measurements
outside pytest and records them in ``BENCH_trajectory.json``.
"""

import pytest

from repro.perfbench import BENCHES, floor_failures


@pytest.mark.parametrize("name", list(BENCHES))
def test_full_profile_meets_its_floors(benchmark, name):
    result = benchmark.pedantic(lambda: BENCHES[name].measure("full"),
                                rounds=1, iterations=1)
    assert floor_failures(name, result, "full") == []
    assert result.get("byte_identical", True) is True
    if name == "fleet":
        assert result["cache_reduction"] >= 5.0, (
            "the channel cache must cut crossings >= 5x "
            "(Sec. IV poll sharing)")
