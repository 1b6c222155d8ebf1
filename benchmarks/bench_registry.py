"""Every row of the bench registry, live at full size.

One test per row of :data:`repro.perfbench.BENCHES`, held to the row's
own full-profile floors — the block engine >= 10x over one-tick blocks,
a full MonEQ session > 1.5x, the heap scheduler >= 5x over the linear
scan on a 4096-rank fan-in, the engine's warm cache >= 10x over cold
serial, the fleet sweep >= 2x realtime, and the rest — so no floor is
restated here.  ``python -m repro bench`` runs the same measurements
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
    if name == "exec":
        assert result["tasks"] == 15  # 13 experiments, Table III sharded
    if name == "fleet":
        assert result["cache_reduction"] >= 5.0, (
            "the channel cache must cut crossings >= 5x "
            "(Sec. IV poll sharing)")
