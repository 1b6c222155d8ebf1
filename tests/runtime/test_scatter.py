"""Unit tests for the Scatter collective."""

import pytest

from repro.errors import RuntimeSimError
from repro.runtime.launcher import Launcher
from repro.runtime.ops import Gather, Scatter


class TestScatter:
    def test_root_payload_split_by_rank(self):
        def program(ctx):
            data = [i * i for i in range(ctx.size)] if ctx.rank == 1 else None
            piece = yield Scatter(root=1, payload=data)
            return piece

        results = Launcher(program, size=4).run()
        assert [r.value for r in results] == [0, 1, 4, 9]

    def test_scatter_then_gather_roundtrip(self):
        def program(ctx):
            data = list(range(100, 100 + ctx.size)) if ctx.rank == 0 else None
            piece = yield Scatter(root=0, payload=data)
            collected = yield Gather(root=0, payload=piece * 2)
            return collected

        results = Launcher(program, size=3).run()
        assert results[0].value == [200, 202, 204]

    def test_wrong_length_payload_rejected(self):
        def program(ctx):
            data = [1, 2] if ctx.rank == 0 else None  # size is 3
            yield Scatter(root=0, payload=data)

        with pytest.raises(RuntimeSimError):
            Launcher(program, size=3).run()

    def test_scatter_synchronizes(self):
        from repro.runtime.ops import Compute

        def program(ctx):
            yield Compute(float(ctx.rank))
            yield Scatter(root=0, payload=[0] * ctx.size if ctx.rank == 0 else None)

        results = Launcher(program, size=3).run()
        assert len({r.finish_time for r in results}) == 1
