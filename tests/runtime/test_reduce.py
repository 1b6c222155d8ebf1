"""Unit tests for the root-only Reduce collective."""

from repro.runtime.launcher import Launcher
from repro.runtime.ops import Reduce


class TestReduce:
    def test_sum_delivered_to_root_only(self):
        def program(ctx):
            result = yield Reduce(root=2, payload=ctx.rank + 1)
            return result

        results = Launcher(program, size=4).run()
        assert results[2].value == 10
        assert all(results[i].value is None for i in (0, 1, 3))

    def test_custom_op(self):
        def program(ctx):
            result = yield Reduce(root=0, payload=ctx.rank, op=max)
            return result

        assert Launcher(program, size=5).run()[0].value == 4

    def test_reduce_synchronizes(self):
        from repro.runtime.ops import Compute

        def program(ctx):
            yield Compute(float(ctx.rank))
            yield Reduce(root=0, payload=1)

        results = Launcher(program, size=3).run()
        assert len({r.finish_time for r in results}) == 1

    def test_matches_allreduce_at_root(self):
        from repro.runtime.ops import Allreduce

        def reduce_program(ctx):
            return (yield Reduce(root=0, payload=ctx.rank * 3))

        def allreduce_program(ctx):
            return (yield Allreduce(payload=ctx.rank * 3))

        reduced = Launcher(reduce_program, size=4).run()[0].value
        allreduced = Launcher(allreduce_program, size=4).run()[0].value
        assert reduced == allreduced
