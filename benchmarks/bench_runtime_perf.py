"""Performance benchmarks of the simulation infrastructure itself.

Unlike the figure benches (which regenerate paper artifacts), these
measure the *wall-clock* cost of the substrate — the launcher's
messaging loop, dense sensor sampling, and a full MonEQ session — so
regressions in the hot paths show up in `--benchmark-compare` runs.
The scheduler's fan-in speedup floor is a row of the bench registry
(`bench_registry.py`).
"""

import numpy as np

from repro.core import moneq
from repro.core.moneq.config import MoneqConfig
from repro.runtime.programs import run_mmps
from repro.testbeds import gpu_node, rapl_node
from repro.workloads.vectoradd import VectorAddWorkload


def test_launcher_message_throughput(benchmark):
    """2x2000 messages through the cooperative scheduler."""
    result = benchmark(run_mmps, ranks=2, messages_per_rank=2000)
    assert result.achieved_rate_per_rank > 1e6


def test_dense_sensor_sampling(benchmark):
    """600k sample-and-hold reads with noise, vectorized."""
    node, gpu, _ = gpu_node(seed=95)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    t = np.arange(0.0, 60.0, 1e-4)

    readings = benchmark(gpu.power_sensor.read, t)
    assert len(readings) == len(t)
    assert float(readings.mean()) > 40.0


def test_full_moneq_session(benchmark):
    """A 60 s RAPL profile at the 60 ms hardware minimum."""

    def run():
        node, _ = rapl_node(seed=96)
        return moneq.profile_run(node, duration_s=60.0,
                                 config=MoneqConfig(polling_interval_s=0.06))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.overhead.ticks == 1000
