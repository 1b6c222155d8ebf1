"""Benchmark of the serial report pass — the pre-engine baseline cost.

The engine's warm-cache speedup floor and byte-identity are the
``exec`` row of the bench registry (``bench_registry.py``).
"""

from repro.experiments import report


def test_report_generation_wall(benchmark):
    """The serial no-cache report pass — the pre-engine baseline cost."""
    md = benchmark.pedantic(report.generate_markdown, rounds=1, iterations=1)
    assert md.startswith("# EXPERIMENTS")
