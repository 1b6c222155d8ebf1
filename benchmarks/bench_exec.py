"""Benchmark of the report pass: every experiment, computed in process.

There is no result cache, so this is the wall of every
``python -m repro report``.
"""

from repro.experiments import report


def test_report_generation_wall(benchmark):
    """The full report pass: 13 experiments, 15 tasks."""
    md = benchmark.pedantic(report.generate_markdown, rounds=1, iterations=1)
    assert md.startswith("# EXPERIMENTS")
