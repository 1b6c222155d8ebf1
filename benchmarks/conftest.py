"""Benchmark harness configuration.

The ablation, extension and Mira-scale benches measure what lies
beyond the paper's tables and figures (those regenerate through
``python -m repro <id>``), assert their claims, and hand a
paper-vs-measured block to the ``report`` fixture.  The blocks are
emitted in the terminal summary (after the pytest-benchmark table), so
they appear without needing ``-s``.
"""

import pytest

_BLOCKS: list[str] = []


def paper_vs_measured(title: str, rows: list[tuple[str, str, str]]) -> None:
    """Queue a compact paper-vs-measured block for the terminal summary."""
    lines = [f"[{title}]"]
    width = max(len(r[0]) for r in rows)
    for label, paper, measured in rows:
        lines.append(f"  {label.ljust(width)}  paper: {paper:<24} "
                     f"measured: {measured}")
    _BLOCKS.append("\n".join(lines))


@pytest.fixture
def report():
    return paper_vs_measured


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _BLOCKS:
        return
    terminalreporter.write_sep("=", "paper vs. measured")
    for block in _BLOCKS:
        terminalreporter.write_line(block)
        terminalreporter.write_line("")
