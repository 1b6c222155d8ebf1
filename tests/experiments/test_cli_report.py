"""Tests for the CLI entry point and the EXPERIMENTS.md generator."""

import pytest

from repro.__main__ import main as cli_main
from repro.exec.engine import Engine
from repro.exec.registry import specs_for
from repro.experiments import ALL_EXPERIMENTS


@pytest.fixture(scope="module")
def blocks():
    return Engine(cache=False).run(specs_for(["table1", "table2", "fig6"]))


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(ALL_EXPERIMENTS)

    def test_single_experiment_runs(self, capsys):
        assert cli_main(["table2"]) == 0
        assert "RAPL" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert cli_main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "python -m repro" in capsys.readouterr().out

    def test_exec_run_repeated_id_prints_one_block(self, capsys):
        assert cli_main(["exec", "run", "table1", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.count("## Table I — ") == 1
        assert "# 1 executed, 0 cached" in out


class TestReportBlocks:
    def test_table_blocks_have_paper_and_measured(self, blocks):
        for block in blocks.values():
            assert block.rows
            for quantity, paper, measured in block.rows:
                assert quantity and paper and measured

    def test_bench_paths_exist(self, blocks):
        import pathlib

        for block in blocks.values():
            assert pathlib.Path(block.bench).exists(), block.bench


class TestExperimentsMdUpToDate:
    def test_committed_file_has_all_sections(self):
        import pathlib

        text = pathlib.Path("EXPERIMENTS.md").read_text()
        for section in ("Table I", "Table II", "Table III",
                        "Figure 1", "Figure 7", "Figure 8",
                        "Per-query collection overheads", "RAPL counter overflow"):
            assert section in text, f"missing section {section!r}"
