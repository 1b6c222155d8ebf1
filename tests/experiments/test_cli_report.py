"""Tests for the CLI entry point and the EXPERIMENTS.md generator."""

import pathlib
import re

import pytest

from repro.__main__ import main as cli_main
from repro.exec.engine import Engine
from repro.exec.registry import EXPERIMENT_IDS, specs_for

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def blocks():
    return Engine().run(specs_for(["table1", "table2", "fig6"]))


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(EXPERIMENT_IDS)

    def test_single_experiment_runs(self, capsys):
        assert cli_main(["table2"]) == 0
        assert "RAPL" in capsys.readouterr().out

    @pytest.mark.parametrize("exp_id, heading", [
        ("table2", "## Table II — "), ("fig6", "## Figure 6 — ")],
        ids=["table2", "fig6"])
    def test_experiment_prints_its_experiments_md_block(
            self, capsys, exp_id, heading):
        sections = re.split(r"(?m)^(?=## )", EXPERIMENTS_MD.read_text())
        block = next(s for s in sections if s.startswith(heading))
        assert cli_main([exp_id]) == 0
        out = capsys.readouterr().out
        assert block in out
        assert out.index(block) > 0, "the data view comes first"

    def test_unknown_experiment_errors(self, capsys):
        assert cli_main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "python -m repro" in capsys.readouterr().out

    def test_exec_run_repeated_id_prints_one_block(self, capsys):
        assert cli_main(["exec", "run", "table1", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.count("## Table I — ") == 1
        assert "# 1 executed, " in out


class TestReportBlocks:
    def test_table_blocks_have_paper_and_measured(self, blocks):
        for block in blocks.values():
            assert block.rows
            for quantity, paper, measured in block.rows:
                assert quantity and paper and measured


class TestExperimentsMdUpToDate:
    def test_committed_file_has_all_sections(self):
        text = EXPERIMENTS_MD.read_text()
        for section in ("Table I", "Table II", "Table III",
                        "Figure 1", "Figure 7", "Figure 8",
                        "Per-query collection overheads", "RAPL counter overflow"):
            assert section in text, f"missing section {section!r}"
