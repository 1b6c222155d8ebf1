"""The benchmark's own tests.

    python3 -m pytest e2ebench/tests -q

They pin what makes two runs comparable: the operation list is pure in
the seed, every seed runs the same mix, the tail percentile keeps at
least ten samples beyond it, and the traced run reports every
per-layer metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    TAIL_MIN_BEYOND,
    block_rate,
    tail_percentile,
    use_source_tree,
)

use_source_tree()

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_names_every_workload():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_plan_is_pure_in_the_seed_and_keeps_the_mix(name):
    workload = WORKLOADS[name]()
    n = workload.n_ops(BENCHMARK["run_seconds"])
    first, again, other = (workload.plan(1, n), workload.plan(1, n),
                           workload.plan(2, n))
    assert first == again
    assert _mix(first) == _mix(other)
    if name != "fleet-live":  # a cycle's inputs come from the fleet seed
        assert first != other


def _parts(op: dict) -> list[dict]:
    return op.get("sessions") or [op]


def _mix(ops: list[dict]) -> Counter:
    return Counter(part["kind"] for op in ops for part in _parts(op))


def _items(name: str, seed: int, n_ops: int) -> tuple[list[int], dict]:
    workload = WORKLOADS[name]()
    ops = workload.plan(seed, n_ops)
    workload.prepare(seed, ops)
    state = workload.build(seed)
    workload.warm_up(state, seed)
    return [workload.check(state, op, workload.run(state, op))
            for op in ops], state


@pytest.mark.parametrize("name", ["fleet-live", "collect-chaos"])
def test_item_counts_repeat_per_seed_and_mix(name):
    n = 2 if name == "fleet-live" else 1
    (first, state1), (again, _), (other, state2) = (
        _items(name, 1, n), _items(name, 1, n), _items(name, 2, n))
    assert first == again
    assert sum(first) == sum(other)
    if name == "fleet-live":  # the seed reaches the fleet's sensors
        latest = [{loc: r.values for loc, r in s["served"].latest("bpm").items()}
                  for s in (state1, state2)]
        assert latest[0] != latest[1]


@pytest.mark.parametrize("name", NAMES)
def test_tail_percentile_keeps_ten_samples_beyond(name):
    n = WORKLOADS[name]().n_ops(BENCHMARK["run_seconds"])
    q, beyond = tail_percentile(n)
    assert beyond >= TAIL_MIN_BEYOND
    why = next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == name)
    assert f"p{q:g} of {n} " in why


def test_tail_percentile_is_the_highest_that_fits():
    assert tail_percentile(1800) == (99.0, 18)
    assert tail_percentile(180) == (90.0, 18)
    assert tail_percentile(100) == (90.0, 10)
    with pytest.raises(ValueError):
        tail_percentile(15)


def test_block_rate_holds_through_a_few_stalled_operations():
    latencies, items = [0.1] * 195, [10] * 195
    assert block_rate(items, latencies, 10) == pytest.approx(100.0)
    latencies[3] = latencies[150] = 5.0
    assert block_rate(items, latencies, 10) == pytest.approx(100.0)
    assert block_rate(items, latencies, None) < 70.0


def _run(directory: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(directory / "e2ebench" / "run.py"), *args],
        cwd=directory, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    done = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert list(result["metrics"]) == [m["name"]
                                       for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for metric, reading in result["metrics"].items():
        assert reading["unit"] == units[metric]
        assert isinstance(reading["value"], float)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".spans", "__pycache__"))
    done = _run(tmp_path, "--workload", NAMES[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
