"""The repository benchmark's entry point.

    python3 e2ebench/run.py --workload fleet-live --seed 1 --seconds 30 --trace 0

Runs one workload (``fleet-live`` or ``collect-chaos``;
see ``workloads.py``) in a fresh worker process and prints, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` runs the workload twice,
each in its own fresh process — untraced, then with every layer's
entry points wrapped — and reports the per-layer metrics, including
the tracing overhead between the two runs.  Progress and diagnostics go
to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Wall-clock ceiling per worker process (s).
WORKER_TIMEOUT_S = 88


def worker(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one measured worker process and return its result."""
    env = dict(os.environ)
    # One load process, one thread: no BLAS pools beside the client;
    # string hashing fixed so dict and set orders repeat; and no
    # transparent huge pages for NumPy buffers, whose faults stall on
    # compaction by however fragmented the host's memory happens to be.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               NUMPY_MADVISE_HUGEPAGE="0")
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, check=False, text=True)
    if done.returncode != 0:
        raise SystemExit(f"e2ebench: {workload} worker exited "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for failure in result["failures"]:
        print(f"e2ebench: {workload}: {failure}", file=sys.stderr)
    print(f"e2ebench: {workload} trace={int(trace)} "
          f"{json.dumps(result['end_to_end'])} "
          f"setup={json.dumps(result['setup_parts_s'])} "
          f"tail=p{result['tail_percentile']:g} "
          f"({result['tail_beyond']} beyond) calib_ms={result['calib_ms']} "
          f"quarter_p50_ms={result['quarter_p50_ms']}",
          file=sys.stderr)
    return result


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2

    plain = worker(args.workload, args.seed, args.seconds, trace=False)
    runs = [plain]
    if args.trace:
        traced = worker(args.workload, args.seed, args.seconds, trace=True)
        runs.append(traced)
        values = dict(traced["per_layer"])
        values["host.calib_ms"] = sum(plain["calib_ms"]) / 2
        values["trace.overhead_frac"] = \
            traced["timed_s"] / plain["timed_s"] - 1.0
        metrics = declared["per_layer"]
    else:
        values = plain["end_to_end"]
        metrics = declared["end_to_end"]
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
