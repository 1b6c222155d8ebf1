"""One measured run of one workload, in a fresh process.

``python3 e2ebench/worker.py --workload W --seed N --seconds S
--trace 0|1`` sets the workload up, runs its fixed operation list
closed-loop, checks every operation's output and prints one JSON
object.  ``run.py`` starts it; it is not the benchmark's entry point.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    block_rate,
    calibrate_ms,
    counter_snapshot,
    percentile,
    tail_percentile,
    use_source_tree,
)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    calib_before = calibrate_ms()
    use_source_tree()
    import repro.api  # noqa: F401  - the whole program, imported once
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[name]()
    imported = time.perf_counter() - PROCESS_START
    ops = workload.plan(seed, workload.n_ops(seconds))
    workload.prepare(seed, ops)

    started = time.perf_counter()
    state = workload.build(seed)
    built_s = time.perf_counter() - started
    started = time.perf_counter()
    gc.collect()
    workload.warm_up(state, seed)
    # Every timed phase starts from the same collector state: no
    # garbage left over from building or warming up.
    gc.collect()
    if workload.collect_after_op:
        # The forced collection that ends each operation then reclaims
        # the operation's own garbage, instead of also re-walking every
        # object set-up left alive (imports, references): that walk is
        # pointer chasing over a 1.2 GB heap, paid once per operation
        # only because the benchmark forces the collection, and it ran
        # at the host's memory speed of the moment.
        gc.freeze()
    warm_up_s = time.perf_counter() - started
    # Process start to the first timed operation, less the host
    # calibration loop, which is the benchmark's and not the program's.
    setup_s = time.perf_counter() - PROCESS_START - calib_before / 1e3

    tracer = None
    counters = None
    if trace:
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        counters = {}

    latencies, items, failures = [], [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            before = counter_snapshot()
            tracer.op = index
        started = time.perf_counter()
        try:
            outcome = workload.run(state, op)
            if workload.collect_after_op:
                gc.collect()
        except Exception as exc:  # a failed operation, counted
            latencies.append(time.perf_counter() - started)
            items.append(0)
            failures.append(f"op {index} {op['kind']}: {exc!r}")
            continue
        latencies.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.op = -1
            _accumulate(counters, before, counter_snapshot())
        try:
            items.append(workload.check(state, op, outcome))
        except CheckFailed as exc:
            items.append(0)
            failures.append(f"op {index} {op['kind']}: {exc}")
    if tracer is not None:
        tracer.uninstall()
        # The service's own request counter must agree with the client.
        refused = sum(v for (_, status), v in counters.get(
            "repro_service_requests_total", {}).items() if status != "200")
        if refused and not failures:
            failures.append(f"service counted {refused:g} non-200 "
                            f"responses the client did not see")

    timed_s = sum(latencies)
    q, beyond = tail_percentile(len(latencies))
    result = {
        "workload": name,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "timed_s": timed_s,
        "tail_percentile": q,
        "tail_beyond": beyond,
        "calib_ms": [calib_before, calibrate_ms()],
        # Steadiness: the median latency of each quarter of the run.
        "quarter_p50_ms": [
            percentile(latencies[i * len(ops) // 4:(i + 1) * len(ops) // 4],
                       50.0) * 1e3 for i in range(4)],
        "end_to_end": {
            "setup_s": setup_s,
            "op_p50_ms": percentile(latencies, 50.0) * 1e3,
            "op_tail_ms": percentile(latencies, q) * 1e3,
            "items_per_s": block_rate(items, latencies,
                                      workload.rate_block_ops),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "setup_parts_s": {"imports": imported, "build": built_s,
                          "warm_up": warm_up_s},
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, counters, len(ops),
                                        workload.layer_notes(state))
        tracer.dump(ROOT / "e2ebench" / ".spans" / f"{name}-{seed}.jsonl")
    return result


def _accumulate(totals: dict, before: dict, after: dict) -> None:
    for family in after:
        for key in after[family]:
            delta = after[family][key] - before[family].get(key, 0.0)
            if delta:
                bucket = totals.setdefault(family, {})
                bucket[key] = bucket.get(key, 0.0) + delta


def per_layer(tracer, counters: dict, n_ops: int, notes: dict) -> dict:
    """Every per-layer metric from the traced run's spans, the
    wrappers' counts and the obs counter deltas of the timed region."""

    def total(name: str) -> float:
        return sum(counters.get(name, {}).values())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms_per_op(seconds: float) -> float:
        return seconds * 1e3 / n_ops

    requests = tracer.calls("service.request")
    store_s = tracer.total_s("store.query")
    agg_hits = total("repro_store_cache_hits_total")
    agg_misses = total("repro_store_cache_misses_total")
    cache_hits = total("repro_cache_hits_total")
    cache_misses = total("repro_cache_misses_total")
    records = total("repro_store_records_total")
    dropped = total("repro_store_dropped_records_total")
    written = total("repro_moneq_records_total")
    offered = tracer.counts.get("store.offered", 0.0)
    return {
        "service.self_ms": ratio(tracer.self_s(
            "service.request", ("store.query", "federation.aggregate")) * 1e3,
            requests),
        "service.bytes_per_row": notes.get("service.bytes_per_row", 0.0),
        "store.read_ms": ratio(store_s * 1e3, requests),
        "store.fanout": ratio(tracer.counts.get("store.fanout_sum", 0.0),
                              tracer.counts.get("store.plans", 0.0)),
        "store.agg_hit_ratio": ratio(agg_hits, agg_hits + agg_misses),
        "py.gc_pause_ms": tracer.gc_pause_s * 1e3 * 1000.0 / n_ops,
        "bgq.sweep_ms": ms_per_op(tracer.self_s("fleet.advance",
                                                ("store.ingest",))),
        "store.ingest_us_per_record": ratio(
            tracer.total_s("store.ingest") * 1e6, offered),
        "store.dropped_frac": ratio(dropped, records + dropped),
        "federation.rollup_ms": ms_per_op(
            tracer.total_s("federation.aggregate")),
        "store.rebuild_rows": tracer.counts.get("store.rebuild_rows", 0.0)
        / n_ops,
        "consumer.lag_records": notes.get("consumer.lag_records", 0.0) / n_ops,
        "packs.build_ms": ms_per_op(tracer.total_s("packs.build")),
        "moneq.buffer_fill": ratio(written,
                                   tracer.counts.get("moneq.slots", 0.0)),
        "moneq.finalize_ms": ms_per_op(tracer.total_s("moneq.finalize")),
        "mech.read_block_ms": ms_per_op(tracer.total_s("mech.read_block")),
        "mech.collect_ms": ms_per_op(tracer.total_s("mech.collect")),
        "mech.cache_ms": ms_per_op(tracer.total_s("mech.cache")),
        "mech.cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "chaos.inject_ms": ms_per_op(tracer.total_s("chaos.inject")),
        "chaos.dark_frac": ratio(total("repro_chaos_dark_reads_total"),
                                 written),
        "chaos.retries_per_op": total("repro_retry_attempts_total") / n_ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
