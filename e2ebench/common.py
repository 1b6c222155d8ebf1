"""Shared helpers: source-tree import path, percentiles, the host
calibration loop and snapshots of the program's own obs counters."""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

#: The checkout root (the directory holding ``src/`` and ``packs/``).
ROOT = Path(__file__).resolve().parents[1]

#: Highest-first percentile ladder the tail metric is chosen from.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

#: Samples a tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/``; a directory
    without it fails here, before any result is printed."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def rank_index(n: int, q: float) -> int:
    """Nearest-rank index of percentile ``q`` in ``n`` sorted samples."""
    return max(0, math.ceil(q / 100.0 * n) - 1)


def tail_percentile(n: int) -> tuple[float, int]:
    """``(q, beyond)``: the highest ladder percentile of ``n`` samples
    that leaves at least :data:`TAIL_MIN_BEYOND` samples above it."""
    for q in TAIL_LADDER:
        beyond = n - 1 - rank_index(n, q)
        if beyond >= TAIL_MIN_BEYOND:
            return q, beyond
    raise ValueError(f"{n} samples leave no percentile with "
                     f"{TAIL_MIN_BEYOND} beyond it")


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[rank_index(len(ordered), q)]


def block_rate(items: list[int], latencies: list[float],
               size: int | None) -> float:
    """Items per timed second: the median over consecutive blocks of
    about ``size`` operations of each block's items over its timed
    seconds, or the whole run's when ``size`` is None.  A block keeps
    the slow operations that recur in it; the median keeps a few
    stalled blocks from moving the figure."""
    n_blocks = 1 if size is None else max(1, len(latencies) // size)
    rates = []
    for block in range(n_blocks):
        lo = block * len(latencies) // n_blocks
        hi = (block + 1) * len(latencies) // n_blocks
        rates.append(sum(items[lo:hi]) / sum(latencies[lo:hi]))
    rates.sort()
    middle = len(rates) // 2
    return rates[middle] if len(rates) % 2 else \
        (rates[middle - 1] + rates[middle]) / 2


def calibrate_ms() -> float:
    """Wall time of a fixed pure-Python loop: a host-speed probe that
    flags runs on a slow host.  No metric is normalized by it."""
    started = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return (time.perf_counter() - started) * 1e3


#: The obs families the per-layer counters are read from.
COUNTER_FAMILIES = (
    "repro_store_cache_hits_total",
    "repro_store_cache_misses_total",
    "repro_store_records_total",
    "repro_store_dropped_records_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_chaos_dark_reads_total",
    "repro_retry_attempts_total",
    "repro_moneq_records_total",
    "repro_service_requests_total",
)


def counter_snapshot() -> dict[str, dict[tuple[str, ...], float]]:
    from repro.obs import get_registry

    registry = get_registry()
    return {name: dict(registry.get(name).samples())
            for name in COUNTER_FAMILIES}

