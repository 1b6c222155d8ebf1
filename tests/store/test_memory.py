"""What the store holds per stored record and per cached aggregate
window, measured with tracemalloc.

A shard table keeps each row as columns: 8 bytes of timestamp, 8 of
ingest sequence, three 4-byte ids (location, mechanism, schema) and
8 bytes per field — 36 to 60 bytes for the envdb's four tables, and
amortized doubling at most doubles that.  A store that kept a Python
object per row (a ``Reading``, its values dict, boxed floats and a
sort-key tuple) held several hundred bytes per record.
"""

import gc
import tracemalloc

import pytest

from repro.bgq.machine import BgqMachine
from repro.sim.rng import RngRegistry
from repro.store import aggregate

#: Bytes the store may retain per stored record.
MAX_BYTES_PER_RECORD = 128

SWEEPS = 20
POLL_S = 60.0


@pytest.mark.tier1
def test_store_retains_at_most_128_bytes_per_record():
    machine = BgqMachine(racks=6, rng=RngRegistry(1), poll_interval_s=POLL_S)
    envdb = machine.envdb
    machine.advance_to(1.5 * POLL_S)  # the first sweep allocates first
    gc.collect()
    records0 = envdb.store.records_ingested
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine.advance_to((SWEEPS + 1.5) * POLL_S)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = envdb.store.records_ingested - records0
    assert records == SWEEPS * envdb.sensors_per_poll
    assert envdb.dropped_records == 0
    per_record = retained / records
    assert per_record <= MAX_BYTES_PER_RECORD, (
        f"store retains {per_record:.0f} B per record over {records} "
        f"records")


#: Bytes the aggregate cache may retain per cached (location, window)
#: cell: six 8-byte columns, grown by a quarter at a time.  Python
#: tuples in per-location dicts took ~157 bytes a cell.
MAX_BYTES_PER_CELL = 64


@pytest.mark.tier1
def test_aggregate_cache_retains_at_most_64_bytes_per_cell():
    machine = BgqMachine(racks=6, rng=RngRegistry(1), poll_interval_s=POLL_S)
    store = machine.envdb.store

    def rollup():
        now = machine.clock.now
        store.partials("bpm", "input_power_w", now - POLL_S, now, POLL_S)

    machine.advance_to(0.5 * POLL_S)
    gc.collect()
    tracemalloc.start()
    try:
        for sweep in range(SWEEPS):
            machine.advance_to((sweep + 1.5) * POLL_S)
            rollup()  # folds the sweep into the keying
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(trace.size for trace in snapshot.filter_traces(
        [tracemalloc.Filter(True, aggregate.__file__)]).traces)
    cells = len(store.partials("bpm", "input_power_w", 0.0,
                               machine.clock.now, POLL_S))
    assert cells == SWEEPS * len(store.latest("bpm"))
    per_cell = retained / cells
    assert per_cell <= MAX_BYTES_PER_CELL, (
        f"aggregate cache retains {per_cell:.0f} B per cell over {cells} "
        f"cells")
