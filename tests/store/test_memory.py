"""What the store holds per stored record, measured with tracemalloc.

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
