"""Per-sweep write batching.

The seed envdb inserted every record individually, paying a sorted
insert per record.  Pollers now stage a whole sweep in a
:class:`WriteBatcher` and flush once: one capacity-accounting pass, one
batch metric increment, and the shard sees the sweep as a unit — which
is also what makes the per-shard ingest budget (records per sweep)
well-defined.  Ingest never touches the aggregate cache; the next
aggregate read folds the flushed sweep into its windows.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs.instruments import STORE_BATCH_RECORDS
from repro.store.engine import FlushReport, ShardedStore
from repro.store.reading import Reading


class WriteBatcher:
    """Stages (table, reading) pairs and flushes them as one batch."""

    def __init__(self, store: ShardedStore):
        self.store = store
        self._staged: list[tuple[str, Reading]] = []

    def __len__(self) -> int:
        return len(self._staged)

    def add(self, table: str, reading: Reading) -> None:
        """Stage one record for the next flush."""
        self._staged.append((table, reading))

    def flush(self, interval_s: float) -> FlushReport:
        """Ingest everything staged as one capacity-accounted batch.

        The batcher is reusable after the flush; flushing an empty
        batcher is an error (a poller that swept nothing is a bug).
        """
        if not self._staged:
            raise ConfigError("flush of an empty write batch")
        staged, self._staged = self._staged, []
        STORE_BATCH_RECORDS.observe(len(staged))
        return self.store.ingest_batch(staged, interval_s)
