"""The freshness-aware channel cache.

The paper's central observation is that vendor mechanisms are
rate-limited *at the device*: NVML boards and the Phi SMC refresh their
registers on fixed periods, EMON serves the oldest of two sample
generations — polling faster than the freshness window just re-reads
the identical register value over an expensive channel.  The
:class:`ChannelCache` exploits exactly that, and so it belongs to the
device: each shared device object holds one cache (created on first
use by :func:`device_cache`), keyed by ``(mechanism, field)`` with a
per-field *freshness key* derived from the mechanism's declared refresh
behavior.  A refresh-window hit skips the device collection entirely
and is **byte-identical** to the uncached timeline by construction —
the device would have returned the same held value.

Two keying modes, declared per field by the source's
:class:`CachePlan`:

* **held** (``FieldPlan(period_s, phase_s)``) — the device holds the
  register constant within each hardware update window; the cache key
  is the window index ``floor((t - phase) / period)``.  Any two reads
  inside one window observe identical bytes, so one crossing serves
  them all.
* **exact** (``FieldPlan()``) — the value is a continuous function of
  the poll time (die temperatures, EMON's accumulated node-card total);
  the key is the timestamp itself.  Exact keys still deduplicate the
  common fleet pattern of many consumers polling one device on the
  same tick grid.

Interplay with :mod:`repro.chaos` is handled one layer up, in
``Mechanism.read_block``: fault injection always runs over the full
grid (a cached value never masks a fault that a real crossing would
have drawn), and dark periods invalidate the mechanism's entries in
the device's cache.

Caches are on by default and live and die with their device;
:func:`channel_cache_disabled` bypasses every cache for a dynamic
extent (the ablation benches and the byte-identity property suite use
it).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.obs.instruments import (
    CACHE_CROSSINGS_SAVED,
    CACHE_HITS,
    CACHE_INVALIDATIONS,
    CACHE_MISSES,
)

#: A field entry holding more keys than this drops its oldest half — a
#: safety valve for a device whose read history grows unboundedly.
MAX_KEYS_PER_ENTRY = 1 << 20

_CACHE_ATTR = "_channel_cache"

#: How many :func:`channel_cache_disabled` extents are open.
_bypass_depth = 0


@dataclass(frozen=True)
class FieldPlan:
    """How one field's cache key derives from the poll time.

    ``period_s`` set — the device holds the value constant within each
    ``period_s`` hardware window offset by ``phase_s`` (sample-and-hold
    registers); ``period_s`` None — the value varies continuously and
    only an exact-timestamp match may be served from cache.
    """

    period_s: float | None = None
    phase_s: float = 0.0

    def __post_init__(self):
        if self.period_s is not None and self.period_s <= 0.0:
            raise ConfigError(
                f"cache field period must be positive, got {self.period_s}")

    def keys_for(self, times: np.ndarray) -> np.ndarray:
        """The cache key of each poll time (float64 column)."""
        if self.period_s is None:
            return times
        return np.floor((times - self.phase_s) / self.period_s)


class CachePlan:
    """One source's cacheability declaration: the shared device object
    plus a :class:`FieldPlan` per output field.  ``cache`` is that
    device's own :class:`ChannelCache`, so every source over one device
    (1024 MonEQ agents on one GPU, the three Phi paths on one SMC)
    shares entries, and distinct devices — even identically configured
    ones — never do.

    Stateful sources (the RAPL counter differencers) declare no plan at
    all — consecutive-read deltas depend on reader history, never on
    the poll time alone, so no key function exists for them.
    """

    def __init__(self, device, fields: dict[str, FieldPlan]):
        if not fields:
            raise ConfigError("cache plan needs at least one field")
        self.device = device
        self.fields = dict(fields)
        self.cache = device_cache(device)

    def keys_for(self, name: str, times: np.ndarray) -> np.ndarray:
        return self.fields[name].keys_for(times)


@dataclass
class MechanismCacheStats:
    """Per-mechanism running totals (rows, not exchanges)."""

    hits: int = 0
    misses: int = 0
    crossings_saved: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ChannelCacheStats:
    """A snapshot of the cache's accounting."""

    hits: int = 0
    misses: int = 0
    crossings_saved: int = 0
    invalidations: int = 0
    entries: int = 0
    by_mechanism: dict[str, MechanismCacheStats] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ChannelCache:
    """One device's ``(mechanism, field)`` value cache.

    Entries are parallel sorted float64 arrays (keys, values); lookups
    are one ``searchsorted`` per field, inserts merge-and-dedupe.  A
    device holds at most (its mechanisms × their fields) entries.
    Values are stored *pre-quantization* (the raw collect column); the
    channel's wire quantization is deterministic per element, so
    applying it downstream of the cache preserves byte-identity.  The
    lock is there because threads can share a device.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str],
                            tuple[np.ndarray, np.ndarray]] = {}
        self._by_mechanism: dict[str, MechanismCacheStats] = {}
        self._invalidations = 0

    # -- the read path -------------------------------------------------------

    def lookup(self, mechanism: str, field_name: str,
               keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, hit_mask)`` for one field over one key column.

        ``values`` is only meaningful where ``hit_mask`` is True; the
        caller overwrites miss rows from a fresh collection.
        """
        values = np.empty(keys.shape[0], dtype=np.float64)
        with self._lock:
            entry = self._entries.get((mechanism, field_name))
        if entry is None:
            return values, np.zeros(keys.shape[0], dtype=bool)
        stored_keys, stored_values = entry
        idx = np.searchsorted(stored_keys, keys)
        clamped = np.minimum(idx, stored_keys.shape[0] - 1)
        hit = stored_keys[clamped] == keys
        values[hit] = stored_values[clamped[hit]]
        return values, hit

    def store(self, mechanism: str, field_name: str,
              keys: np.ndarray, values: np.ndarray) -> None:
        """Merge freshly collected ``(key, value)`` rows into one
        field's entry, keeping the key column sorted and unique."""
        if keys.shape[0] == 0:
            return
        entry_key = (mechanism, field_name)
        with self._lock:
            entry = self._entries.get(entry_key)
            if entry is None:
                merged_keys = np.asarray(keys, dtype=np.float64)
                merged_values = np.asarray(values, dtype=np.float64)
            else:
                merged_keys = np.concatenate([entry[0], keys])
                merged_values = np.concatenate([entry[1], values])
            order = np.argsort(merged_keys, kind="stable")
            # Equal keys carry equal values by construction (the device
            # would have returned the same bytes); keep the first.
            merged_keys, first = np.unique(merged_keys[order],
                                           return_index=True)
            merged_values = merged_values[order][first]
            if merged_keys.shape[0] > MAX_KEYS_PER_ENTRY:
                keep = merged_keys.shape[0] // 2  # newest (largest) keys
                merged_keys = merged_keys[-keep:].copy()
                merged_values = merged_values[-keep:].copy()
            self._entries[entry_key] = (merged_keys, merged_values)

    def note_block(self, mechanism: str, rows: int, row_hits: int,
                   queries_per_read: int) -> None:
        """Account one cached ``read_block``: ``row_hits`` rows whose
        every field hit skipped the device collection — and with it
        ``queries_per_read`` channel exchanges each."""
        misses = rows - row_hits
        saved = row_hits * queries_per_read
        with self._lock:
            stats = self._by_mechanism.get(mechanism)
            if stats is None:
                stats = self._by_mechanism[mechanism] = MechanismCacheStats()
            stats.hits += row_hits
            stats.misses += misses
            stats.crossings_saved += saved
        if row_hits:
            CACHE_HITS.labels(mechanism).inc(row_hits)
            CACHE_CROSSINGS_SAVED.labels(mechanism).inc(saved)
        if misses:
            CACHE_MISSES.labels(mechanism).inc(misses)

    # -- invalidation --------------------------------------------------------

    def invalidate(self, mechanism: str) -> int:
        """Drop every field entry of one mechanism on this device —
        chaos dark periods land here: a channel declared dark forfeits
        its cached freshness windows."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == mechanism]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
        if stale:
            CACHE_INVALIDATIONS.labels(mechanism).inc(len(stale))
        return len(stale)

    # -- accounting ----------------------------------------------------------

    def stats(self) -> ChannelCacheStats:
        with self._lock:
            by_mechanism = {
                name: MechanismCacheStats(s.hits, s.misses, s.crossings_saved)
                for name, s in self._by_mechanism.items()
            }
            return ChannelCacheStats(
                hits=sum(s.hits for s in by_mechanism.values()),
                misses=sum(s.misses for s in by_mechanism.values()),
                crossings_saved=sum(
                    s.crossings_saved for s in by_mechanism.values()),
                invalidations=self._invalidations,
                entries=len(self._entries),
                by_mechanism=by_mechanism,
            )


def device_cache(device) -> ChannelCache:
    """The channel cache of one shared device object, created on first
    use and stored on the device, so it lives exactly as long as the
    device does."""
    cache = getattr(device, _CACHE_ATTR, None)
    if cache is None:
        # setdefault: two threads racing here still end up sharing one.
        cache = vars(device).setdefault(_CACHE_ATTR, ChannelCache())
    return cache


def cache_bypassed() -> bool:
    """Whether a :func:`channel_cache_disabled` extent is open."""
    return _bypass_depth > 0


@contextmanager
def channel_cache_disabled():
    """``with channel_cache_disabled():`` — bypass every device's cache
    for the dynamic extent (ablation benches, byte-identity oracles).
    Nests safely; entries are kept, only lookups are suspended."""
    global _bypass_depth
    _bypass_depth += 1
    try:
        yield
    finally:
        _bypass_depth -= 1
