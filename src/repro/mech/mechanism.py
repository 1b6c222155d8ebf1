"""The MonEQ backend protocol and the generic mechanism that implements it.

A :class:`Backend` fronts one vendor mechanism for one device.  Reads
are *passive* (they sample device state at a given virtual time without
moving the clock); the session owns time: it charges each backend's
declared per-query latency to the agent's process and advances the
shared clock once per tick, because agents on different nodes collect
in parallel.

:class:`Mechanism` is a declared spec composed with a live source, and
this is where the eight hand-coded backend bodies collapsed to one:
``read_block`` samples the source columnarly and applies the channel's
wire quantization; ``read_at`` is a one-element grid through the same
path, so scalar/block parity is guaranteed **once, at the layer** —
the contract the block-sampling engine's byte-identical-output
guarantee rests on.  Latency, minimum interval, capabilities and
instrumentation are all read off the declaration.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.chaos.faults import FaultPlan
from repro.chaos.injector import DARK_READING
from repro.errors import AccessDeniedError, ConfigError
from repro.host.permissions import Credentials
from repro.mech.cache import cache_bypassed
from repro.mech.capability_decl import PlatformCapabilities, derive_capabilities
from repro.mech.channel import AccessChannel
from repro.mech.registry import MechanismSpec
from repro.mech.source import SensorSource, empty_block
from repro.obs.instruments import CollectorInstrument, collector


class Backend(abc.ABC):
    """One device's collection mechanism, as MonEQ sees it."""

    #: Platform column name in Table I.
    platform: str
    #: Identifier used in output files (location or device name).
    label: str
    #: ``mechanism`` label this backend's session reads are reported
    #: under in the ``repro_collector_*`` metric families.
    mechanism: str = "moneq"

    @property
    @abc.abstractmethod
    def min_interval_s(self) -> float:
        """The lowest polling interval possible for this hardware."""

    @property
    @abc.abstractmethod
    def query_latency_s(self) -> float:
        """Cost of one collection call on this mechanism."""

    @property
    def instrument(self) -> CollectorInstrument:
        """The shared ``repro_collector_*`` handle session hot paths
        record against.  Mechanism compositions resolve this through
        their access channel; the base keys it by mechanism name."""
        return collector(self.mechanism)

    @abc.abstractmethod
    def fields(self) -> list[str]:
        """Names of the data points one read produces, in column order."""

    @abc.abstractmethod
    def read_at(self, t: float) -> dict[str, float]:
        """Sample all fields at virtual time ``t`` (no clock movement)."""

    def read_block(self, times: np.ndarray,
                   plan: FaultPlan | None = None) -> np.ndarray:
        """Sample all fields at each time in ``times`` (no clock
        movement): row ``i`` of the returned structured array holds the
        columns of :meth:`fields` at ``times[i]``.  ``plan`` is the
        session's :class:`~repro.chaos.faults.FaultPlan`; a backend
        without an access channel has no crossing to fault and ignores
        it.

        This is the only read a MonEQ session makes: every tick, and
        every lookahead grid of ticks, is one call.  The base
        implementation loops :meth:`read_at` (correct for any backend,
        including stateful ones — reads stay in time order).  Vendor
        mechanisms override it with one vectorized path and make
        :meth:`read_at` a one-element grid through it, so a grid read
        is bit-identical to the same times read one block at a time.
        """
        times = np.asarray(times, dtype=np.float64)
        out = empty_block(self.fields(), times.shape[0])
        for i in range(times.shape[0]):
            row = self.read_at(float(times[i]))
            for name, value in row.items():
                out[i][name] = value
        return out

    @abc.abstractmethod
    def capabilities(self) -> PlatformCapabilities:
        """This platform's Table I column."""

    # -- optional session hooks ---------------------------------------------

    def on_session_start(self, t: float, interval_s: float) -> None:
        """Called when profiling begins (e.g. the Phi in-band backend
        opens its polling session, which perturbs card power)."""

    def on_session_stop(self, t: float) -> None:
        """Called at finalize."""


class Mechanism(Backend):
    """One vendor collection path: a :class:`SensorSource` behind an
    :class:`AccessChannel`, with freshness and capabilities declared by
    a :class:`MechanismSpec`.

    Concrete vendor backends are thin compositions: they pick the spec,
    build the source from a device, and keep their historical
    constructor signatures — no per-backend read bodies.
    """

    def __init__(self, spec: MechanismSpec, source: SensorSource, label: str,
                 channel: AccessChannel | None = None):
        if tuple(source.fields()) != spec.fields:
            raise ConfigError(
                f"mechanism {spec.name!r}: source produces fields "
                f"{tuple(source.fields())} but the declaration promises "
                f"{spec.fields}"
            )
        self.spec = spec
        self.source = source
        self.label = label
        self.channel = channel if channel is not None else spec.channel
        self.platform = spec.platform
        self.mechanism = spec.name
        self._instrument = self.channel.instrument(spec.name)
        self._gate_vfs = None
        self._gate_path = ""
        self._cache_plan = source.cache_plan()
        if self._cache_plan is not None and (
                set(self._cache_plan.fields) != set(spec.fields)):
            raise ConfigError(
                f"mechanism {spec.name!r}: cache plan covers fields "
                f"{sorted(self._cache_plan.fields)} but the declaration "
                f"promises {spec.fields}"
            )

    @property
    def min_interval_s(self) -> float:
        return self.spec.freshness.min_interval_s

    @property
    def query_latency_s(self) -> float:
        return self.channel.latency_for(self.spec.queries_per_read)

    @property
    def instrument(self) -> CollectorInstrument:
        return self._instrument

    def fields(self) -> list[str]:
        return list(self.spec.fields)

    def bind_gate(self, vfs, path: str) -> None:
        """Bind the channel's permission gate to a live VFS node (the
        msr backend binds its ``/dev/cpu/<n>/msr`` chardev).  Once
        bound, :meth:`check_access` opens that node with the caller's
        credentials, so the check honors the node's *current* mode —
        the chmod ritual opens the path for everyone, exactly as on a
        real deployment."""
        self._gate_vfs = vfs
        self._gate_path = path

    def check_access(self, creds: Credentials) -> None:
        """Enforce the channel's permission requirement for ``creds``,
        raising :class:`~repro.errors.AccessDeniedError` (and counting a
        ``permission_denied`` collector error) on denial.

        With a gate bound (:meth:`bind_gate`) the check is a real open
        of the gate node under ``creds``; otherwise it falls back to
        the declaration-level check against the channel's
        :meth:`~repro.mech.channel.AccessChannel.gate_mode`.
        """
        try:
            if self._gate_vfs is not None:
                self._gate_vfs.open(self._gate_path, "r", creds).close()
            else:
                self.channel.check_access(creds)
        except AccessDeniedError:
            self._instrument.record_error("permission_denied")
            raise

    def read_block(self, times: np.ndarray,
                   creds: Credentials | None = None,
                   plan: FaultPlan | None = None) -> np.ndarray:
        """Read every field at each of ``times``; with a ``plan``, each
        crossing of the grid suffers that plan's faults."""
        if creds is not None:
            self.check_access(creds)
        times = np.asarray(times, dtype=np.float64)
        out = empty_block(self.spec.fields, times.shape[0])
        if times.shape[0] == 0:
            return out
        cache_plan = self._cache_plan
        cached = cache_plan is not None and not cache_bypassed()
        if cached:
            columns = self._collect_cached(cache_plan, times)
        else:
            columns = self.source.collect(times)
        quantization = self.channel.quantization
        for name in self.spec.fields:
            column = columns[name]
            if quantization is not None:
                column = quantization.apply_block(column)
            out[name] = column
        # The fault-injection seam: with a plan, every crossing of the
        # grid is decided *after* the source collected — a retry
        # re-issues the exchange, never the stateful counter read — and
        # undelivered rows degrade to sensor-dark NaN instead of
        # raising.  Injection always draws over the *full* grid, so a
        # cache hit can never mask a fault a real crossing would have
        # drawn.  With no plan the block above is the entire read path.
        if plan is not None:
            injector = plan.injector(
                self.channel, self.mechanism, self.label).bind(
                self.spec.queries_per_read)
            dark, stale = injector.cross_block_verdicts(times)
            delivered = ~(dark | stale)
            if stale.any():
                self._serve_stale(out, delivered, stale, injector)
            if delivered.any():
                last = int(np.flatnonzero(delivered)[-1])
                for name in self.spec.fields:
                    injector.last_delivered[name] = float(out[name][last])
            if dark.any():
                for name in self.spec.fields:
                    out[name][dark] = DARK_READING
                if cached:
                    # A dark channel forfeits its freshness windows: the
                    # next delivered crossing re-collects from scratch.
                    cache_plan.cache.invalidate(self.mechanism)
        return out

    def _collect_cached(self, plan, times: np.ndarray) -> dict:
        """Collect through the device's channel cache: fields whose
        freshness key hits are served from cache; rows with any miss
        fall through to one subset collection.  Sources that declare a
        plan are elementwise-pure in the poll time, so collecting the
        miss subset yields exactly the rows a full collection would
        have."""
        n = times.shape[0]
        cache = plan.cache
        keys = {name: plan.keys_for(name, times) for name in self.spec.fields}
        columns: dict[str, np.ndarray] = {}
        hit_all = np.ones(n, dtype=bool)
        for name in self.spec.fields:
            values, hit = cache.lookup(self.mechanism, name, keys[name])
            columns[name] = values
            hit_all &= hit
        need = ~hit_all
        if need.any():
            collected = self.source.collect(times[need])
            for name in self.spec.fields:
                fresh = np.asarray(collected[name], dtype=np.float64)
                columns[name][need] = fresh
                cache.store(self.mechanism, name, keys[name][need], fresh)
        cache.note_block(self.mechanism, n, int(np.count_nonzero(hit_all)),
                         self.spec.queries_per_read)
        return columns

    def _serve_stale(self, out: np.ndarray, delivered: np.ndarray,
                     stale: np.ndarray, injector) -> None:
        """Fill wedged-daemon rows with the last *delivered* values: the
        daemon answers promptly but with the bytes it produced before it
        wedged (paper §II) — stale beyond the freshness window, never
        fresh.  Rows wedged before anything was ever delivered degrade
        to sensor-dark."""
        n = delivered.shape[0]
        src = np.where(delivered, np.arange(n), -1)
        np.maximum.accumulate(src, out=src)
        rows = np.flatnonzero(stale)
        src_rows = src[rows]
        carried = injector.last_delivered
        for name in self.spec.fields:
            column = out[name]
            column[rows] = np.where(
                src_rows >= 0,
                column[np.maximum(src_rows, 0)],
                carried.get(name, DARK_READING),
            )

    def read_at(self, t: float, creds: Credentials | None = None,
                plan: FaultPlan | None = None) -> dict[str, float]:
        block = self.read_block(np.array([t], dtype=np.float64),
                                creds=creds, plan=plan)
        return {name: float(block[name][0]) for name in self.spec.fields}

    def capabilities(self) -> PlatformCapabilities:
        return derive_capabilities(self.spec.capability)
