"""MonEQ backend protocol.

A backend fronts one vendor mechanism for one device.  Reads are
*passive* (they sample device state at a given virtual time without
moving the clock); the session owns time: it charges each backend's
declared per-query latency to the agent's process and advances the
shared clock once per tick, because agents on different nodes collect
in parallel.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.core.capability import PlatformCapabilities
from repro.mech.source import empty_block
from repro.obs.instruments import CollectorInstrument, collector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.faults import FaultPlan


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
