"""``repro.obs`` — self-instrumentation for the reproduction.

The paper quantifies the cost of vendor collection mechanisms; this
package applies the same discipline to our own code.  It is
zero-dependency (standard library only) and splits into:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  with labels, and the Prometheus text exporter;
* :mod:`repro.obs.registry` — the process-global
  :class:`~repro.obs.registry.MetricsRegistry` with reset semantics;
* :mod:`repro.obs.tracing` — span tracing driven by the simulation
  clock, so traces are deterministic;
* :mod:`repro.obs.instruments` — the shared families every collector
  reports through, plus per-mechanism handles.

``python -m repro obs dump`` exercises every mechanism and prints the
exposition; see ``docs/observability.md`` for the metric reference.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    render_prometheus,
)
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.tracing import SpanRecord, Tracer, get_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "get_registry",
    "get_tracer",
    "render_prometheus",
    "reset",
    "dump",
    "set_enabled",
]


def reset() -> None:
    """Zero the global registry and tracer (test isolation helper).
    Instrument handles cached at module import stay valid."""
    get_registry().reset()
    get_tracer().reset()


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable metric updates (tracing is unaffected)."""
    get_registry().enabled = bool(enabled)


def dump() -> str:
    """The Prometheus text exposition of the global registry."""
    return get_registry().render()
