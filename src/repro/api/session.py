"""``repro.api.session`` — the MonEQ session lifecycle.

The paper's "two lines of code" live here: :func:`initialize` /
:func:`finalize` around the region to profile, plus the configuration,
backend and result types a session is built from.
"""

from __future__ import annotations

from repro.core.moneq.api import (
    backends_for_node,
    finalize,
    initialize,
    profile_run,
)
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqResult, MoneqSession
from repro.mech.mechanism import Backend

__all__ = [
    "Backend",
    "MoneqConfig",
    "MoneqResult",
    "MoneqSession",
    "backends_for_node",
    "finalize",
    "initialize",
    "profile_run",
]
