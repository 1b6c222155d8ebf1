"""``repro.api.chaos`` — fault injection.

Seeded fault plans and rules, the retry/breaker policies and the dark
reading sentinel.  The named chaos scenarios are scenario packs:
:func:`repro.api.packs.chaos_packs` lists them and
:func:`repro.api.packs.execute_scenario` runs one.
"""

from __future__ import annotations

from repro.chaos import (
    DARK_READING,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)

__all__ = [
    "DARK_READING",
    "CircuitBreaker",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
]
