"""Resource budgets for basis computations.

A run has one budget: `budget(limits)` sets it for a `with` block, as
`decimal.localcontext` sets a precision, and every Groebner walk spends
the budget active when it starts, `DEFAULT_LIMITS` outside any scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Hard budgets; exceeding either raises ResourceLimit, never truncates."""

    max_pairs: int = 100_000
    max_degree: int = 40

    def __post_init__(self):
        if self.max_pairs < 0 or self.max_degree < 0:
            raise ValueError("resource budgets must be nonnegative")


DEFAULT_LIMITS = Limits()
ACTIVE = ContextVar("neron_budget", default=DEFAULT_LIMITS)


@contextmanager
def budget(limits: Limits):
    """Make `limits` the active budget inside the block, and restore the
    previous one on leaving it, however the block ends."""
    token = ACTIVE.set(limits)
    try:
        yield
    finally:
        ACTIVE.reset(token)
