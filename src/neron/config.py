"""Resource budgets for basis computations.

A run has one budget: `budget(limits)` sets it for a `with` block, as
`decimal.localcontext` sets a precision, and every Groebner walk spends
the budget active when it starts, `DEFAULT_LIMITS` outside any scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar


class Limits:
    """Hard budgets; exceeding either raises ResourceLimit, never truncates."""

    __slots__ = ("max_pairs", "max_degree")

    def __init__(self, max_pairs: int = 100_000, max_degree: int = 40):
        if max_pairs < 0 or max_degree < 0:
            raise ValueError("resource budgets must be nonnegative")
        self.max_pairs = max_pairs
        self.max_degree = max_degree

    def __eq__(self, other):
        if other.__class__ is not Limits:
            return NotImplemented
        return self.max_pairs == other.max_pairs and self.max_degree == other.max_degree

    def __hash__(self):
        return hash((self.max_pairs, self.max_degree))


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
