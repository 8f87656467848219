"""Resource budgets for basis computations."""

from __future__ import annotations

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
