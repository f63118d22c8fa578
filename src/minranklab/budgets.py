"""Explicit work budgets: exceeding one is a refusal, never a silent downgrade."""

from __future__ import annotations

import math


def _readable(x: int) -> str:
    """x in decimal, or as a power of ten past about 4,000 digits, where
    Python refuses to convert an int to a string."""
    if x.bit_length() <= 13_000:
        return str(x)
    exponent = int((x.bit_length() - 1) * math.log10(2))  # floor(log10(x)), give or take one
    while 10**exponent > x:
        exponent -= 1
    while 10 ** (exponent + 1) <= x:
        exponent += 1
    return f"about 10^{exponent}"


class BudgetExceededError(RuntimeError):
    """Raised when an exact computation would exceed its work budget."""

    def __init__(self, message: str, estimate: int, budget: int) -> None:
        super().__init__(
            f"{message} (estimated work {_readable(estimate)}, budget {_readable(budget)})"
        )
        self.estimate = estimate
        self.budget = budget


DEFAULT_SOLVER_BUDGET = 10_000_000
DEFAULT_ENUMERATION_BUDGET = 1 << 17
# K(14,7,m) has 3,432 vertices; K(16,8,m) has 12,870, and its 1.66e8 int
# entries take over 1 GB as tuples
DEFAULT_VERTEX_BUDGET = 5_000
# `kneser build --check-rank` meets each of N rows with up to rank basis rows
# of N entries: N^2 * rank units. K(12,6,2) needs 4.2e8 and took 0.9 s of CPU,
# K(14,7,2) needs 2.4e10 and took 38 s (2.1 and 1.6 ns a unit), so the default
# admits about 2 s. Small or low-rank matrices cost more per unit (5-30 ns at
# K(10,5,m), m >= 2), where packing each row outweighs its row steps.
DEFAULT_RANK_BUDGET = 1_000_000_000


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise RuntimeError(f"internal error: Gaussian binomial [{n},{k}]_{q} is not an integer")
    return num // den


def check_budget(estimate: int, budget: int, what: str) -> None:
    if estimate > budget:
        raise BudgetExceededError(f"{what} refused", estimate, budget)
