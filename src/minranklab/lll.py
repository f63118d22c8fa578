"""Numeric feasibility checking for the local-lemma lower-bound machinery.

Everything exact stays exact: the density statistics gamma and gamma0 are
Fractions, the constants c1..c4 are Fractions found by a deterministic
geometric search, and the constraint predicates on them are decided with
certified rational bounds on e^3. The per-n inequality chain is evaluated
in log domain with mpmath at 150-bit precision, since the assigned weights
underflow doubles at realistic n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .budgets import check_budget
from .graphs import Graph
from .matrices import is_prime

# find_threshold scans n = 2^1 .. 2^max_exponent, by default up to 2^40
DEFAULT_MAX_EXPONENT = 40

# gamma_stats sweeps the 2^f edge subsets of the pattern, at most 2^22 of them
SUBSET_BUDGET = 1 << 22

# Certified rational bounds on e^3 from the exponential series: the tail
# past index N is at most 3^(N+1)/(N+1)! * 1/(1 - 3/(N+2)).
_E3_SERIES_TERMS = 40


def _e3_bounds() -> tuple[Fraction, Fraction]:
    partial = Fraction(0)
    for i in range(_E3_SERIES_TERMS + 1):
        partial += Fraction(3**i, math.factorial(i))
    n1 = _E3_SERIES_TERMS + 1
    tail = Fraction(3**n1, math.factorial(n1)) / (1 - Fraction(3, n1 + 1))
    return partial, partial + tail


E3_LOWER, E3_UPPER = _e3_bounds()


@dataclass(frozen=True)
class HStats:
    """Vertex/edge counts of a pattern graph with its density exponents."""

    h: int
    f: int
    gamma: Fraction
    gamma0: Fraction


def gamma_stats(h_graph: Graph) -> HStats:
    """gamma = (h-2)/(f-1) of the full graph; gamma0 minimized over subgraphs.

    The minimum ranges over all edge subsets with at least 3 edges, each taken
    with its vertex support (isolated vertices only increase the ratio).
    """
    edges = h_graph.edges()
    f = len(edges)
    if f < 3:
        raise ValueError("gamma statistics need at least 3 edges")
    h = h_graph.n
    if h < 3:
        raise ValueError("gamma statistics need at least 3 vertices")
    gamma = Fraction(h - 2, f - 1)
    check_budget(1 << f, SUBSET_BUDGET, f"edge-subset sweep over {f} edges")
    endpoint_masks = [(1 << u) | (1 << v) for u, v in edges]
    support = [0] * (1 << f)
    gamma0 = gamma
    for mask in range(1, 1 << f):
        low = mask & -mask
        support[mask] = support[mask ^ low] | endpoint_masks[low.bit_length() - 1]
        edge_count = mask.bit_count()
        if edge_count >= 3:
            ratio = Fraction(support[mask].bit_count() - 2, edge_count - 1)
            if ratio < gamma0:
                gamma0 = ratio
    return HStats(h, f, gamma, gamma0)


@dataclass(frozen=True)
class LLLInstance:
    """Constants c1..c4 for a pattern graph over a finite field of given size.

    The three constraint items are: c2 > 2*(2*c3 + c4), c3 >= h!*(2*c2)^f*e^3,
    and c4 >= 32*c1.
    """

    stats: HStats
    field_size: int
    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction

    def constraint_items(self) -> tuple[bool, bool, bool]:
        item1 = self.c2 > 2 * (2 * self.c3 + self.c4)
        scale = (
            math.factorial(self.stats.h) * (2 * self.c2) ** self.stats.f
        )
        if self.c3 >= scale * E3_UPPER:
            item2 = True
        elif self.c3 < scale * E3_LOWER:
            item2 = False
        else:
            raise ArithmeticError("e^3 bounds too loose to decide item 2")
        item3 = self.c4 >= 32 * self.c1
        return item1, item2, item3

    def constraints_ok(self) -> bool:
        return all(self.constraint_items())


def _is_prime_power(q: int) -> bool:
    """q >= 2 is a prime power: its root r = q^(1/e) for the largest e with an
    exact root is no perfect power, so q is one iff r is prime."""
    for e in range(q.bit_length(), 0, -1):
        r = _integer_root(q, e)
        if r**e == q:
            return is_prime(r)
    return False


def _integer_root(q: int, e: int) -> int:
    """floor(q^(1/e)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // e)
    while True:
        s = ((e - 1) * r + q // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def find_constants(stats: HStats, field_size: int) -> LLLInstance:
    """Deterministic constants satisfying the three constraint items.

    c2 walks down {2^-j}; c3 is pinned to the item-2 threshold (rounded up
    rationally through the certified e^3 upper bound); once c2 > 4*c3 there
    is slack for c4 = c2/4 - c3 and c1 = c4/32. Terminates because c3
    shrinks like c2^f with f >= 3. A field size that is not a prime power
    is refused: no finite field has that many elements.
    """
    if field_size < 2:
        raise ValueError("field size must be at least 2")
    if not _is_prime_power(field_size):
        raise ValueError(f"field size {field_size} is not a prime power")
    base = math.factorial(stats.h) * E3_UPPER
    j = 0
    while True:
        c2 = Fraction(1, 2**j)
        c3 = base * (2 * c2) ** stats.f
        if c2 > 4 * c3:
            c4 = c2 / 4 - c3
            c1 = c4 / 32
            inst = LLLInstance(stats, field_size, c1, c2, c3, c4)
            if not inst.constraints_ok():
                raise RuntimeError(f"internal error: constants {inst} violate the constraints")
            return inst
        j += 1


@dataclass(frozen=True)
class Condition:
    name: str
    ok: bool
    margin: float


@dataclass(frozen=True)
class LLLCheckReport:
    n: int
    holds: bool
    k: float
    q: float
    x: float
    sprime_min: int
    weight_sum: float
    conditions: tuple[Condition, ...]

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.conditions if not c.ok]


def _mpf(value):
    import mpmath

    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
    return mpmath.mpf(value)


def check_lll_inequalities(inst: LLLInstance, n: int) -> LLLCheckReport:
    """Evaluate the sufficient inequality chain at a concrete n.

    The count of sparse-pattern events at sparsity s' is replaced by its
    bound exp(24*c1*s'*n^-gamma), s' ranges from the sparsity floor at
    support 1 up to n^2, and the product over that range is controlled by
    the geometric weight sum (closed form, no iteration over s').
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    import mpmath  # loaded here, so importing the package does not load it

    with mpmath.workprec(150):
        stats = inst.stats
        h, f = stats.h, stats.f
        gamma = _mpf(stats.gamma)
        c1, c2, c3, c4 = map(_mpf, (inst.c1, inst.c2, inst.c3, inst.c4))
        ln_nf = mpmath.log(mpmath.mpf(n) * inst.field_size)
        n_gamma = mpmath.power(n, gamma)
        n_minus_gamma = 1 / n_gamma
        n_hm2 = mpmath.mpf(n) ** (h - 2)

        k = c1 * mpmath.power(n, 1 - gamma) / ln_nf
        q = c2 * n_minus_gamma
        x = c3 * mpmath.power(n, -gamma * f)

        sprime_floor = n_gamma * ln_nf / (4 * c1)  # sparsity floor per support vertex
        sprime_min = int(mpmath.ceil(sprime_floor))
        s_hi = n * n

        conditions: list[Condition] = []

        def add(name: str, ok, margin) -> None:
            conditions.append(Condition(name, bool(ok), float(margin)))

        add("events_exist", sprime_min <= s_hi, float(s_hi - sprime_min))
        add("walk_bound", sprime_floor >= 2, float(sprime_floor - 2))
        add("q_probability", q <= 1, float(1 - q))
        add("x_below_half", x <= 0.5, float(0.5 - x))

        x_smin = mpmath.exp(-c4 * sprime_min * n_minus_gamma)
        add("x_sparse_below_half", x_smin <= 0.5, float(0.5 - x_smin))

        # geometric weight sum over s' in [sprime_min, n^2]
        beta = (c4 - 24 * c1) * n_minus_gamma
        if sprime_min > s_hi or beta <= 0:
            weight_sum = mpmath.mpf(0) if sprime_min > s_hi else mpmath.inf
        else:
            r = mpmath.exp(-beta)
            weight_sum = (
                mpmath.exp(-beta * sprime_min) - mpmath.exp(-beta * (s_hi + 1))
            ) / (1 - r)
        add("weight_sum_at_most_one", weight_sum <= 1, float(1 - weight_sum))

        log1p_x = mpmath.log1p(-x) if x < 1 else mpmath.mpf("-inf")
        product_floor = -2 * weight_sum  # log of prod (1-x_{s'})^{N_{s'}} lower bound
        lhs9 = mpmath.log(math.factorial(h)) + f * mpmath.log(2 * q)
        rhs9 = mpmath.log(x) + mpmath.binomial(h, 2) * n_hm2 * log1p_x + product_floor
        margin9 = rhs9 - lhs9
        add("pattern_event_inequality", margin9 >= 0, float(margin9))

        def margin10(sp) -> mpmath.mpf:
            sp = mpmath.mpf(sp)
            rhs = -c4 * sp * n_minus_gamma + sp * n_hm2 * log1p_x + product_floor
            lhs = -q * sp / 2
            return rhs - lhs

        if sprime_min <= s_hi:
            m10 = min(margin10(sprime_min), margin10(s_hi))  # linear in s'
        else:
            m10 = mpmath.mpf(0)
        add("sparse_event_inequality", m10 >= 0, float(m10))

        add("k_positive", k > 0, float(k))
        add("k_below_n", k < n, float(n - k))

        holds = all(c.ok for c in conditions)
        return LLLCheckReport(
            n=n,
            holds=holds,
            k=float(k),
            q=float(q),
            x=float(x),
            sprime_min=sprime_min,
            weight_sum=float(weight_sum),
            conditions=tuple(conditions),
        )


def find_threshold(
    inst: LLLInstance, max_exponent: int = DEFAULT_MAX_EXPONENT
) -> tuple[Optional[LLLCheckReport], list[LLLCheckReport]]:
    """A threshold n0 where the chain holds and n0 - 1 fails.

    The grid scans n = 2, 4, .., 2^max_exponent up to the first n that
    holds; every power of two below it fails. Bisection between that n and
    the power below finds n0, and n0 holds and n0 - 1 fails (n0 - 1 = 1 is
    below the checker's domain). The chain need not be monotone in n, so a
    smaller passing n off the bisection path is not ruled out.

    Returns the report at n0 and the grid reports, or (None, reports) if no
    grid point passes.
    """
    if max_exponent < 1:
        raise ValueError(f"max_exponent {max_exponent} leaves no grid point to check")
    grid: list[LLLCheckReport] = []
    first_true: Optional[int] = None
    for j in range(1, max_exponent + 1):
        report = check_lll_inequalities(inst, 2**j)
        grid.append(report)
        if report.holds:
            first_true = j
            break
    if first_true is None:
        return None, grid
    lo = 2 ** (first_true - 1)  # fails (or is below the domain) by the scan
    hi = 2**first_true
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if check_lll_inequalities(inst, mid).holds:
            hi = mid
        else:
            lo = mid
    n0 = hi
    at_n0 = check_lll_inequalities(inst, n0)
    if not at_n0.holds:
        raise RuntimeError(f"internal error: the bisected threshold n0={n0} fails")
    if n0 > 2 and check_lll_inequalities(inst, n0 - 1).holds:
        raise RuntimeError(f"internal error: the bisected threshold n0={n0} is not minimal")
    return at_n0, grid
