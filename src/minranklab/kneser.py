"""Generalized Kneser graphs and their explicit low-rank integer representations.

K(d, s, m) has the s-subsets of {0..d-1} as vertices, adjacent when the
intersection has fewer than m elements. The representing matrix M holds the
integer polynomial P(t) = prod_{j=m}^{s-1} (t - j) at the pairwise
intersection sizes, as Python ints.

M = L diag(c_|U|) L^T over the subsets U with |U| <= s-m, with L[A][U] =
[U ⊆ A]. The c_u are the finite differences of P at 0, so by Newton's
forward-difference identity P(t) = sum_u c_u C(t, u). The entry of
L diag(c) L^T at (A, B) is sum_u c_u times the number of u-subsets of
A ∩ B, that is sum_u c_u C(t, u) with t = |A ∩ B|, so the factorization
holds exactly when sum_u c_u C(t, u) = P(t) for t = 0..s. Those s + 1
integer identities are checked once per build, as are the diagonal value
P(s) = (s-m)! and the zero pattern: for t < s, P(t) = 0 exactly when
t >= m, at the non-edges. The width rank_bound bounds
the rank. The parameters fix the vertex order, the c_u and rank_bound, so
the witness keeps only M and its rank.

The exact rank over Q is a closed form. M depends only on |A ∩ B|, so it
lies in the Bose-Mesner algebra of the Johnson scheme J(d, s): on the j-th
common eigenspace, of dimension C(d, j) - C(d, j-1), it acts as
sum_{u >= j} c_u C(s-j, u-j) C(d-u-j, s-u), read off the factorization
through the eigenvalues of the inclusion matrices (Godsil and Meagher
2015). The rank is the total dimension of the eigenspaces where that value
is nonzero. The rank mod a prime, computed from the entries, must equal
it. Reduction mod p cannot raise the rank of an integer matrix, and for a
prime this large it keeps the rank on every tested instance, so a mismatch
exposes an error in one of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Optional

from .budgets import DEFAULT_RANK_BUDGET, DEFAULT_VERTEX_BUDGET, check_budget
from .graphs import Graph, check_odd_length
from .matrices import RationalMatrix, mod_rank


@dataclass(frozen=True)
class KneserParams:
    d: int
    s: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.s <= self.d:
            raise ValueError(f"need 0 <= m <= s <= d, got {self}")

    @property
    def vertex_count(self) -> int:
        return math.comb(self.d, self.s)

    @property
    def rank_bound(self) -> int:
        """Number of columns in the factorization: sum of C(d,i), i <= s-m."""
        return sum(math.comb(self.d, i) for i in range(self.s - self.m + 1))


def subset_masks(d: int, s: int) -> list[int]:
    """All s-subsets of {0..d-1} as bitmasks, in lexicographic subset order."""
    return [sum(1 << i for i in combo) for combo in combinations(range(d), s)]


def intersection_polynomial(s: int, m: int, t: int) -> int:
    """prod_{j=m}^{s-1} (t - j): nonzero diagonal value at t=s, zero on m..s-1."""
    return math.prod(t - j for j in range(m, s))


def pattern_polynomial_coefficients(s: int, m: int) -> list[int]:
    """Multilinear coefficients c_0..c_{s-m}, by monomial degree.

    c_u is the u-th finite difference at 0 of the intersection polynomial:
    c_u = sum_{t=0}^{u} (-1)^(u-t) C(u,t) P(t).
    """
    if m > s:
        raise ValueError("need m <= s")
    values = [intersection_polynomial(s, m, t) for t in range(s - m + 1)]
    return [
        sum((-1) ** (u - t) * math.comb(u, t) * values[t] for t in range(u + 1))
        for u in range(s - m + 1)
    ]


def johnson_spectrum(params: KneserParams) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) of the representing matrix on each common
    eigenspace V_j, j = 0..min(s, d-s), of the Johnson scheme J(d, s).

    The matrix is sum_u c_u W_u^T W_u over u <= s-m, W_u being the inclusion
    matrix of the u-subsets against the s-subsets, so (W_u^T W_u)[A][B] =
    C(|A ∩ B|, u). W_u^T W_u acts on V_j as C(s-j, u-j) C(d-u-j, s-u) for
    j <= u and as 0 for j > u (Godsil and Meagher 2015), and V_j has
    dimension C(d, j) - C(d, j-1).
    """
    d, s, m = params.d, params.s, params.m
    coeffs = pattern_polynomial_coefficients(s, m)
    return [
        (
            sum(coeffs[u] * math.comb(s - j, u - j) * math.comb(d - u - j, s - u)
                for u in range(j, s - m + 1)),
            math.comb(d, j) - (math.comb(d, j - 1) if j else 0),
        )
        for j in range(min(s, d - s) + 1)
    ]


def spectral_rank(params: KneserParams) -> int:
    """Exact rank over Q of the representing matrix: the total multiplicity of
    its nonzero eigenvalues, the matrix being symmetric."""
    return sum(mult for value, mult in johnson_spectrum(params) if value)


@dataclass(frozen=True)
class KneserWitness:
    """Representation matrix of K(d,s,m) with its verified rank certificates.

    matrix holds the integer entries P(|A ∩ B|) in the vertex order
    subset_masks(d, s). The identities sum_u c_u C(t, u) = P(t), t = 0..s,
    were checked, and they make M = L diag(c_|U|) L^T, L being the inclusion
    matrix of the vertices against the subsets U with |U| <= s-m, so the rank
    is at most params.rank_bound, the column count of L. params determines
    the vertex order, the c = pattern_polynomial_coefficients(s, m) and that
    bound, so none is stored. With the rank checked, rank is the exact rank
    over the rationals, read off the Johnson-scheme spectrum and matched by
    the rank mod CERTIFICATE_PRIME; it is None otherwise. P was checked to
    vanish at t < s exactly when t >= m, so off the diagonal the zero pattern
    of row A is the b with |A ∩ B| >= m, and graph() reads K(d,s,m) from it.
    """

    params: KneserParams
    matrix: RationalMatrix
    rank: Optional[int] = None

    def graph(self) -> Graph:
        """K(d,s,m): vertex a is adjacent to each b != a with a nonzero entry."""
        n = self.matrix.rows
        return Graph(n, tuple(sum(1 << b for b in compress(range(n), row)) ^ (1 << a)
                              for a, row in enumerate(self.matrix.entries)))


class VerificationError(RuntimeError):
    """A built witness or a proved guarantee failed its explicit check."""


# The computed side of the rank certificate: rank mod p <= rank over Q.
CERTIFICATE_PRIME = 2**31 - 1


def representation_matrix(
    params: KneserParams,
    check_rank: bool = False,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    rank_budget: int = DEFAULT_RANK_BUDGET,
) -> KneserWitness:
    """Build the representing matrix and check it.

    Every entry is P(t) at t = |A ∩ B|, so the checks run once per t before
    any row is built: P(s) is the diagonal (s-m)!, P(t) for t < s is zero
    exactly at the non-edges t >= m, and the s + 1 identities
    sum_u c_u C(t, u) = P(t) prove M = L diag(c_|U|) L^T. With check_rank,
    the exact rank is spectral_rank(params), and the rank mod
    CERTIFICATE_PRIME of the entries must equal it. That elimination meets
    each of the N rows with up to rank basis rows of N entries, so it is
    budgeted at N^2 * rank before any entry is built.
    """
    d, s, m = params.d, params.s, params.m
    n = params.vertex_count
    check_budget(n, vertex_budget, f"materializing K({d},{s},{m})")
    rank = spectral_rank(params) if check_rank else None
    if rank is not None:
        check_budget(n * n * rank, rank_budget, f"rank check of K({d},{s},{m})")
    poly = [intersection_polynomial(s, m, t) for t in range(s + 1)]
    _check_values(poly, m)
    _check_factorization(pattern_polynomial_coefficients(s, m), poly)
    masks = subset_masks(d, s)
    entries = tuple(tuple([poly[(a & b).bit_count()] for b in masks]) for a in masks)

    if rank is not None:
        computed = mod_rank(entries, CERTIFICATE_PRIME)
        if computed != rank:
            raise VerificationError(
                f"rank mod p {computed} differs from the spectral rank {rank}"
            )
        if rank > params.rank_bound:
            raise VerificationError(
                f"rank {rank} exceeds the certificate bound {params.rank_bound}"
            )
    return KneserWitness(params=params, matrix=RationalMatrix(entries), rank=rank)


def _check_values(poly: list[int], m: int) -> None:
    """Check the values the entries poly[|A ∩ B|] of M take.

    The diagonal, where t = s, must hold (s-m)!. Off it t < s, and the entry
    must be zero exactly when t >= m, at the non-edges of K(d,s,m). Both
    depend on t alone, so one check per t covers every pair.
    """
    s = len(poly) - 1
    diag = math.factorial(s - m)
    if poly[s] != diag:
        raise VerificationError(f"bad diagonal: P({s}) = {poly[s]}, need {diag}")
    for t in range(s):
        if (poly[t] == 0) != (t >= m):
            raise VerificationError(f"zero pattern mismatch at t={t}")


def _check_factorization(coeffs: list[int], poly: list[int]) -> None:
    """Check sum_u c_u C(t, u) = poly[t] for every t = 0..s.

    The left side is the entry of L diag(c_|U|) L^T at any pair with
    |A ∩ B| = t, since C(t, u) of the u-subsets U lie in both A and B.
    """
    for t, value in enumerate(poly):
        if sum(c * math.comb(t, u) for u, c in enumerate(coeffs)) != value:
            raise VerificationError(f"factorization mismatch at t={t}")


def odd_girth_guarantee(d: int, m: int, ell: int) -> bool:
    """True iff m <= d/(2*ell), the hypothesis excluding odd cycles <= ell.

    Applies to K(d, d/2, m) for even d. `kneser build --check-odd-girth`
    searches the graph itself.
    """
    check_odd_length(ell)
    if d % 2:
        raise ValueError("d must be even")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return 2 * ell * m <= d


# ---------------------------------------------------------------------------
# entropy-side numerics

def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must be in [0,1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_delta_limit(ell: int) -> float:
    """Limit of delta_star as the construction grows: 1 - H(1/2 - 1/(2*ell))."""
    return 1.0 - binary_entropy(0.5 - 1.0 / (2 * ell))


@dataclass(frozen=True)
class ConstructionReport:
    ell: int
    n: int
    d: int
    m: int
    rank_bound: int
    vertex_count: int
    delta_star: float
    rank: int
    delta: float


def rank_bound_report(ell: int, n: int) -> ConstructionReport:
    """Parameters, rank bound and exact rank for an n-vertex odd-girth construction.

    d is the smallest multiple of 2*ell whose middle binomial reaches n,
    m = d/(2*ell), delta_star = 1 - log(rank_bound)/log(C(d, d/2)) from the
    factorization's width, and delta the same exponent from the exact rank
    spectral_rank(K(d, d/2, m)). Both are rounded to 6 places. Everything is
    exact big-integer arithmetic; no matrix is materialized.
    """
    check_odd_length(ell)
    if n < 1:
        raise ValueError("n must be positive")
    d = 2 * ell
    while math.comb(d, d // 2) < n:
        d += 2 * ell
    m = d // (2 * ell)
    params = KneserParams(d, d // 2, m)
    rank = spectral_rank(params)
    log_n = math.log(params.vertex_count)
    delta_star = round(1.0 - math.log(params.rank_bound) / log_n, 6)
    delta = round(1.0 - math.log(rank) / log_n, 6)
    return ConstructionReport(
        ell, n, d, m, params.rank_bound, params.vertex_count, delta_star, rank, delta
    )

