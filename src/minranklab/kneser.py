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
t >= m, at the non-edges. The width rank_bound bounds the rank. The
parameters fix M, built on its first read; graph() reads K(d,s,m) off the
intersection counts under the checked zero pattern.

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
from functools import cached_property
from itertools import combinations
from typing import Iterator, Optional

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


def _intersection_counts(d: int, s: int) -> tuple[int, Iterator[bytes]]:
    """(offset, rows): row A holds a byte c = |A ∩ B| - offset per vertex B in
    subset_masks order, the sum of one column per element of A, byte B of
    column i being [i in B]. When 2s > d it counts the complements, offset
    2s - d, so c <= min(s, d-s) < 256 for any C(d, s) that can be listed."""
    offset = max(0, 2 * s - d)
    masks = [mask ^ ((1 << d) - 1 if offset else 0) for mask in subset_masks(d, s)]
    columns = [int.from_bytes(bytes(mask >> i & 1 for mask in masks), "little") for i in range(d)]
    sums = (sum(columns[i] for i in range(d) if mask >> i & 1) for mask in masks)
    return offset, (row.to_bytes(len(masks), "little") for row in sums)


@dataclass(frozen=True)
class KneserWitness:
    """The checked representing matrix of K(d,s,m) and its rank certificates.

    params fix M, the entries P(|A ∩ B|) in the order subset_masks(d, s), of
    rank at most params.rank_bound, built on the first read of matrix. rank,
    when checked, is the exact rank over Q, spectral_rank matched by the rank
    mod CERTIFICATE_PRIME, and None otherwise. graph() reads K(d,s,m) off the
    intersection counts: P(s) != 0, and P(t) = 0 for t < s exactly when t >= m.
    """

    params: KneserParams
    rank: Optional[int] = None

    @cached_property
    def matrix(self) -> RationalMatrix:
        offset, rows = _intersection_counts(self.params.d, self.params.s)
        s, m = self.params.s, self.params.m
        poly = [intersection_polynomial(s, m, t) for t in range(offset, s + 1)]
        return RationalMatrix(tuple(tuple(map(poly.__getitem__, row)) for row in rows))

    def graph(self) -> Graph:
        """K(d,s,m): a ~ b when |A ∩ B| < m, M's nonzeros off the diagonal."""
        offset, rows = _intersection_counts(self.params.d, self.params.s)
        table = bytes(b"01"[offset + c < self.params.m] for c in range(256))
        return Graph(self.params.vertex_count,
                     tuple(int(row.translate(table)[::-1], 2) for row in rows))


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
    """Check the representing matrix of K(d,s,m) and return its witness.

    Every entry is P(t) at t = |A ∩ B|, so _check_values and
    _check_factorization check M once per t, proving M = L diag(c_|U|) L^T,
    and no entry is built unless the rank check or a caller reads
    witness.matrix. With check_rank the rank mod CERTIFICATE_PRIME of the
    entries must equal spectral_rank(params); that elimination meets each of
    the N rows with up to rank basis rows of N entries, budgeted at N^2 * rank.
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
    witness = KneserWitness(params=params, rank=rank)
    if rank is not None:
        computed = mod_rank(witness.matrix.entries, CERTIFICATE_PRIME)
        if computed != rank:
            raise VerificationError(
                f"rank mod p {computed} differs from the spectral rank {rank}"
            )
        if rank > params.rank_bound:
            raise VerificationError(
                f"rank {rank} exceeds the certificate bound {params.rank_bound}"
            )
    return witness


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

