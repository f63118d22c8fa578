"""Exact dense matrices over prime fields GF(p) and over the rationals.

Rank and nullspace over GF(p) use modular Gaussian elimination, on bitset
rows for p = 2. A rational matrix only holds exact entries (the Kneser
witness, the modulus-0 text format); no rank is computed over the
rationals here. The sparse-basis search enumerates vector subsets in
lexicographic order with weight pruning, carrying the echelon basis of the
chosen vectors down the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# elimination kernels

def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as int bitsets."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        v = row
        while v:
            lsb = v & -v
            piv = pivots.get(lsb)
            if piv is None:
                pivots[lsb] = v
                rank += 1
                break
            v ^= piv
    return rank


def mod_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on row lists."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] % p), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], p - 2, p) if p > 2 else 1
        prow = [(x * inv) % p for x in work[r]]
        work[r] = prow
        for i in range(r + 1, nrows):
            f = work[i][c] % p
            if f:
                row = work[i]
                work[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def mod_nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {x : rows @ x = 0} over GF(p)."""
    work = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row_idx, c in enumerate(pivots):
            vec[c] = (-work[row_idx][free]) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# matrix types

@dataclass(frozen=True)
class FieldMatrix:
    """Dense matrix over GF(p), entries stored as residues in [0, p)."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        width = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            if any(not 0 <= x < self.p for x in row):
                raise ValueError("entries must be reduced mod p")

    @classmethod
    def from_rows(cls, p: int, rows: Sequence[Sequence[int]]) -> "FieldMatrix":
        return cls(p, tuple(tuple(x % p for x in row) for row in rows))

    @classmethod
    def identity(cls, p: int, n: int) -> "FieldMatrix":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def all_ones(cls, p: int, rows: int, cols: int) -> "FieldMatrix":
        return cls(p, tuple((1,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def rank(self) -> int:
        if self.p == 2:
            return gf2_rank(
                sum(x << j for j, x in enumerate(row)) for row in self.entries
            )
        return mod_rank(self.entries, self.p)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of exact rationals, entries as int or Fraction.

    from_rows converts every entry to a Fraction (lowest terms); an integer
    matrix can hold its ints directly, which the text format accepts.
    """

    entries: tuple[tuple[Union[int, Fraction], ...], ...]

    def __post_init__(self) -> None:
        width = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Union[int, str, Fraction]]]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


Matrix = Union[FieldMatrix, RationalMatrix]


def sparsity(m: Matrix) -> int:
    """Number of nonzero entries."""
    return sum(1 for row in m.entries for x in row if x)


# ---------------------------------------------------------------------------
# sparse bases

def min_basis_weight(vectors: Sequence[Sequence[int]], k: int, p: int) -> int:
    """Minimum total nonzeros over k independent vectors among vectors (the
    columns or the rows of a matrix), where k is their rank over GF(p).

    The search carries the echelon basis of the chosen vectors down the
    recursion: a vector extends the choice iff its residue against the
    chosen pivots is nonzero.
    """
    if k == 0:
        return 0
    weights = [sum(1 for x in v if x) for v in vectors]
    count = len(vectors)
    best: list[int] = [sum(sorted(weights, reverse=True)[:k]) ]  # trivial upper bound

    def extend(start: int, basis: list, weight: int) -> None:
        if weight >= best[0] and len(basis) < k:
            return
        if len(basis) == k:
            if weight < best[0]:
                best[0] = weight
            return
        for idx in range(start, count - (k - len(basis)) + 1):
            w = weight + weights[idx]
            if w > best[0]:
                continue
            pivot_row = _echelon_residue(vectors[idx], basis, p)
            if pivot_row is not None:
                extend(idx + 1, basis + [pivot_row], w)

    extend(0, [], 0)
    return best[0]


def _echelon_residue(
    vector: Sequence[int], basis: list, p: int
) -> Optional[tuple[int, list[int]]]:
    """Reduce vector against basis, a list of (pivot, row) with row[pivot] == 1
    and every row zero at the earlier rows' pivots. Returns the residue as a
    new (pivot, row) in the same form, or None if vector lies in the span."""
    v = list(vector)
    for pivot, row in basis:
        f = v[pivot]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    for pivot, x in enumerate(v):
        if x:
            inv = pow(x, p - 2, p)
            return pivot, [(y * inv) % p for y in v]
    return None


# ---------------------------------------------------------------------------
# text format: "rows cols modulus" then row-major entries (modulus 0 = rationals)

def format_matrix_text(m: Matrix) -> str:
    modulus = m.p if isinstance(m, FieldMatrix) else 0
    body = "\n".join(" ".join(str(x) for x in row) for row in m.entries)
    return f"{m.rows} {m.cols} {modulus}" + ("\n" + body if body else "") + "\n"


def parse_matrix_text(text: str) -> Matrix:
    tokens = text.split()
    if len(tokens) < 3:
        raise ValueError("matrix text needs a 'rows cols modulus' header")
    rows, cols, modulus = int(tokens[0]), int(tokens[1]), int(tokens[2])
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix dimensions {rows}x{cols} are negative")
    body = tokens[3:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(body)}")
    grid = [body[i * cols:(i + 1) * cols] for i in range(rows)]
    if modulus == 0:
        return RationalMatrix.from_rows(grid)
    return FieldMatrix.from_rows(modulus, [[int(x) for x in row] for row in grid])
