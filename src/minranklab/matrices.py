"""Exact dense matrices over prime fields GF(p) and over the rationals.

Eliminations over GF(p), bar the bitset `gf2_rank` for p = 2, reduce each
row against a semi-echelon basis, and rank counts the rows that leave a
residue. A row takes one of two forms. A list of residues, reduced entry by
entry in `_echelon_residue`, serves rows shorter than PACKED_MIN_COLUMNS,
primes other than the Mersenne primes 2^q - 1, matrices with at most two
nonzeros in every row, the nullspace and the minimum-weight basis.
Otherwise `mod_rank` packs a row into one Python int with a fixed-width
slot per column, column 0 on top, and reduces it by one big-int
multiply-add per basis row (`_packed_rank`). The row is never unpacked: as
2^q = 1 mod p, a few whole-int shifts, masks and adds fold every slot to
its residue at once (the special-form reduction of Crandall and Pomerance,
*Prime Numbers*, 2005), and the top nonzero slot is the pivot. The
certificate prime 2^31 - 1 of the Kneser rank check is one such prime. The
nullspace is read off the back-substituted basis. The minimum-weight basis
is one pass that inserts the vectors lightest first and keeps each one that
leaves a residue; that greedy is exact because the independent subsets of a
vector set form a matroid (Rado 1957; Edmonds 1971). `_inverse` is the one
place that inverts mod p. A rational matrix only holds exact entries (the
Kneser witness, the modulus-0 text format); no rank is computed over the
rationals here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union


# The first 13 primes. As Miller-Rabin bases they decide primality exactly
# below MILLER_RABIN_LIMIT (Sorenson and Webster 2015).
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)


def is_prime(p: int) -> bool:
    """Exact primality: a lookup and trial division by SMALL_PRIMES, which
    settle every p < 43^2, then Miller-Rabin to those bases. A p at or above
    MILLER_RABIN_LIMIT with no small factor is refused with a ValueError."""
    if p in _SMALL_PRIME_SET:
        return True
    if p < 2:
        return False
    for b in SMALL_PRIMES:
        if p % b == 0:
            return False
    if p < 43 * 43:
        return True
    if p >= MILLER_RABIN_LIMIT:
        raise ValueError(f"primality of {p} is not decided at or above {MILLER_RABIN_LIMIT}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in SMALL_PRIMES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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


# Rows at least this long are reduced packed; on shorter rows the passes that
# pack and fold a row outweigh what the big-int row steps save. On random
# dense n x n matrices the list/packed time ratio was 0.8, 0.9 and 0.9 at
# n = 4 over GF(3), GF(7) and GF(2^31 - 1); 1.1, 1.2 and 1.3 at n = 8; 1.8,
# 2.0 and 2.3 at n = 16; 3.5, 3.7 and 4.5 at n = 32; 5.5, 7.4 and 8.4 at 64.
PACKED_MIN_COLUMNS = 16


def mod_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p): the number of rows that leave a residue. Rows of
    PACKED_MIN_COLUMNS entries or more are reduced by _packed_rank when p is
    a Mersenne prime 2^q - 1, unless no row has more than two nonzero
    entries; GF(2) and other primes keep list rows.

    Reducing a row with at most two nonzeros against such rows leaves at most
    two, so those matrices never fill in, and the list path's few passes per
    row beat packing and folding it: on the K(10,5,1) matrix (252 columns,
    two nonzeros per row) the list path took 0.012 s and the packed one
    0.020 s, and on K(12,6,1) 0.14 and 0.29 s.
    """
    if (
        rows
        and p & (p + 1) == 0
        and len(rows[0]) >= PACKED_MIN_COLUMNS
        and any(len(row) - row.count(0) > 2 for row in rows)
    ):
        return _packed_rank(rows, p)
    basis: list = []
    for row in rows:
        residue = _echelon_residue(row, basis, p)
        if residue is not None:
            basis.append(residue)
    return len(basis)


def _packed_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """mod_rank for a Mersenne prime p = 2^q - 1, with each row packed into
    one int, a w-bit slot per column and column 0 in the top slot, so one row
    step is one big-int v += (p - f) * r and a row is never unpacked.

    A basis row holds residues in [0, p), 1 at its pivot and zeros above it,
    and a vector starts reduced, so a slot grows by at most (p-1)^2 per basis
    row, of which there are at most n: w bits hold (p-1) + n(p-1)^2 and no
    slot carries into the next. Since 2^q = 1 mod p, a _folder brings every
    slot of a reduced vector to its residue at once. The vector is then zero
    exactly when it lies in the span, and otherwise its top nonzero slot is
    its pivot: scaled by the pivot's inverse and folded again, it joins the
    basis.
    """
    n = len(rows[0])
    bound = (p - 1) + n * (p - 1) ** 2
    k = bound.bit_length() + 7 >> 3
    w = 8 * k
    mask = (1 << w) - 1
    ones = ((1 << n * w) - 1) // mask  # a 1 in every slot
    reduce_vector = _folder(p, w, ones, bound)
    scale_row = _folder(p, w, ones, (p - 1) ** 2)
    basis: list = []  # (bit offset of the pivot slot, packed row)
    for row in rows:
        v = int.from_bytes(b"".join([(x % p).to_bytes(k, "big") for x in row]), "big")
        for shift, r in basis:
            f = (v >> shift & mask) % p
            if f:
                v += (p - f) * r
        v = reduce_vector(v)
        if v:
            shift = (v.bit_length() - 1) // w * w
            basis.append((shift, scale_row(v * _inverse(v >> shift, p))))
    return len(basis)


def _folder(p: int, w: int, ones: int, bound: int) -> Callable[[int], int]:
    """A function that takes a packed vector of w-bit slots, each at most
    bound, to the vector of their residues mod p = 2^q - 1.

    Each fold x <- (x mod 2^q) + (x >> q) keeps a slot's residue, as
    2^q = 1 mod p, and the largest it can leave of an x at most bound is
    counted exactly; once every slot is below 2p, bit q of x + 1 is set
    exactly when x >= p, and subtracting p there leaves the residue. No step
    carries across slots.
    """
    q = p.bit_length()
    low = ones * p  # the low q bits of every slot
    high = ones * ((1 << w - q) - 1)  # the bits a shift by q leaves in each slot
    folds = 0
    while bound >= 2 * p:
        bound = max((bound & p) + (bound >> q), p + (bound >> q) - 1)
        folds += 1

    def fold(v: int) -> int:
        for _ in range(folds):
            v = (v & low) + (v >> q & high)
        carry = (v + ones) >> q & ones
        return v - (carry << q) + carry

    return fold


def mod_nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {x : rows @ x = 0} over GF(p), one vector per free column in
    increasing order, read off the reduced row echelon form of the rows."""
    basis: list = []
    for row in rows:
        residue = _echelon_residue(row, basis, p)
        if residue is not None:
            basis.append(residue)
    # back-substitute, last row first: each row is reduced against the later
    # rows, which are already zero at each other's pivots
    reduced: list = []
    for _, row in reversed(basis):
        reduced.append(_echelon_residue(row, reduced, p))
    pivot_rows = dict(reduced)
    nullspace = []
    for free in range(ncols):
        if free in pivot_rows:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for c, row in pivot_rows.items():
            vec[c] = (-row[free]) % p
        nullspace.append(vec)
    return nullspace


def _echelon_residue(
    vector: Iterable[int], basis: list, p: int
) -> Optional[tuple[int, list[int]]]:
    """Reduce vector mod p against basis, a list of (pivot, row) with
    row[pivot] == 1 and every row zero at the earlier rows' pivots. Returns
    the residue scaled to 1 at its first nonzero entry as a new (pivot, row)
    in the same form, or None if vector lies in the span."""
    v = [x % p for x in vector]
    for pivot, row in basis:
        f = v[pivot]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    for pivot, x in enumerate(v):
        if x:
            inv = _inverse(x, p)
            return pivot, [(y * inv) % p for y in v]
    return None


def _inverse(x: int, p: int) -> int:
    """The inverse of x mod the prime p, for x not divisible by p; the one
    place that inverts mod p."""
    return pow(x, p - 2, p)


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

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


Matrix = Union[FieldMatrix, RationalMatrix]


# ---------------------------------------------------------------------------
# sparse bases

def min_weight_basis(vectors: Iterable[Sequence[int]], p: int) -> tuple[int, int]:
    """(rank, minimum total nonzeros over rank-many independent vectors) of
    vectors over GF(p), such as the columns or the rows of a matrix, with
    entries read mod p.

    One pass inserts the vectors lightest first into a semi-echelon basis,
    and each vector that leaves a residue adds its weight. The greedy is
    exact: the independent subsets of a vector set form a matroid, and on a
    matroid it finds a minimum-weight basis (Rado 1957; Edmonds 1971).
    """
    def weight(vector: Sequence[int]) -> int:
        return sum(1 for x in vector if x % p)

    basis: list = []
    total = 0
    for vector in sorted(vectors, key=weight):
        residue = _echelon_residue(vector, basis, p)
        if residue is not None:
            basis.append(residue)
            total += weight(vector)
    return len(basis), total


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
