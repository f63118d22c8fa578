"""Small matrices the tests build, kept out of the package's interface."""

from minranklab.matrices import FieldMatrix, RationalMatrix


def identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def field_identity(p: int, n: int) -> FieldMatrix:
    return FieldMatrix.from_rows(p, identity_rows(n))


def field_all_ones(p: int, rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix.from_rows(p, [[1] * cols for _ in range(rows)])


def rational_identity(n: int) -> RationalMatrix:
    return RationalMatrix.from_rows(identity_rows(n))
