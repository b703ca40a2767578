"""Linear algebra over GF(2) on bit-packed matrices.

A matrix is a tuple of ints, one row per int, LSB = column 0.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "BitMatrix",
    "bits",
    "restrict",
    "identity",
    "add",
    "multiply",
    "rank",
    "kernel",
    "invert",
    "rows_to_lists",
    "rows_from_lists",
]

BitMatrix = tuple[int, ...]


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask`` (>= 0), lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def restrict(masks: Sequence[int], positions: Sequence[int]) -> BitMatrix:
    """The rows of ``masks`` at the distinct ``positions``, each cut to those
    columns and renumbered 0, 1, ... in the order given: the adjacency masks
    of the subgraph induced on ``positions``.  ValueError if a position repeats."""
    at, cut = {j: 1 << b for b, j in enumerate(positions)}, sum(1 << j for j in positions)
    if len(at) != len(positions):
        raise ValueError(f"positions {list(positions)} repeat")
    return tuple(sum(at[j] for j in bits(masks[i] & cut)) for i in positions)


def identity(n: int) -> BitMatrix:
    return tuple(1 << i for i in range(n))


def add(a: Sequence[int], b: Sequence[int]) -> BitMatrix:
    """Entrywise sum (XOR) of two matrices of the same shape."""
    return tuple(x ^ y for x, y in zip(a, b, strict=True))


def multiply(a: Sequence[int], b: Sequence[int]) -> BitMatrix:
    """Matrix product; column count of ``a`` must equal ``len(b)``."""
    out = []
    for row in a:
        acc = 0
        while row:
            acc ^= b[(row & -row).bit_length() - 1]
            row &= row - 1
        out.append(acc)
    return tuple(out)


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank, by reduction against a basis keyed on lowest set bits."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    return len(basis)


def kernel(rows: Iterable[int], n: int) -> BitMatrix:
    """A basis of the null space: all x in GF(2)^n with ``row & x`` of even
    weight for every row (Gauss-Jordan, one basis vector per free column)."""
    pivots: dict[int, int] = {}  # pivot column -> reduced row
    for row in rows:
        for col, prow in pivots.items():
            if (row >> col) & 1:
                row ^= prow
        if not row:
            continue
        col = (row & -row).bit_length() - 1
        for c in pivots:
            if (pivots[c] >> col) & 1:
                pivots[c] ^= row
        pivots[col] = row
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = 1 << free
        for col, prow in pivots.items():
            if (prow >> free) & 1:
                vec |= 1 << col
        basis.append(vec)
    return tuple(basis)


def invert(rows: Sequence[int], n: int) -> BitMatrix | None:
    """Inverse of an n x n matrix, or None if singular (Gauss-Jordan)."""
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if (work[r] >> col) & 1), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
    return tuple(row >> n for row in work)


def rows_to_lists(rows: Sequence[int], n: int) -> list[list[int]]:
    """Unpack to nested 0/1 lists (JSON-friendly form)."""
    return [[(row >> j) & 1 for j in range(n)] for row in rows]


def rows_from_lists(lists: Sequence[Sequence[int]]) -> BitMatrix:
    return tuple(sum(bit << j for j, bit in enumerate(row)) for row in lists)
