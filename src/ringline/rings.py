"""Table-driven finite associative rings with unity.

A ring element is a plain int in ``[0, order)``: an opaque label into the
ring's addition and multiplication tables.  Every ring also carries a
faithful GF(2) matrix representation (one bit-packed ``rep_dim x rep_dim``
matrix per element) under which addition is XOR and multiplication is the
GF(2) matrix product, so invertibility questions reduce to bit-matrix rank
tests.  Zero counts as a zero-divisor; units and zero-divisors partition
the ring.

Rings in scope: the full 2x2 matrix ring over GF(2) (``m2f2``, the unique
simple non-commutative ring of order 16) and the four commutative companions
of characteristic two (``gf2``, ``gf4``, ``gf2xgf2``, ``gf2dual``), each
realized inside ``m2f2`` by its standard matrix model.

Each ring's tables are those of its matrices (``_model_tables``), which is
why its laws hold: distinct matrices closed under XOR and the GF(2) product
form a ring under them, since matrix addition and multiplication obey every
ring law, and the tables make the labels an isomorphic copy of it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from . import gf2

__all__ = [
    "RingElement",
    "Ring",
    "ring_by_name",
    "ring_names",
    "units",
    "zero_divisors",
    "validate_ring",
    "ring_to_json_dict",
]

RingElement = int


class Ring(NamedTuple):
    """A finite associative ring with unity, defined by lookup tables.

    Attributes
    ----------
    name : str
        Registry key, e.g. ``"m2f2"``.
    order : int
        Number of elements; the elements are the ints ``0 .. order-1``.
    zero, one : int
        Additive and multiplicative identity labels.
    add_table, mul_table : nested tuples
        ``add_table[x][y] == x + y`` and ``mul_table[x][y] == x * y``.
    rep_dim : int
        Side length of the representation matrices.
    rep : tuple of bit matrices
        ``rep[x]`` is the faithful GF(2) image of ``x`` (see :mod:`.gf2`).
    """

    name: str
    order: int
    zero: RingElement
    one: RingElement
    add_table: tuple[tuple[RingElement, ...], ...]
    mul_table: tuple[tuple[RingElement, ...], ...]
    rep_dim: int
    rep: tuple[gf2.BitMatrix, ...]

    def __hash__(self) -> int:
        # equal rings share name and order; hashing the tables would slow every cache hit
        return hash((self.name, self.order))

    def add(self, x: RingElement, y: RingElement) -> RingElement:
        return self.add_table[x][y]

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        return self.mul_table[x][y]

    def elements(self) -> range:
        return range(self.order)


# name -> (rep_dim, the element matrices in label order).  In m2f2, label 1
# is the identity; labels 0..15 otherwise follow the fixed published
# numbering that the rest of the package (point representatives, sign
# matrix) is keyed to.  The other four are the commutative rings of
# characteristic two in their standard matrix models.
_MODELS = {
    # the full ring of 2x2 matrices over GF(2): 16 elements, 6 units
    "m2f2": (2, (
        [[0, 0], [0, 0]],  # 0
        [[1, 0], [0, 1]],  # 1
        [[0, 1], [1, 0]],  # 2
        [[1, 1], [1, 1]],  # 3
        [[0, 0], [1, 1]],  # 4
        [[1, 0], [1, 0]],  # 5
        [[0, 1], [0, 1]],  # 6
        [[1, 1], [0, 0]],  # 7
        [[0, 1], [0, 0]],  # 8
        [[1, 1], [0, 1]],  # 9
        [[0, 0], [1, 0]],  # 10
        [[1, 0], [1, 1]],  # 11
        [[0, 1], [1, 1]],  # 12
        [[1, 1], [1, 0]],  # 13
        [[0, 0], [0, 1]],  # 14
        [[1, 0], [0, 0]],  # 15
    )),
    # the two-element field
    "gf2": (1, ([[0]], [[1]])),
    # GF(4) via the companion matrix of t^2 + t + 1; label 2 generates
    "gf4": (2, ([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [1, 0]])),
    # GF(2) x GF(2) as diagonal matrices; labels 2 = (1,0), 3 = (0,1)
    "gf2xgf2": (2, ([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 1]])),
    # GF(2)[x]/<x^2> (dual numbers) as upper triangular matrices; label 2 = x
    "gf2dual": (2, ([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[0, 1], [0, 0]], [[1, 1], [0, 1]])),
}


@lru_cache(maxsize=len(_MODELS))
def _model_tables(rep_dim: int, reps: tuple[gf2.BitMatrix, ...]) -> tuple[tuple, tuple]:
    """The tables of ``reps`` under XOR and the GF(2) matrix product: entry
    ``[x][y]`` labels the sum, or the product, of ``reps[x]`` and ``reps[y]``.
    Raises ValueError unless the matrices are distinct ``rep_dim x rep_dim``
    bit matrices closed under both operations."""
    if any(len(m) != rep_dim or any(r >> rep_dim for r in m) for m in reps):
        raise ValueError(f"representation matrices are not {rep_dim}x{rep_dim} bit matrices")
    index = {m: i for i, m in enumerate(reps)}
    if len(index) != len(reps):
        raise ValueError("representation matrices are not distinct")
    tables = []
    for op, word in ((gf2.add, "addition"), (gf2.multiply, "multiplication")):
        rows = [tuple(index.get(op(a, b)) for b in reps) for a in reps]
        for x, row in enumerate(rows):
            if None in row:
                raise ValueError(f"not closed under {word} at ({x}, {row.index(None)})")
        tables.append(tuple(rows))
    return tuple(tables)


def ring_names() -> tuple[str, ...]:
    return tuple(_MODELS)


@lru_cache(maxsize=None)
def ring_by_name(name: str) -> Ring:
    """The named ring, built from its matrix model on first use."""
    try:
        rep_dim, matrices = _MODELS[name]
    except KeyError:
        raise ValueError(f"unknown ring {name!r}; choose from {', '.join(_MODELS)}") from None
    reps = tuple(gf2.rows_from_lists(m) for m in matrices)
    try:
        add_table, mul_table = _model_tables(rep_dim, reps)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    zero, one = reps.index((0,) * rep_dim), reps.index(gf2.identity(rep_dim))
    return Ring(name, len(reps), zero, one, add_table, mul_table, rep_dim, reps)


def units(ring: Ring) -> frozenset[RingElement]:
    """Elements with a two-sided multiplicative inverse."""
    mul, one, elements = ring.mul_table, ring.one, ring.elements()
    return frozenset(
        x
        for x in elements
        if one in mul[x] and any(mul[x][y] == one and mul[y][x] == one for y in elements)
    )


def zero_divisors(ring: Ring, known_units: frozenset[RingElement] | None = None) -> frozenset[RingElement]:
    """Non-units, zero included: the complement of ``known_units``, the
    caller's ``units(ring)``, or of ``units(ring)`` when none are given."""
    return frozenset(ring.elements()) - (units(ring) if known_units is None else known_units)


def _is_label(x: object, n: int) -> bool:
    return isinstance(x, int) and 0 <= x < n


def validate_ring(ring: Ring) -> list[str]:
    """Check the ring axioms through the matrix representation.

    Returns a list of violation strings; an empty list means the ring is
    valid.  A ring is valid exactly when ``rep`` is a faithful unital
    homomorphism: injective, rep(one) the identity, rep(zero) zero, and
    carrying + and x to XOR and the GF(2) product on every cell.  The
    tables are then its matrices' tables (``_model_tables``): rep is a
    bijection onto matrices closed under both operations, so each law holds
    because it holds for matrices, zero and one are identities because their
    images are, and x + x = zero because M + M = 0.

    A ring whose tables are its own matrices' tables, with rep(one) the
    identity and rep(zero) zero, is accepted with no scan.  Any other ring
    is checked condition by condition, and each break is named: a malformed
    field before anything indexes with it, then the rep checks, then each
    cell where rep breaks + or x.
    """
    n, k, rep = ring.order, ring.rep_dim, ring.rep
    if not all(isinstance(size, int) and size >= 0 for size in (n, k)):
        return [f"order {n!r} and rep_dim {k!r} must be non-negative ints"]
    try:
        model = _model_tables(k, rep)
    except ValueError:
        model = None
    tables = ring.add_table, ring.mul_table
    if (
        model == tables
        # equal rows are tuples of equal cells, and the model's own tables hold
        # ints, but 3.0 == 3: a copy's cell types are read in one C-level pass
        and (model[0] is tables[0] and model[1] is tables[1]
             or {*map(type, itertools.chain(*tables[0], *tables[1]))} == {int})
        and len(rep) == n
        and _is_label(ring.zero, n)
        and _is_label(ring.one, n)
        and rep[ring.one] == gf2.identity(k)
        and not any(rep[ring.zero])
    ):
        return []

    problems: list[str] = []
    rng = range(n)
    add, mul = ring.add_table, ring.mul_table
    if len(add) != n or any(len(row) != n for row in add):
        return [f"add_table is not {n}x{n}"]
    if len(mul) != n or any(len(row) != n for row in mul):
        return [f"mul_table is not {n}x{n}"]
    for x in rng:
        for y in rng:
            if not _is_label(add[x][y], n):
                problems.append(f"add_table[{x}][{y}] = {add[x][y]!r} out of range")
            if not _is_label(mul[x][y], n):
                problems.append(f"mul_table[{x}][{y}] = {mul[x][y]!r} out of range")
    if problems:
        return problems
    labels = {"zero": ring.zero, "one": ring.one}
    problems = [f"{f} = {v!r} out of range" for f, v in labels.items() if not _is_label(v, n)]
    if problems:
        return problems
    if len(rep) != n:
        return ["rep does not cover every element"]
    misshapen = [x for x, m in enumerate(rep) if len(m) != k or any(r >> k for r in m)]
    if misshapen:
        return [f"rep[{x}] is not a {k}x{k} bit matrix" for x in misshapen]
    if len(set(rep)) != n:
        problems.append("rep is not injective")
    if rep[ring.one] != gf2.identity(k):
        problems.append("rep(one) is not the identity matrix")
    if any(rep[ring.zero]):
        problems.append("rep(zero) is not the zero matrix")
    return problems + _rep_pair_problems(ring)


def _rep_pair_problems(ring: Ring) -> list[str]:
    """Where rep breaks + or x, pair by pair."""
    rep, add, mul = ring.rep, ring.add_table, ring.mul_table
    problems = []
    for x in range(ring.order):
        for y in range(ring.order):
            if rep[add[x][y]] != gf2.add(rep[x], rep[y]):
                problems.append(f"rep breaks addition at (x,y)=({x},{y})")
            if rep[mul[x][y]] != gf2.multiply(rep[x], rep[y]):
                problems.append(f"rep breaks multiplication at (x,y)=({x},{y})")
    return problems


def ring_to_json_dict(ring: Ring) -> dict:
    """JSON-safe document for a ring; the on-disk fixture format."""
    return {
        "schema": 1,
        "name": ring.name,
        "order": ring.order,
        "zero": ring.zero,
        "one": ring.one,
        "add_table": [list(row) for row in ring.add_table],
        "mul_table": [list(row) for row in ring.mul_table],
        "rep_dim": ring.rep_dim,
        "rep": [gf2.rows_to_lists(m, ring.rep_dim) for m in ring.rep],
    }
