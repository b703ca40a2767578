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
    "ring_from_json_dict",
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


def _ring_from_reps(name: str, rep_dim: int, reps: tuple[gf2.BitMatrix, ...]) -> Ring:
    # Tables are derived from the matrix arithmetic of ``reps``, which must be
    # closed under XOR and GF(2) matrix product.
    index = {m: i for i, m in enumerate(reps)}
    if len(index) != len(reps):
        raise ValueError(f"{name}: representation matrices are not distinct")
    order = len(reps)

    def look(m: gf2.BitMatrix, op: str, x: int, y: int) -> int:
        try:
            return index[m]
        except KeyError:
            raise ValueError(f"{name}: not closed under {op} at ({x}, {y})") from None

    add_table = tuple(
        tuple(look(gf2.add(reps[x], reps[y]), "addition", x, y) for y in range(order))
        for x in range(order)
    )
    mul_table = tuple(
        tuple(look(gf2.multiply(reps[x], reps[y]), "multiplication", x, y) for y in range(order))
        for x in range(order)
    )
    zero = index[tuple([0] * rep_dim)]
    one = index[gf2.identity(rep_dim)]
    return Ring(name, order, zero, one, add_table, mul_table, rep_dim, reps)


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


def ring_names() -> tuple[str, ...]:
    return tuple(_MODELS)


@lru_cache(maxsize=None)
def ring_by_name(name: str) -> Ring:
    """The named ring, built from its matrix model on first use."""
    try:
        rep_dim, matrices = _MODELS[name]
    except KeyError:
        raise ValueError(f"unknown ring {name!r}; choose from {', '.join(_MODELS)}") from None
    return _ring_from_reps(name, rep_dim, tuple(gf2.rows_from_lists(m) for m in matrices))


@lru_cache(maxsize=None)
def units(ring: Ring) -> frozenset[RingElement]:
    """Elements with a two-sided multiplicative inverse."""
    found = []
    for x in ring.elements():
        for y in ring.elements():
            if ring.mul(x, y) == ring.one and ring.mul(y, x) == ring.one:
                found.append(x)
                break
    return frozenset(found)


def zero_divisors(ring: Ring) -> frozenset[RingElement]:
    """Non-units, zero included."""
    return frozenset(ring.elements()) - units(ring)


def _cubic_laws_hold(add, mul, n: int) -> bool:
    """Whether both associative and both distributive laws hold on all n^3
    triples of two ``n x n`` tables with entries in ``range(n)``, n <= 256.

    Each table row and column becomes ``bytes``, and ``row.translate(table)``
    maps every label of one row through another row at once: for fixed
    (x, y) the rows over z give (x+y)+z, (xy)z and x(y+z); for fixed (y, z)
    the columns over x give (x+y)z.
    """
    pad = bytes(256 - n)
    add_rows, mul_rows = [bytes(r) for r in add], [bytes(r) for r in mul]
    add_cols, mul_cols = [bytes(c) for c in zip(*add)], [bytes(c) for c in zip(*mul)]
    add_map, mul_map = [r + pad for r in add_rows], [r + pad for r in mul_rows]
    add_col_map, mul_col_map = [c + pad for c in add_cols], [c + pad for c in mul_cols]
    for x in range(n):
        add_x, mul_x, to_add_x, to_mul_x = add_rows[x], mul_rows[x], add_map[x], mul_map[x]
        add_col_x = add_cols[x]
        for y in range(n):
            add_y, xy = add_rows[y], mul_x[y]
            if (
                add_rows[add_x[y]] != add_y.translate(to_add_x)
                or mul_rows[xy] != mul_rows[y].translate(to_mul_x)
                or add_y.translate(to_mul_x) != mul_x.translate(add_map[xy])
                or add_col_x.translate(mul_col_map[y]) != mul_cols[y].translate(add_col_map[xy])
            ):
                return False
    return True


def _rep_rows_to_scan(ring: Ring) -> list[int] | range:
    """The rows x of the tables on which rep may break + or x: none when it
    respects both on every pair, all when k*k > 8, n > 256 or some rep entry
    is not k rows of k bits.  ``code[x]`` packs rep[x] into a byte, row r at
    bit r*k.  Mapped to codes by ``bytes.translate``, row x of the addition
    table XOR the codes must be code[x] repeated, and row x of the
    multiplication table must be the codes mapped through M -> rep(x) M, a
    row of the product table built by linearity from the k*k matrix units.
    """
    k, n, rep = ring.rep_dim, ring.order, ring.rep
    if k * k > 8 or n > 256 or any(len(m) != k or any(r >> k for r in m) for m in rep):
        return range(n)
    size, low = 1 << k * k, (1 << k) - 1
    left = [0]  # left[a] as bytes maps code(M) to code(A M), A the matrix of code a
    for i, j in itertools.product(range(k), repeat=2):
        unit = bytes((c >> j * k & low) << i * k for c in range(size))  # row j of M to row i
        left += [t ^ int.from_bytes(unit, "little") for t in left]
    codes = [sum(r << i * k for i, r in enumerate(m)) for m in rep]
    to_code, code_row, pad = bytes(codes) + bytes(256 - n), bytes(codes), bytes(256 - size)
    code_int, ones = int.from_bytes(code_row, "little"), int.from_bytes(b"\x01" * n, "little")
    rows = []
    for x, c in enumerate(codes):
        sums = int.from_bytes(bytes(ring.add_table[x]).translate(to_code), "little") ^ code_int
        products = bytes(ring.mul_table[x]).translate(to_code)
        times_x = left[c].to_bytes(size, "little") + pad
        if sums != c * ones or products != code_row.translate(times_x):
            rows.append(x)
    return rows


def validate_ring(ring: Ring) -> list[str]:
    """Exhaustively check the ring axioms and the representation.

    Returns a list of violation strings, one per violated cell or triple;
    an empty list means the ring is valid.  Checks: abelian-group axioms for
    addition, two-sided multiplicative identity, associativity of both
    operations, both distributive laws, and that ``rep`` is a faithful
    unital homomorphism.

    The two associative and two distributive laws are first decided on every
    triple a table row at a time (``_cubic_laws_hold``); the triple-by-triple
    scan that words each violation runs only when some law fails there, or
    when the ring has more than 256 elements, which a byte row cannot label.
    Likewise the pair-by-pair representation scan runs only on the table
    rows that ``_rep_rows_to_scan`` cannot clear.
    """
    problems: list[str] = []
    n = ring.order
    rng = range(n)
    add, mul = ring.add_table, ring.mul_table

    if len(add) != n or any(len(row) != n for row in add):
        return [f"add_table is not {n}x{n}"]
    if len(mul) != n or any(len(row) != n for row in mul):
        return [f"mul_table is not {n}x{n}"]
    for x in rng:
        for y in rng:
            if not 0 <= add[x][y] < n:
                problems.append(f"add_table[{x}][{y}] = {add[x][y]} out of range")
            if not 0 <= mul[x][y] < n:
                problems.append(f"mul_table[{x}][{y}] = {mul[x][y]} out of range")
    if problems:
        return problems

    for x in rng:
        if add[ring.zero][x] != x or add[x][ring.zero] != x:
            problems.append(f"zero is not an additive identity at x={x}")
        if mul[ring.one][x] != x or mul[x][ring.one] != x:
            problems.append(f"one is not a multiplicative identity at x={x}")
        if all(add[x][y] != ring.zero for y in rng):
            problems.append(f"x={x} has no additive inverse")
    for x in rng:
        for y in rng:
            if add[x][y] != add[y][x]:
                problems.append(f"addition is not commutative at (x,y)=({x},{y})")
    if n > 256 or not _cubic_laws_hold(add, mul, n):
        for x in rng:
            add_x, mul_x = add[x], mul[x]
            for y in rng:
                add_y, mul_y, add_xy, mul_xy = add[y], mul[y], add[add_x[y]], mul[mul_x[y]]
                for z in rng:
                    if add_xy[z] != add_x[add_y[z]]:
                        problems.append(f"addition is not associative at (x,y,z)=({x},{y},{z})")
                    if mul_xy[z] != mul_x[mul_y[z]]:
                        problems.append(f"multiplication is not associative at (x,y,z)=({x},{y},{z})")
                    if mul_x[add_y[z]] != add[mul_x[y]][mul_x[z]]:
                        problems.append(f"left distributivity fails at (x,y,z)=({x},{y},{z})")
                    if mul[add_x[y]][z] != add[mul_x[z]][mul_y[z]]:
                        problems.append(f"right distributivity fails at (x,y,z)=({x},{y},{z})")

    if len(ring.rep) != n:
        problems.append("rep does not cover every element")
        return problems
    if len(set(ring.rep)) != n:
        problems.append("rep is not injective")
    if ring.rep[ring.one] != gf2.identity(ring.rep_dim):
        problems.append("rep(one) is not the identity matrix")
    if any(ring.rep[ring.zero]):
        problems.append("rep(zero) is not the zero matrix")
    return problems + _rep_pair_problems(ring)


def _rep_pair_problems(ring: Ring) -> list[str]:
    """Where rep breaks + or x, pair by pair, on the table rows that
    ``_rep_rows_to_scan`` cannot clear."""
    rep, add, mul = ring.rep, ring.add_table, ring.mul_table
    problems = []
    for x in _rep_rows_to_scan(ring):
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


def ring_from_json_dict(doc: dict) -> Ring:
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported ring document schema: {doc.get('schema')!r}")
    return Ring(
        name=doc["name"],
        order=doc["order"],
        zero=doc["zero"],
        one=doc["one"],
        add_table=tuple(tuple(row) for row in doc["add_table"]),
        mul_table=tuple(tuple(row) for row in doc["mul_table"]),
        rep_dim=doc["rep_dim"],
        rep=tuple(gf2.rows_from_lists(m) for m in doc["rep"]),
    )
