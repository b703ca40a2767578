"""The projective line over a finite ring with unity.

A pair (a, b) of ring elements is admissible when it is the first row of
some invertible 2x2 matrix over the ring.  Points of the line are the
equivalence classes of admissible pairs under left scaling by units,
(a, b) ~ (ua, ub); the canonical member of a class is its lexicographic
minimum.  Two points are distant when the 2x2 matrix stacking any two of
their representatives is invertible, neighbor otherwise.  The relation does
not depend on the chosen representatives.

Every invertibility question is answered from one cached table.  With each
entry replaced by its k x k GF(2) representation, a row pair (a, b) becomes
k packed rows of 2k bits; the matrix stacking (a, b) over (c, d) is
invertible exactly when both row pairs have rank k and their row spans meet
only in 0.  ``_row_spans`` keeps, for each rank-k pair, its span as a
bitmask over the nonzero vectors, so each such question is one AND.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import gf2
from .rings import Ring, RingElement, units

if TYPE_CHECKING:
    from .quadrangle import Graph

__all__ = [
    "DISTANT",
    "NEIGHBOR",
    "Pair",
    "Mat2",
    "PointClass",
    "ProjectiveLine",
    "blowup",
    "is_invertible_2x2",
    "is_admissible",
    "enumerate_line",
    "simultaneous_subconfig",
    "induced_signs",
    "induced_neighbor_masks",
    "signs_graph",
    "apply_to_pair",
    "mat_mul",
    "mat_inv",
    "gl2_elements",
    "distant_triple_witnesses",
    "map_standard_triple_to",
    "gl2_transitivity_witness",
    "line_to_json_dict",
]

DISTANT = "+"
NEIGHBOR = "-"

Pair = tuple[RingElement, RingElement]


class Mat2(NamedTuple):
    """A 2x2 matrix over a ring, row-major: ((a, b), (c, d))."""

    a: RingElement
    b: RingElement
    c: RingElement
    d: RingElement


def blowup(ring: Ring, m: Mat2) -> gf2.BitMatrix:
    """The 2k x 2k bit matrix obtained by replacing entries by their reps."""
    k = ring.rep_dim
    rep = ring.rep
    top = tuple(rep[m.a][i] | (rep[m.b][i] << k) for i in range(k))
    bot = tuple(rep[m.c][i] | (rep[m.d][i] << k) for i in range(k))
    return top + bot


@lru_cache(maxsize=None)
def _row_spans(ring: Ring) -> dict[Pair, int]:
    """Each pair whose k packed GF(2) rows have rank k, mapped to the bitmask
    of the nonzero vectors in its row span (bit v set for vector v)."""
    k = ring.rep_dim
    rep = ring.rep
    spans = {}
    for a in ring.elements():
        for b in ring.elements():
            rows = [rep[a][i] | (rep[b][i] << k) for i in range(k)]
            if gf2.rank(rows) == k:
                span = [0]
                for row in rows:
                    span += [v ^ row for v in span]
                spans[(a, b)] = sum(1 << v for v in span[1:])
    return spans


def is_invertible_2x2(ring: Ring, m: Mat2) -> bool:
    """True when both row pairs are in the row-span table and their spans
    meet only in 0."""
    spans = _row_spans(ring)
    top = spans.get((m.a, m.b))
    bot = spans.get((m.c, m.d))
    return top is not None and bot is not None and not top & bot


@lru_cache(maxsize=None)
def _admissible(ring: Ring) -> frozenset[Pair]:
    spans = _row_spans(ring)
    return frozenset(
        p for p, top in spans.items() if any(not top & bot for bot in spans.values())
    )


def is_admissible(ring: Ring, a: RingElement, b: RingElement) -> bool:
    """True when (a, b) extends to an invertible 2x2 matrix."""
    return (a, b) in _admissible(ring)


class PointClass(NamedTuple):
    """One point: its lexicographically least pair and the whole unit orbit."""

    canonical: Pair
    members: frozenset[Pair]

    def __repr__(self) -> str:
        return f"PointClass{self.canonical}"


class _LineFields(NamedTuple):
    ring: Ring
    points: tuple[PointClass, ...]
    relation: tuple[str, ...]


class ProjectiveLine(_LineFields):
    """All points of the line over ``ring``, sorted by canonical pair.

    ``relation[i][j]`` is "+" (distant) or "-" (neighbor) for the points at
    positions i and j; the diagonal is "-".  The fields live in a NamedTuple
    base; this subclass keeps an instance dict for its cached indexes.
    """

    @cached_property
    def distant_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set when points i and j are distant."""
        return tuple(
            sum(1 << j for j, sign in enumerate(row) if sign == DISTANT)
            for row in self.relation
        )

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set when points i != j are neighbors: the
        adjacency masks of the neighbor graph on 0..n-1."""
        return tuple(
            sum(1 << j for j, sign in enumerate(row) if sign == NEIGHBOR and j != i)
            for i, row in enumerate(self.relation)
        )

    @cached_property
    def _index_by_pair(self) -> dict[Pair, int]:
        out: dict[Pair, int] = {}
        for i, pt in enumerate(self.points):
            for member in pt.members:
                out[member] = i
        return out

    def index_of(self, pair: Pair) -> int:
        try:
            return self._index_by_pair[pair]
        except KeyError:
            raise ValueError(f"{pair} is not an admissible pair over {self.ring.name}") from None

    def class_of(self, pair: Pair) -> PointClass:
        return self.points[self.index_of(pair)]

    def relation_of(self, x: PointClass | Pair, y: PointClass | Pair) -> str:
        i = self.index_of(x.canonical if isinstance(x, PointClass) else x)
        j = self.index_of(y.canonical if isinstance(y, PointClass) else y)
        return self.relation[i][j]


@lru_cache(maxsize=None)
def enumerate_line(ring: Ring) -> ProjectiveLine:
    """Enumerate all points and the full distant/neighbor relation."""
    us = units(ring)
    orbits = {
        frozenset((ring.mul(u, a), ring.mul(u, b)) for u in us)
        for a, b in _admissible(ring)
    }
    points = sorted((PointClass(min(o), o) for o in orbits), key=lambda pt: pt.canonical)
    spans = _row_spans(ring)
    masks = [spans[pt.canonical] for pt in points]
    rel = tuple(
        "".join(NEIGHBOR if top & bot else DISTANT for bot in masks) for top in masks
    )
    return ProjectiveLine(ring, tuple(points), rel)


def _as_class(line: ProjectiveLine, p: PointClass | Pair) -> PointClass:
    return p if isinstance(p, PointClass) else line.class_of(p)


def _orbit_key(pt: PointClass) -> tuple[int, int, Pair]:
    # Representative-independent sort key: least first entry over the orbit,
    # least second entry over the orbit, canonical pair as tie-break.
    return (
        min(a for a, _ in pt.members),
        min(b for _, b in pt.members),
        pt.canonical,
    )


def simultaneous_subconfig(
    line: ProjectiveLine, u: PointClass | Pair, v: PointClass | Pair
) -> tuple[tuple[PointClass, ...], tuple[PointClass, ...]]:
    """Split the rest of the line by the relation to two distant base points.

    Returns (distant_family, neighbor_family): the points distant to both
    ``u`` and ``v``, and the points neighbor to both.  Points related
    differently to ``u`` than to ``v`` appear in neither family.  Each
    family is sorted by an orbit-derived key (least first entry over the
    orbit, then least second entry, then canonical pair); for the standard
    base points over m2f2 this is exactly the C1..C15 order the sign-matrix
    fixture is written in.  Raises ValueError unless ``u`` and ``v`` are
    distant.
    """
    u = _as_class(line, u)
    v = _as_class(line, v)
    if u == v or line.relation_of(u, v) != DISTANT:
        raise ValueError("the two base points must be distinct and distant")
    distant: list[PointClass] = []
    neighbor: list[PointClass] = []
    for pt in line.points:
        if pt == u or pt == v:
            continue
        ru = line.relation_of(pt, u)
        rv = line.relation_of(pt, v)
        if ru == DISTANT and rv == DISTANT:
            distant.append(pt)
        elif ru == NEIGHBOR and rv == NEIGHBOR:
            neighbor.append(pt)
    distant.sort(key=_orbit_key)
    neighbor.sort(key=_orbit_key)
    return tuple(distant), tuple(neighbor)


def induced_signs(line: ProjectiveLine, pts: Iterable[PointClass | Pair]) -> tuple[str, ...]:
    """The relation matrix restricted to ``pts``, in the given order."""
    idx = [line.index_of(_as_class(line, p).canonical) for p in pts]
    return tuple("".join(line.relation[i][j] for j in idx) for i in idx)


def induced_neighbor_masks(line: ProjectiveLine, pts: Iterable[PointClass | Pair]) -> list[int]:
    """``line.neighbor_masks`` restricted to the distinct points ``pts``:
    bit b of entry a is set when ``pts[a]`` and ``pts[b]`` are neighbors."""
    idx = [line.index_of(_as_class(line, p).canonical) for p in pts]
    masks = line.neighbor_masks
    return [sum(1 << b for b, j in enumerate(idx) if masks[i] >> j & 1) for i in idx]


def signs_graph(rows: Sequence[str], first: int = 0) -> Graph:
    """The graph on first..first+n-1 joining the points that ``rows`` marks
    neighbors; imports the quadrangle module only when called."""
    from .quadrangle import Graph

    n = len(rows)
    pairs = itertools.combinations(range(n), 2)
    edges = [(i + first, j + first) for i, j in pairs if rows[i][j] == NEIGHBOR]
    return Graph.from_edges(range(first, first + n), edges)


def apply_to_pair(ring: Ring, p: Pair, m: Mat2) -> Pair:
    """Right action of a matrix on a row pair: (a, b) . m."""
    a, b = p
    return (
        ring.add(ring.mul(a, m.a), ring.mul(b, m.c)),
        ring.add(ring.mul(a, m.b), ring.mul(b, m.d)),
    )


def mat_mul(ring: Ring, m: Mat2, n: Mat2) -> Mat2:
    return Mat2(
        ring.add(ring.mul(m.a, n.a), ring.mul(m.b, n.c)),
        ring.add(ring.mul(m.a, n.b), ring.mul(m.b, n.d)),
        ring.add(ring.mul(m.c, n.a), ring.mul(m.d, n.c)),
        ring.add(ring.mul(m.c, n.b), ring.mul(m.d, n.d)),
    )


@lru_cache(maxsize=None)
def _rep_index(ring: Ring) -> dict[gf2.BitMatrix, RingElement]:
    return {m: x for x, m in enumerate(ring.rep)}


def mat_inv(ring: Ring, m: Mat2) -> Mat2:
    """Exact inverse via the bit-matrix representation."""
    k = ring.rep_dim
    inv = gf2.invert(blowup(ring, m), 2 * k)
    if inv is None:
        raise ValueError(f"{m} is not invertible over {ring.name}")
    mask = (1 << k) - 1
    look = _rep_index(ring)

    def block(i: int, j: int) -> RingElement:
        return look[tuple((inv[i * k + r] >> (j * k)) & mask for r in range(k))]

    return Mat2(block(0, 0), block(0, 1), block(1, 0), block(1, 1))


@lru_cache(maxsize=None)
def gl2_elements(ring: Ring) -> tuple[Mat2, ...]:
    """All invertible 2x2 matrices over the ring, sorted: every pair of
    row-span table entries whose spans meet only in 0.  A test oracle; the
    group order is certified by ``distant_triple_witnesses`` instead."""
    spans = _row_spans(ring)
    # the table is keyed in ascending pair order, so the output is sorted
    return tuple(
        Mat2(a, b, c, d)
        for (a, b), top in spans.items()
        for (c, d), bot in spans.items()
        if not top & bot
    )


@lru_cache(maxsize=None)
def _triple_tables(line: ProjectiveLine, us: tuple[RingElement, ...]) -> tuple[list, list, list]:
    """What ``distant_triple_witnesses`` reads of the line and the units
    ``us`` alone: the bit of the class of every pair (bit n, in no mask, for
    a pair in none), each point's scaled rows (s, s.c, s.d) for its
    canonical pair (c, d), and whether all of a point's scaled rows lie in
    its own class."""
    ring, n, index = line.ring, len(line.points), line._index_by_pair
    mul, canonical = ring.mul_table, [pt.canonical for pt in line.points]
    bit_of = [[1 << index.get((a, b), n) for b in ring.elements()] for a in ring.elements()]
    scaled = [[(s, mul[s][c], mul[s][d]) for s in us] for c, d in canonical]
    in_class = [all(bit_of[e][f] == 1 << j for _, e, f in rows) for j, rows in enumerate(scaled)]
    return bit_of, scaled, in_class


def distant_triple_witnesses(
    line: ProjectiveLine,
) -> tuple[dict[tuple[int, int], int], list[tuple]]:
    """The pairwise-distant triples (i, j, k) of point indices witnessed as
    images of (1,0), (0,1), (1,1), and each (i, j, s) that witnesses none.

    The triples come as one bitmask per distant ordered pair: bit k of
    ``witnesses[i, j]`` is set when (i, j, k) is witnessed.

    For each distant pair (i, j), with canonical pairs x0 and y0, and each
    unit s, the matrix with rows x0 and s.y0 is a witness when its row spans
    meet only in 0, s.y0 lies in class j, and the class k of x0 + s.y0 is
    distant from i and j.  A pair is accepted in one pass when all of j's
    scaled rows lie in class j, x0's span meets none of theirs and every k
    is distant from both; otherwise the unit-by-unit loop names each s that
    fails.
    """
    ring, distant = line.ring, line.distant_masks
    spans, add = _row_spans(ring), ring.add_table
    bit_of, scaled, in_class = _triple_tables(line, tuple(sorted(units(ring))))
    # the spans of each point's scaled rows ORed; a pair without full rank
    # gets span -1, which meets every span
    span_or = [reduce(or_, (spans.get((e, f), -1) for _, e, f in row), 0) for row in scaled]
    witnesses: dict[tuple[int, int], int] = {}
    failures: list[tuple[int, int, RingElement]] = []
    for i, mask in enumerate(distant):
        a, b = line.points[i].canonical
        top, add_a, add_b = spans.get((a, b), -1), add[a], add[b]
        for j in gf2.bits(mask):
            both, rows, found = mask & distant[j], scaled[j], 0
            for _, e, f in rows:
                found |= bit_of[add_a[e]][add_b[f]]
            if found & ~both or top & span_or[j] or not in_class[j]:
                found = 0
                for s, e, f in rows:
                    bit = bit_of[add_a[e]][add_b[f]]
                    if both & bit and bit_of[e][f] == 1 << j and not top & spans.get((e, f), -1):
                        found |= bit
                    else:
                        failures.append((i, j, s))
            witnesses[i, j] = found
    return witnesses, failures


def map_standard_triple_to(
    line: ProjectiveLine, triple: tuple[PointClass | Pair, ...]
) -> Mat2:
    """A matrix sending (1,0), (0,1), (1,1) to the given distant triple.

    Any matrix fixing the first two correspondences has rows that are unit
    multiples of representatives of the two target points, so searching the
    unit scalings is a complete search.  Raises ValueError if the triple is
    not pairwise distant or no scaling works (either would contradict the
    transitivity of the invertible group on distant triples).  A test oracle
    for ``distant_triple_witnesses``.
    """
    ring = line.ring
    x, y, z = (_as_class(line, p) for p in triple)
    for p, q in itertools.combinations((x, y, z), 2):
        if p == q or line.relation_of(p, q) != DISTANT:
            raise ValueError("triple must consist of three pairwise distant points")
    (x0, x1), (y0, y1) = x.canonical, y.canonical
    for ru in sorted(units(ring)):
        for su in sorted(units(ring)):
            m = Mat2(ring.mul(ru, x0), ring.mul(ru, x1), ring.mul(su, y0), ring.mul(su, y1))
            if (ring.add(m.a, m.c), ring.add(m.b, m.d)) in z.members:
                return m
    raise ValueError(f"no matrix maps the standard triple to {triple}")


def gl2_transitivity_witness(
    line: ProjectiveLine,
    triple1: tuple[PointClass | Pair, ...],
    triple2: tuple[PointClass | Pair, ...],
) -> Mat2:
    """An invertible matrix sending triple1 to triple2 pointwise.

    Both triples must be pairwise distant.  The witness is verified before
    it is returned.
    """
    ring = line.ring
    g1 = map_standard_triple_to(line, triple1)
    g2 = map_standard_triple_to(line, triple2)
    w = mat_mul(ring, mat_inv(ring, g1), g2)
    for p, q in zip(triple1, triple2, strict=True):
        src = _as_class(line, p)
        dst = _as_class(line, q)
        if apply_to_pair(ring, src.canonical, w) not in dst.members:
            raise ValueError(f"witness {w} fails to map {src} to {dst}")
    return w


def line_to_json_dict(line: ProjectiveLine) -> dict:
    """JSON document: points with orbits, plus the lower-triangular relation."""
    return {
        "schema": 1,
        "ring": line.ring.name,
        "points": [
            {
                "id": i,
                "canonical": list(pt.canonical),
                "orbit": [list(p) for p in sorted(pt.members)],
            }
            for i, pt in enumerate(line.points)
        ],
        "relation": [list(row[: i + 1]) for i, row in enumerate(line.relation)],
    }
