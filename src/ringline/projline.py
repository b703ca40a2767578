"""The projective line over a finite ring with unity.

A pair (a, b) of ring elements is admissible when it is the first row of
some invertible 2x2 matrix over the ring.  Points of the line are the
equivalence classes of admissible pairs under left scaling by units,
(a, b) ~ (ua, ub); the canonical member of a class is its lexicographic
minimum.  Two points are distant when the 2x2 matrix stacking any two of
their representatives is invertible, neighbor otherwise.  The relation does
not depend on the chosen representatives.

With each entry replaced by its k x k GF(2) representation, a row pair
(a, b) becomes k packed rows of 2k bits; the matrix stacking (a, b) over
(c, d) is invertible exactly when both row pairs have rank k and their row
spans meet only in 0.  ``_row_spans`` gives each rank-k pair's span as a
bitmask over the nonzero vectors, so each such question is one AND.  The
line keeps that table, its units and its triple-witness keys as its parts;
only ``enumerate_line`` is cached, for rings that pass ``validate_ring``.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import or_
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import gf2
from .rings import Ring, RingElement, units, validate_ring

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


def _row_spans(ring: Ring) -> dict[Pair, int]:
    """Each pair whose k packed GF(2) rows have rank k, mapped to the bitmask
    of the nonzero vectors in its row span (bit v set for vector v)."""
    k, rep, spans = ring.rep_dim, ring.rep, {}
    for a, b in itertools.product(ring.elements(), repeat=2):
        rows = [rep[a][i] | (rep[b][i] << k) for i in range(k)]
        if gf2.rank(rows) == k:
            span = [0]
            for row in rows:
                span += [v ^ row for v in span]
            spans[(a, b)] = sum(1 << v for v in span[1:])
    return spans


def is_invertible_2x2(ring: Ring, m: Mat2) -> bool:
    """True when the blow-up of ``m`` has full rank 2k."""
    return gf2.rank(blowup(ring, m)) == 2 * ring.rep_dim


def is_admissible(ring: Ring, a: RingElement, b: RingElement) -> bool:
    """True when (a, b) extends to an invertible 2x2 matrix: lies on the line."""
    return (a, b) in enumerate_line(ring)._index_by_pair


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
    base; this subclass keeps an instance dict for its cached parts.
    """

    @cached_property
    def spans(self) -> dict[Pair, int]:
        """``_row_spans`` of the ring; ``enumerate_line`` seeds it."""
        return _row_spans(self.ring)

    @cached_property
    def units(self) -> tuple[RingElement, ...]:
        """The units of the ring, sorted."""
        return tuple(sorted(units(self.ring)))

    @cached_property
    def _bulk_keys(self) -> tuple[tuple[RingElement, ...], list, _BulkKeys | None]:
        """``units`` and ``_triple_keys`` of the line for them."""
        us = self.units
        return us, *_triple_keys(self, us)

    @cached_property
    def distant_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set when points i and j are distant."""
        return tuple(
            sum(1 << j for j, sign in enumerate(row) if sign == DISTANT)
            for row in self.relation
        )

    @cached_property
    def distant_triple_count(self) -> int:
        """The number of ordered triples of pairwise-distant points."""
        distant = self.distant_masks
        return sum((d & distant[j]).bit_count() for d in distant for j in gf2.bits(d))

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
    """Enumerate all points and the full distant/neighbor relation.  Raises
    ValueError, naming the first problem, for a ring that fails
    ``validate_ring``: the enumeration assumes the ring axioms."""
    problems = validate_ring(ring)
    if problems:
        raise ValueError(f"{ring.name} is not a ring: {problems[0]}")
    spans, us = _row_spans(ring), units(ring)
    # the admissible pairs: those whose span misses some other span
    orbits = {
        frozenset((ring.mul(u, a), ring.mul(u, b)) for u in us)
        for (a, b), top in spans.items()
        if any(not top & bot for bot in spans.values())
    }
    points = sorted((PointClass(min(o), o) for o in orbits), key=lambda pt: pt.canonical)
    masks = [spans[pt.canonical] for pt in points]
    rel = tuple(
        "".join(NEIGHBOR if top & bot else DISTANT for bot in masks) for top in masks
    )
    line = ProjectiveLine(ring, tuple(points), rel)
    line.spans = spans
    return line


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


def induced_neighbor_masks(line: ProjectiveLine, pts: Iterable[PointClass | Pair]) -> gf2.BitMatrix:
    """``line.neighbor_masks`` restricted to the distinct points ``pts``:
    bit b of entry a is set when ``pts[a]`` and ``pts[b]`` are neighbors."""
    return gf2.restrict(line.neighbor_masks, [line.index_of(_as_class(line, p).canonical) for p in pts])


def signs_graph(rows: Sequence[str], first: int = 0) -> Graph:
    """The graph on first..first+n-1 joining the points that ``rows`` marks
    neighbors; imports the quadrangle module only when called."""
    from .quadrangle import Graph

    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"a sign matrix of {n} rows needs {n} signs in each")
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


def mat_inv(ring: Ring, m: Mat2) -> Mat2:
    """Exact inverse via the bit-matrix representation."""
    k = ring.rep_dim
    inv = gf2.invert(blowup(ring, m), 2 * k)
    if inv is None:
        raise ValueError(f"{m} is not invertible over {ring.name}")
    mask = (1 << k) - 1
    look = {rep: x for x, rep in enumerate(ring.rep)}

    def block(i: int, j: int) -> RingElement:
        return look[tuple((inv[i * k + r] >> (j * k)) & mask for r in range(k))]

    return Mat2(block(0, 0), block(0, 1), block(1, 0), block(1, 1))


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


def _pack(high: bytes, low: bytes) -> bytes:
    """The bytes h << 4 | l of two equally long strings of values below 16."""
    packed = int.from_bytes(high, "big") << 4 | int.from_bytes(low, "big")
    return packed.to_bytes(len(high), "big")


def _table(entries: Iterable[int]) -> bytes:
    """The translate table sending byte x to ``entries[x]``, and to 0 past
    their end."""
    return bytes(entries).ljust(256, b"\0")


class _BulkKeys(NamedTuple):
    """The keys of the bulk pass for a line and a unit list.  A position is
    a (unit s, distant ordered pair (i, j)); the positions come in one block
    per unit, each holding the pairs in row order.  Ring elements x and y
    share a byte as x << 4 | y."""

    witnesses: dict[tuple[int, int], int]  # per pair, the points distant from both
    pair_points: tuple[bytes, bytes]  # the i, then the j, of each distant ordered pair (i, j)
    canonical: list[Pair]  # per point, its canonical pair
    row_pairs: list[Pair]  # the scaled rows, point by point
    rows: bytes  # the scaled rows packed
    row_points: bytes  # the point of each scaled row
    terms: bytes  # a << 4 | e per position, then b << 4 | f, for x_i = (a, b), s.y_j = (e, f)
    add: bytes  # the addition table on packed bytes
    classes: bytes  # a packed pair to its point, n for none
    one_hot: tuple[bytes, ...]  # per lane byte b, a point k to byte b of 1 << k
    expected: int  # the witness masks, pair p's in lane p


def _triple_keys(line: ProjectiveLine, us: tuple[RingElement, ...]) -> tuple[list, _BulkKeys | None]:
    """What the line keeps for ``distant_triple_witnesses`` and the units
    ``us``: each point's scaled rows (s, s.c, s.d) for its canonical pair
    (c, d), and the keys of the bulk pass, or None where that pass cannot
    decide: no distant pair, a ring of order above 16, a table entry outside
    the ring, or a distant pair with other than ``len(us)`` common distant
    points.  No class of a sum is kept."""
    ring, distant = line.ring, line.distant_masks
    mul, n, u = ring.mul_table, len(line.points), len(us)
    canonical = [pt.canonical for pt in line.points]
    scaled = [[(s, mul[s][c], mul[s][d]) for s in us] for c, d in canonical]
    pairs = [(i, j) for i, mask in enumerate(distant) for j in gf2.bits(mask)]
    boths = [distant[i] & distant[j] for i, j in pairs]
    elements = set(ring.elements())
    if (
        not pairs
        or ring.order > 16
        or not all(elements.issuperset(row) for row in ring.add_table + mul)
        or any(both.bit_count() != u for both in boths)
    ):
        return scaled, None
    # a block gathers i's canonical entry and j's scaled entry of each pair
    # by translating the pair's point bytes
    i_at, j_at = bytes(i for i, _ in pairs), bytes(j for _, j in pairs)
    terms = []
    for c in (0, 1):
        x_at = i_at.translate(_table(x[c] for x in canonical))
        terms += [_pack(x_at, j_at.translate(_table(r[t][c + 1] for r in scaled))) for t in range(u)]
    classes = bytearray([n]) * 256
    for (x, y), k in line._index_by_pair.items():
        classes[x << 4 | y] = k
    # a lane sums u one-hot bits below bit n + 1, which n + bit_length(u)
    # bits hold without a carry into the next lane
    width = (n + u.bit_length() + 7) // 8
    return scaled, _BulkKeys(
        dict(zip(pairs, boths)),
        (i_at, j_at),
        canonical,
        [(e, f) for rows in scaled for _, e, f in rows],
        bytes(e << 4 | f for rows in scaled for _, e, f in rows),
        bytes(j for j in range(n) for _ in us),
        b"".join(terms),
        _table(b"".join(bytes(row).ljust(16, b"\0") for row in ring.add_table)),
        bytes(classes),
        tuple(bytes(1 << (k & 7) if k >> 3 == b else 0 for k in range(256)) for b in range(width)),
        int.from_bytes(b"".join(both.to_bytes(width, "little") for both in boths), "little"),
    )


def _bulk_pass(spans: dict[Pair, int], keys: _BulkKeys) -> bool:
    """True when every (unit, distant pair) position is a witness, decided
    in a few passes over all positions at once; False on any doubt.

    Each canonical row's span must meet none of the spans of the scaled
    rows of the points distant from it, and each scaled row must lie in its
    own point's class.  The third points k come from one translate through
    the addition table, one shift-or and one translate to classes; each k
    becomes a one-hot lane 1 << k, and the lanes of each pair, summed over
    the unit blocks, must equal the mask of the points distant from both.
    That mask has one bit per unit, so the sum equals it only when the
    pair's third points are distinct and are exactly those points.
    """
    try:
        tops = list(map(spans.__getitem__, keys.canonical))
        row_spans = list(map(spans.__getitem__, keys.row_pairs))
        u = len(row_spans) // len(tops)
        reach = row_spans[::u]
        for t in range(1, u):
            reach = list(map(or_, reach, row_spans[t::u]))
        # each pair's top and the union of j's scaled spans, low bytes then
        # high bytes (a span past 16 bits is a ValueError), gathered as one int
        met = [
            int.from_bytes(at.translate(_table(map(byte, side))), "big")
            for at, side in zip(keys.pair_points, (tops, reach))
            for byte in ((255).__and__, (8).__rrshift__)
        ]
    except (KeyError, ValueError):
        return False
    if met[0] & met[2] or met[1] & met[3]:
        return False
    if keys.rows.translate(keys.classes) != keys.row_points:
        return False
    sums, half = keys.terms.translate(keys.add), len(keys.terms) // 2
    third = _pack(sums[:half], sums[half:]).translate(keys.classes)
    width = len(keys.one_hot)
    lanes = bytearray(half * width)
    for b, table in enumerate(keys.one_hot):
        lanes[b::width] = third.translate(table)
    block = len(keys.witnesses) * width
    total = sum(int.from_bytes(lanes[t : t + block], "little") for t in range(0, len(lanes), block))
    return total == keys.expected


def _witness_loop(line: ProjectiveLine, spans: dict[Pair, int], scaled: list) -> tuple[dict, list]:
    """The unit-by-unit check of every distant pair (i, j), naming each
    (i, j, s) that witnesses nothing, in row order and then unit order."""
    distant, index, add = line.distant_masks, line._index_by_pair, line.ring.add_table
    witnesses: dict[tuple[int, int], int] = {}
    failures: list[tuple[int, int, RingElement]] = []
    for i, mask in enumerate(distant):
        a, b = line.points[i].canonical
        top, add_a, add_b = spans.get((a, b), -1), add[a], add[b]
        for j in gf2.bits(mask):
            both, found = mask & distant[j], 0
            for s, e, f in scaled[j]:
                # a pair in no class gets n, a bit in no mask
                k = index.get((add_a[e], add_b[f]), len(distant))
                if both >> k & 1 and index.get((e, f)) == j and not top & spans.get((e, f), -1):
                    found |= 1 << k
                else:
                    failures.append((i, j, s))
            witnesses[i, j] = found
    return witnesses, failures


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
    distant from i and j.  The bulk pass checks every position at once
    against the row spans read on this call, with the line's keys for the
    units read on this call; when it has any doubt, the unit-by-unit loop
    checks every pair and names each (i, j, s) that fails.
    """
    spans, us = line.spans, line.units
    kept, scaled, keys = line._bulk_keys
    if kept != us:
        scaled, keys = _triple_keys(line, us)
    if keys is not None and _bulk_pass(spans, keys):
        return keys.witnesses.copy(), []
    return _witness_loop(line, spans, scaled)


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
    for ru in line.units:
        for su in line.units:
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
