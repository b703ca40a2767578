"""Point-line incidence geometry for the generalized quadrangle of order two.

The structure is recovered from a collinearity graph whose edges each lie on
exactly one triangle (the triangles are the lines), then validated against
the quadrangle axioms.  Also here: geometric hyperplanes (ovoids, perp sets,
grids) from a GF(2) kernel, spreads by exact cover, duality, the Petersen
graph, and a small backtracking graph-isomorphism search on adjacency
bitmasks (no external canonical-labeling dependency; instances never exceed
16 vertices).
"""

from __future__ import annotations

import itertools
from array import array
from functools import cached_property, lru_cache
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from . import gf2

__all__ = [
    "Graph",
    "triangles",
    "IncidenceStructure",
    "build_gq_from_graph",
    "validate_gq_axioms",
    "is_strongly_regular",
    "Hyperplane",
    "OVOID",
    "PERP_SET",
    "GRID",
    "enumerate_ovoids",
    "enumerate_hyperplanes",
    "enumerate_spreads",
    "hyperplane_catalog",
    "petersen_graph",
    "is_petersen",
    "graph_isomorphism",
    "mask_isomorphism",
    "MaskMapping",
    "mask_maps_onto",
    "dual",
]

Vertex = Hashable


class _GraphFields(NamedTuple):
    vertices: tuple
    edges: frozenset[frozenset]


class Graph(_GraphFields):
    """An undirected graph with hashable vertices; immutable.  The fields
    live in a NamedTuple base; this subclass keeps an instance dict for the
    cached adjacency."""

    @classmethod
    def from_edges(cls, vertices: Iterable[Vertex], edges: Iterable) -> Graph:
        """The graph, checked: ValueError for an edge that is no pair of vertices."""
        g = cls(tuple(vertices), frozenset(map(frozenset, edges)))
        g.adjacency  # built now, so that a bad edge raises here
        return g

    @cached_property
    def adjacency(self) -> dict:
        """Each vertex -> its neighbors; ValueError for an edge that is no
        pair of vertices."""
        adj: dict = {v: set() for v in self.vertices}
        for e in self.edges:
            if len(e) != 2 or not e <= adj.keys():
                raise ValueError(f"edge {sorted(e, key=str)} is no pair of vertices")
            u, v = e
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The adjacency masks over vertex positions, in vertex order."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        return tuple(sum(1 << pos[u] for u in self.adjacency[v]) for v in self.vertices)

    @cached_property
    def triangle_count(self) -> int:
        return len(triangles(self))

    def neighbors(self, v: Vertex) -> frozenset:
        return self.adjacency[v]

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self.adjacency.get(u, ())

    def sorted_edges(self) -> list[tuple]:
        """The edges as vertex pairs, by the positions of their ends: read
        off ``masks``, so an edge that is no pair of vertices raises ValueError."""
        verts, masks = self.vertices, self.masks
        return [(verts[i], verts[j]) for i, m in enumerate(masks) for j in gf2.bits(m >> i + 1 << i + 1)]


def triangles(g: Graph) -> list[frozenset]:
    """All 3-cliques, each listed once."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    out = []
    for u, v in g.sorted_edges():
        for w in g.neighbors(u) & g.neighbors(v):
            if pos[w] > pos[v]:
                out.append(frozenset((u, v, w)))
    return out


class _StructureFields(NamedTuple):
    points: tuple
    lines: tuple[frozenset, ...]


class IncidenceStructure(_StructureFields):
    """Points plus lines (each line a frozenset of points).  The fields live
    in a NamedTuple base; this subclass keeps an instance dict for the cached
    pencils, collinearity graph and dual."""

    @cached_property
    def dual_structure(self) -> IncidenceStructure:
        """``dual(self)``, built on first use and kept with the structure."""
        return dual(self)

    @cached_property
    def _lines_by_point(self) -> dict:
        out: dict = {p: [] for p in self.point_bits}
        for i, line in enumerate(self.lines):
            for p in line:
                out[p].append(i)
        return {p: tuple(ids) for p, ids in out.items()}

    def line_indices(self, indices: Iterable[int]) -> tuple[int, ...]:
        """``indices``, as a spread names its lines, checked: ValueError for
        one that names no line."""
        indices, n = tuple(indices), len(self.lines)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} of {list(indices)} names no line of the {n} of the quadrangle")
        return indices

    def lines_through(self, p: Vertex) -> tuple[int, ...]:
        return self._lines_by_point[p]

    @cached_property
    def pencil_masks(self) -> tuple[int, ...]:
        """Each point's pencil as a mask over line indices, in point order."""
        return tuple(sum(1 << i for i in self.lines_through(p)) for p in self.points)

    @cached_property
    def cover_index(self) -> dict[int, list[tuple[int, int]]]:
        """Each line bit -> the pencils that hold it, each with its point's
        bit: (pencil mask, 1 << point position)."""
        return _containing(self.pencil_masks, len(self.lines))

    def ovoid_masks(self) -> list[int]:
        """The ovoids as masks over point positions, unordered: searched on
        every call, on the kept cover index."""
        return _exact_covers(self.cover_index, (1 << len(self.lines)) - 1)

    @cached_property
    def point_bits(self) -> dict:
        """Each point -> its bit, 1 << its position in ``points``: the bit
        every point mask of the structure gives it.  ValueError unless the
        points are distinct and hold the points of every line."""
        bits = {p: 1 << i for i, p in enumerate(self.points)}
        if len(bits) != len(self.points):
            raise ValueError(f"{len(self.points)} points listed, {len(bits)} distinct")
        for i, line in enumerate(self.lines):
            if not line <= bits.keys():
                raise ValueError(f"line {i} holds {sorted(line - bits.keys(), key=str)}, which are no points")
        return bits

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        """Each line as a mask over point positions, in line order."""
        return tuple(sum(map(self.point_bits.__getitem__, line)) for line in self.lines)

    @cached_property
    def collinearity_graph(self) -> Graph:
        """Points joined when they share a line, built on first use."""
        edges = set()
        for line in self.lines:
            for u, v in itertools.combinations(sorted(line, key=str), 2):
                edges.add(frozenset((u, v)))
        return Graph(self.points, frozenset(edges))


def build_gq_from_graph(g: Graph) -> IncidenceStructure:
    """Recover the quadrangle whose collinearity graph is ``g``.

    Lines are the triangles of the graph; every edge must lie on exactly
    one triangle, and the resulting structure must pass the order-two
    quadrangle axioms.  Raises ValueError otherwise.
    """
    # an edge lies on as many triangles as its endpoints have common neighbours
    cover = {e: len(frozenset.intersection(*(g.neighbors(v) for v in e))) for e in g.edges}
    bad = sorted(sorted(e, key=str) for e, n in cover.items() if n != 1)
    if bad:
        e = bad[0]
        raise ValueError(f"edge {tuple(e)} lies on {cover[frozenset(e)]} triangles, expected 1")
    pos = {v: i for i, v in enumerate(g.vertices)}
    lines = tuple(sorted(triangles(g), key=lambda t: sorted(pos[p] for p in t)))
    s = IncidenceStructure(g.vertices, lines)
    problems = validate_gq_axioms(s)
    if problems:
        raise ValueError("not a generalized quadrangle: " + "; ".join(problems))
    return s


def validate_gq_axioms(s: IncidenceStructure) -> list[str]:
    """Check the order-two generalized quadrangle axioms.

    Three points per line, three lines per point, two points on at most one
    common line, and for every non-incident point-line pair exactly one
    point of the line collinear with the point.  Returns violation strings.

    The work is on masks over point positions: a point's collinear points
    (itself excluded) are the union of the lines through it, which has as
    many points as those lines hold besides it exactly when no second point
    shares two of them; and each point off a line sees exactly one of its
    points exactly when it lies in exactly one of their collinear sets.
    Where a test fails, the pairs of points, or the points off that line,
    are scanned one by one to list the problems in order.
    """
    masks, points = s.line_masks, s.points
    problems = [
        f"line {i} has {len(line)} points, expected 3" for i, line in enumerate(s.lines) if len(line) != 3
    ]
    pencils = [s.lines_through(p) for p in points]
    problems += [
        f"point {p} lies on {len(ids)} lines, expected 3" for p, ids in zip(points, pencils) if len(ids) != 3
    ]
    perp, shared = [], False
    for j, ids in enumerate(pencils):
        union = others = 0
        for i in ids:
            union |= masks[i]
            others += masks[i].bit_count() - 1
        perp.append(union & ~(1 << j))
        shared = shared or others != perp[j].bit_count()
    if shared:
        bits = s.pencil_masks
        for (a, p), (b, q) in itertools.combinations(enumerate(points), 2):
            common = (bits[a] & bits[b]).bit_count()
            if common > 1:
                problems.append(f"points {p} and {q} lie on {common} common lines")
    full = (1 << len(points)) - 1
    for i, line in enumerate(masks):
        once = twice = 0
        rest = line
        while rest:
            seen = perp[(rest & -rest).bit_length() - 1]
            twice |= once & seen
            once ^= seen
            rest &= rest - 1
        if not full & ~line & ~(once & ~twice):
            continue
        for j, p in enumerate(points):
            if not line >> j & 1:
                met = (line & perp[j]).bit_count()
                if met != 1:
                    problems.append(f"point {p} sees {met} points of line {i}, expected exactly 1")
    return problems


def is_strongly_regular(g: Graph, n: int, k: int, lam: int, mu: int) -> bool:
    """Exhaustive strongly-regular-graph parameter check, on ``g.masks``."""
    masks = g.masks
    if len(masks) != n or any(m.bit_count() != k for m in masks):
        return False
    for i, m in enumerate(masks):
        for j in range(i + 1, n):
            if (m & masks[j]).bit_count() != (lam if m >> j & 1 else mu):
                return False
    return True


OVOID = "ovoid"
PERP_SET = "perp_set"
GRID = "grid"

_KIND_ORDER = {OVOID: 0, PERP_SET: 1, GRID: 2}


class Hyperplane(NamedTuple):
    """A point set met by every line in exactly one point or contained fully.

    ``kind`` is one of "ovoid", "perp_set", "grid"; perp sets carry their
    center.
    """

    kind: str
    points: frozenset
    center: Vertex | None = None


def _sorted_points(s: IncidenceStructure, pts: Iterable) -> tuple:
    pos = {p: i for i, p in enumerate(s.points)}
    return tuple(sorted(pts, key=pos.__getitem__))


def _containing(blocks: Sequence[int], width: int) -> dict[int, list[tuple[int, int]]]:
    """Each of the low ``width`` bits -> the (block, 1 << block index) pairs
    of the ``blocks`` masks that hold it, in block order."""
    return {1 << j: [(m, 1 << i) for i, m in enumerate(blocks) if m >> j & 1] for j in range(width)}


def _exact_covers(containing: Mapping[int, Sequence[tuple[int, int]]], universe: int) -> list[int]:
    """Every set of blocks that, as bitmasks, partition the bits of
    ``universe``, each as the OR of the blocks' own bits, in the order
    found; ``containing`` maps each bit to the (block, own bit) pairs of
    the blocks that hold it.  Depth first on the lowest uncovered bit; a
    stack entry is the uncovered mask and the blocks used."""
    out: list[int] = []
    stack = [(universe, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        remaining, used = pop()
        if not remaining:
            out.append(used)
            continue
        for block, bit in containing.get(remaining & -remaining, ()):
            if block & remaining == block:
                push((remaining ^ block, used | bit))
    return out


def enumerate_ovoids(s: IncidenceStructure) -> tuple[Hyperplane, ...]:
    """All point sets meeting every line exactly once, in the order of their
    points' positions: the exact covers of the lines by point pencils."""
    covers = sorted(tuple(gf2.bits(m)) for m in s.ovoid_masks())
    return tuple(Hyperplane(OVOID, frozenset(s.points[i] for i in cover)) for cover in covers)


def _classify_hyperplane(s: IncidenceStructure, pts: frozenset) -> Hyperplane:
    contained = [line for line in s.lines if line <= pts]
    if len(pts) == 5 and not contained:
        return Hyperplane(OVOID, pts)
    if len(pts) == 7:
        g = s.collinearity_graph
        for x in pts:
            if pts == g.neighbors(x) | {x}:
                return Hyperplane(PERP_SET, pts, center=x)
    if len(pts) == 9 and len(contained) == 6:
        if all(sum(1 for line in contained if p in line) == 2 for p in pts):
            return Hyperplane(GRID, pts)
    raise ValueError(f"hyperplane {sorted(pts, key=str)} fits no known kind")


def enumerate_hyperplanes(s: IncidenceStructure) -> tuple[Hyperplane, ...]:
    """All proper geometric hyperplanes, classified and sorted by kind.

    With three points per line, a set meets every line in 1 or 3 points
    exactly when its complement meets every line in an even number, so the
    complements are the nonzero vectors of the GF(2) kernel of the
    line-point incidence matrix.
    """
    if any(len(line) != 3 for line in s.lines):
        raise ValueError("hyperplanes from the kernel need three points per line")
    span = [0]
    for vec in gf2.kernel(s.line_masks, len(s.points)):
        span += [v ^ vec for v in span]
    planes = [
        _classify_hyperplane(s, frozenset(p for i, p in enumerate(s.points) if not comp >> i & 1))
        for comp in span[1:]
    ]
    planes.sort(key=lambda h: (_KIND_ORDER[h.kind], _sorted_points(s, h.points)))
    return tuple(planes)


def enumerate_spreads(s: IncidenceStructure) -> tuple[tuple[int, ...], ...]:
    """All partitions of the points into pairwise-disjoint lines, as sorted
    tuples of line indices: the exact covers of the points by lines."""
    covers = _exact_covers(_containing(s.line_masks, len(s.points)), (1 << len(s.points)) - 1)
    return tuple(sorted(tuple(gf2.bits(m)) for m in covers))


def hyperplane_catalog(planes: Iterable[Hyperplane], spreads: Iterable[Sequence[int]]) -> dict:
    """The ovoids, perp sets (with their centers) and grids of ``planes``,
    each kind in the order given and each as sorted points, then the
    spreads as lists of line indices."""
    kinds: dict = {OVOID: [], PERP_SET: [], GRID: []}
    for h in planes:
        if h.kind not in kinds:
            raise ValueError(f"unknown hyperplane kind {h.kind!r}")
        points = sorted(h.points)
        kinds[h.kind].append({"center": h.center, "points": points} if h.kind == PERP_SET else points)
    return {"ovoids": kinds[OVOID], "perp_sets": kinds[PERP_SET], "grids": kinds[GRID],
            "spreads": [list(sp) for sp in spreads]}


@lru_cache(maxsize=None)
def petersen_graph() -> Graph:
    """The standard model: 2-subsets of a 5-set, edges between disjoint pairs."""
    verts = tuple(itertools.combinations(range(5), 2))
    edges = [
        (u, v)
        for u, v in itertools.combinations(verts, 2)
        if not set(u) & set(v)
    ]
    return Graph.from_edges(verts, edges)


def is_petersen(g: Graph) -> bool:
    """10 vertices, 3-regular, plus an explicit isomorphism onto
    ``petersen_graph()``, which also proves girth 5."""
    if len(g.vertices) != 10 or any(g.degree(v) != 3 for v in g.vertices):
        return False
    return graph_isomorphism(g, petersen_graph()) is not None


def graph_isomorphism(g: Graph, h: Graph) -> dict | None:
    """A vertex bijection preserving adjacency both ways, or None:
    ``mask_isomorphism`` on the adjacency masks of each graph in its vertex
    order, mapped back to vertices."""
    iso = mask_isomorphism(g.masks, h.masks)
    return None if iso is None else {g.vertices[i]: h.vertices[w] for i, w in iso.items()}


def mask_isomorphism(gadj: Sequence[int], hadj: Sequence[int]) -> dict[int, int] | None:
    """An isomorphism {i: w} between two graphs on 0..n-1, in search order,
    or None; bit j of ``gadj[i]`` (and of ``hadj[i]``) marks an edge i-j.

    Permutation backtracking: the vertices of ``g`` are ordered greedily to
    stay connected to the mapped part (most mapped neighbours, then highest
    degree, ties in the previous order), and each is tried on the unused
    vertices of ``h`` of its degree in index order, accepted when adjacent
    to exactly the images of its mapped neighbours.
    """
    n = len(gadj)
    gdeg = [m.bit_count() for m in gadj]
    hdeg = [m.bit_count() for m in hadj]
    if n != len(hadj) or sorted(gdeg) != sorted(hdeg):
        return None

    # rank[v] = -(mapped neighbours * (n + 1) + degree) orders as the pair
    # does, a degree being below n + 1; placing v updates its neighbours
    rank = [-d for d in gdeg]
    remaining = list(range(n))
    order: list[int] = []
    while remaining:
        remaining.sort(key=rank.__getitem__)
        v = remaining.pop(0)
        order.append(v)
        for u in remaining:
            if gadj[v] >> u & 1:
                rank[u] -= n + 1

    # Depth first on a stack, not a recursive closure, so that the search
    # leaves no reference cycle.  Each open depth keeps its vertex, the
    # images of its mapped neighbours as a mask and its untried candidates.
    mapping: dict[int, int] = {}
    used = 0
    stack: list = []
    while len(mapping) < n:
        if len(stack) == len(mapping):
            v = order[len(stack)]
            image = sum(1 << w for u, w in mapping.items() if gadj[v] >> u & 1)
            stack.append((v, image, iter([w for w in range(n) if hdeg[w] == gdeg[v]])))
        v, image, candidates = stack[-1]
        for w in candidates:
            if hadj[w] & used == image and not used >> w & 1:
                mapping[v] = w
                used |= 1 << w
                break
        else:
            stack.pop()
            if not stack:
                return None
            used ^= 1 << mapping.pop(stack[-1][0])
    return mapping


def _patterns(bits: Sequence[int]) -> Sequence[int]:
    # the OR of ``bits`` at each pattern of their positions, compact while it fits in 32 bits
    table = [0]
    for bit in bits:
        table += [m | bit for m in table]
    return table if table[-1] >> 32 else array("I", table)


class _Carry:
    """The image mask of a mask, given the image bit of each position: the
    low byte's from ``low``, the rest's from ``high``, another _Carry past
    16 positions.  A bit past the last position raises IndexError."""

    __slots__ = ("low", "high")

    def __init__(self, bits: Sequence[int]) -> None:
        self.low = _patterns(bits[:8])
        self.high = _patterns(bits[8:]) if len(bits) <= 16 else _Carry(bits[8:])

    def __getitem__(self, mask: int) -> int:
        return self.low[mask & 255] | self.high[mask >> 8]


class MaskMapping(dict):
    """A read-only vertex mapping {i: w} on 0..n-1, n its length, with what
    ``mask_maps_onto`` reads, built once with it: ``images``, the image of
    each vertex in order (-1 for none), and ``carry``, the ``_Carry`` of
    their bits, none for an image outside 0..n-1.  The full mask then maps
    onto itself exactly when the mapping is a bijection."""

    __slots__ = ("images", "carry")

    def __init__(self, mapping: Mapping[int, int]) -> None:
        super().__init__(mapping)
        every = range(len(self))
        self.images = tuple(self.get(i, -1) for i in every)
        self.carry = _Carry([1 << w if w in every else 0 for w in self.images])

    def _read_only(self, *args, **kwargs):
        raise TypeError("a MaskMapping is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def mask_maps_onto(mapping: Mapping[int, int], gadj: Sequence[int], hadj: Sequence[int]) -> bool:
    """Whether ``mapping`` is a bijection between the vertices 0..n-1 of two
    graphs given as ``mask_isomorphism`` takes them, under which the mask of
    each vertex of ``gadj`` maps exactly onto the ``hadj`` mask of its image:
    the check of a kept search result.  Each mask is mapped with two lookups
    in the tables of a ``MaskMapping``, built here from any other mapping; a
    bit past n fails on either side."""
    n = len(gadj)
    if len(hadj) != n or len(mapping) != n:
        return False
    mapping = mapping if isinstance(mapping, MaskMapping) else MaskMapping(mapping)
    low, high, full = mapping.carry.low, mapping.carry.high, (1 << n) - 1
    try:
        if low[full & 255] | high[full >> 8] != full:
            return False
        for g, w in zip(gadj, mapping.images):
            if low[g & 255] | high[g >> 8] != hadj[w]:
                return False
    except IndexError:
        return False
    return True


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """Swap points and lines: dual points are line indices, dual lines are
    the pencils of lines through each point."""
    pencils = [frozenset(s.lines_through(p)) for p in s.points]
    pencils.sort(key=sorted)
    return IncidenceStructure(tuple(range(len(s.lines))), tuple(pencils))
