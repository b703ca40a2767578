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
    "complement_graph_of_ovoid",
    "petersen_graph",
    "is_petersen",
    "graph_isomorphism",
    "mask_isomorphism",
    "mask_maps_onto",
    "structure_isomorphism",
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
        verts = tuple(vertices)
        vset = set(verts)
        norm = set()
        for e in edges:
            e = frozenset(e)
            if len(e) != 2 or not e <= vset:
                raise ValueError(f"bad edge {set(e)}")
            norm.add(e)
        return cls(verts, frozenset(norm))

    @cached_property
    def adjacency(self) -> dict:
        adj: dict = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The adjacency masks over vertex positions, in vertex order."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        return tuple(sum(1 << pos[u] for u in self.adjacency[v]) for v in self.vertices)

    def neighbors(self, v: Vertex) -> frozenset:
        return self.adjacency[v]

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self.adjacency.get(u, ())

    def induced(self, keep: Iterable[Vertex]) -> Graph:
        keep = tuple(keep)
        kset = set(keep)
        return Graph(keep, frozenset(e for e in self.edges if e <= kset))

    def sorted_edges(self) -> list[tuple]:
        pos = {v: i for i, v in enumerate(self.vertices)}
        out = [tuple(sorted(e, key=pos.__getitem__)) for e in self.edges]
        return sorted(out, key=lambda e: (pos[e[0]], pos[e[1]]))


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
        out: dict = {p: [] for p in self.points}
        for i, line in enumerate(self.lines):
            for p in line:
                out[p].append(i)
        return {p: tuple(ids) for p, ids in out.items()}

    def lines_through(self, p: Vertex) -> tuple[int, ...]:
        return self._lines_by_point[p]

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
    """
    problems = []
    for i, line in enumerate(s.lines):
        if len(line) != 3:
            problems.append(f"line {i} has {len(line)} points, expected 3")
    for p in s.points:
        n = len(s.lines_through(p))
        if n != 3:
            problems.append(f"point {p} lies on {n} lines, expected 3")
    pencils = {p: frozenset(s.lines_through(p)) for p in s.points}
    for p, q in itertools.combinations(s.points, 2):
        common = len(pencils[p] & pencils[q])
        if common > 1:
            problems.append(f"points {p} and {q} lie on {common} common lines")
    # each point's collinear points, itself excluded
    perp = {p: frozenset().union(*(s.lines[i] for i in pencils[p])) - {p} for p in s.points}
    for i, line in enumerate(s.lines):
        for p in s.points:
            if p in line:
                continue
            met = len(line & perp[p])
            if met != 1:
                problems.append(
                    f"point {p} sees {met} points of line {i}, expected exactly 1"
                )
    return problems


def is_strongly_regular(g: Graph, n: int, k: int, lam: int, mu: int) -> bool:
    """Exhaustive strongly-regular-graph parameter check."""
    if len(g.vertices) != n:
        return False
    if any(g.degree(v) != k for v in g.vertices):
        return False
    for u, v in itertools.combinations(g.vertices, 2):
        common = len(g.neighbors(u) & g.neighbors(v))
        if g.has_edge(u, v):
            if common != lam:
                return False
        elif common != mu:
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


def _exact_covers(blocks: Sequence[frozenset], universe: Sequence) -> list[tuple[int, ...]]:
    """Every set of block indices whose blocks partition ``universe``, as
    sorted tuples in ascending order (depth first on the first uncovered
    element; a stack entry is the uncovered set and the blocks used)."""
    containing = {x: [i for i, block in enumerate(blocks) if x in block] for x in universe}
    out: list[tuple[int, ...]] = []
    stack = [(frozenset(universe), ())]
    while stack:
        remaining, used = stack.pop()
        if not remaining:
            out.append(tuple(sorted(used)))
            continue
        for i in containing[next(x for x in universe if x in remaining)]:
            if blocks[i] <= remaining:
                stack.append((remaining - blocks[i], used + (i,)))
    return sorted(out)


def enumerate_ovoids(s: IncidenceStructure) -> tuple[Hyperplane, ...]:
    """All point sets meeting every line exactly once, in the order of their
    points' positions: the exact covers of the lines by point pencils."""
    pencils = [frozenset(s.lines_through(p)) for p in s.points]
    return tuple(
        Hyperplane(OVOID, frozenset(s.points[i] for i in cover))
        for cover in _exact_covers(pencils, range(len(s.lines)))
    )


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
    bit = {p: 1 << i for i, p in enumerate(s.points)}
    masks = [sum(bit[p] for p in line) for line in s.lines]
    span = [0]
    for vec in gf2.kernel(masks, len(s.points)):
        span += [v ^ vec for v in span]
    planes = [
        _classify_hyperplane(s, frozenset(p for p in s.points if not comp & bit[p]))
        for comp in span[1:]
    ]
    planes.sort(key=lambda h: (_KIND_ORDER[h.kind], _sorted_points(s, h.points)))
    return tuple(planes)


def enumerate_spreads(s: IncidenceStructure) -> tuple[tuple[int, ...], ...]:
    """All partitions of the points into pairwise-disjoint lines, as sorted
    tuples of line indices: the exact covers of the points by lines."""
    return tuple(_exact_covers(s.lines, s.points))


def complement_graph_of_ovoid(s: IncidenceStructure, ovoid: Iterable) -> Graph:
    """Collinearity graph induced on the points off the ovoid."""
    off = set(ovoid)
    keep = [p for p in s.points if p not in off]
    return s.collinearity_graph.induced(keep)


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


def mask_maps_onto(mapping: Mapping[int, int], gadj: Sequence[int], hadj: Sequence[int]) -> bool:
    """Whether ``mapping`` is a bijection between the vertices 0..n-1 of two
    graphs given as ``mask_isomorphism`` takes them, under which the mask of
    each vertex of ``gadj`` maps exactly onto the ``hadj`` mask of its image:
    the check of a kept search result.  For a bijection it suffices that each
    neighbour's image is a neighbour of the image and the degrees agree; a
    bit past n has no image in ``gadj`` and makes the degrees differ in
    ``hadj``."""
    n, every = len(gadj), set(range(len(gadj)))
    if len(hadj) != n or mapping.keys() != every or set(mapping.values()) != every:
        return False
    get = mapping.get
    for i, w in mapping.items():
        image, rest = hadj[w], gadj[i]
        if image.bit_count() != rest.bit_count():
            return False
        while rest:
            k = get((rest & -rest).bit_length() - 1)
            if k is None or not image >> k & 1:
                return False
            rest &= rest - 1
    return True


def structure_isomorphism(s1: IncidenceStructure, s2: IncidenceStructure) -> dict | None:
    """A point bijection carrying lines to lines, or None.

    Found through the collinearity graphs and then verified on the line
    sets, which is complete whenever lines are exactly the triangles of the
    collinearity graph (true for the structures handled here).
    """
    iso = graph_isomorphism(s1.collinearity_graph, s2.collinearity_graph)
    if iso is None:
        return None
    lines2 = set(s2.lines)
    if all(frozenset(iso[p] for p in line) in lines2 for line in s1.lines):
        return iso
    return None


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """Swap points and lines: dual points are line indices, dual lines are
    the pencils of lines through each point."""
    pencils = [frozenset(s.lines_through(p)) for p in s.points]
    pencils.sort(key=sorted)
    return IncidenceStructure(tuple(range(len(s.lines))), tuple(pencils))
