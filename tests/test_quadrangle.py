"""Incidence geometry: quadrangle recovery, hyperplanes, spreads, Petersen."""

import itertools

import pytest

from kernel_oracle import complement_graph_of_ovoid, induced, structure_isomorphism
from ringline import golden
from ringline.correspondence import STRUCTURE
from ringline.quadrangle import (
    GRID,
    OVOID,
    PERP_SET,
    Graph,
    Hyperplane,
    build_gq_from_graph,
    dual,
    enumerate_ovoids,
    graph_isomorphism,
    is_petersen,
    is_strongly_regular,
    petersen_graph,
    triangles,
    validate_gq_axioms,
)


def cycle_graph(n):
    return Graph.from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(range(n), itertools.combinations(range(n), 2))


def test_triangle_counts():
    assert len(triangles(complete_graph(4))) == 4
    assert triangles(petersen_graph()) == []
    assert len(triangles(STRUCTURE.graph)) == 15


def test_neighbor_graph_is_srg(gq):
    g = STRUCTURE.graph
    assert is_strongly_regular(g, 15, 6, 1, 3)
    assert not is_strongly_regular(g, 15, 6, 1, 2)
    assert not is_strongly_regular(petersen_graph(), 15, 6, 1, 3)


def test_gq_axioms_and_shape(gq):
    assert len(gq.points) == 15
    assert len(gq.lines) == 15
    assert validate_gq_axioms(gq) == []
    for p in gq.points:
        assert len(gq.lines_through(p)) == 3
    for line in gq.lines:
        assert len(line) == 3


def test_collinearity_graph_round_trip(gq):
    assert gq.collinearity_graph.edges == STRUCTURE.graph.edges
    # derived structure: built once and kept with the quadrangle
    assert gq.collinearity_graph is gq.collinearity_graph


def test_build_rejects_edge_on_two_triangles():
    with pytest.raises(ValueError, match="lies on 2 triangles"):
        build_gq_from_graph(complete_graph(4))


def test_build_rejects_edge_on_no_triangle():
    with pytest.raises(ValueError, match="lies on 0 triangles"):
        build_gq_from_graph(cycle_graph(5))


def test_build_rejects_wrong_line_count():
    # 3x3 rook's graph: triangles cover each edge once but each point lies
    # on only 2 lines, which the axiom check must flag
    verts = [(i, j) for i in range(3) for j in range(3)]
    edges = [
        (u, v)
        for u, v in itertools.combinations(verts, 2)
        if u[0] == v[0] or u[1] == v[1]
    ]
    with pytest.raises(ValueError, match="lies on 2 lines"):
        build_gq_from_graph(Graph.from_edges(verts, edges))


def ovoids_by_subset_scan(s):
    """The search the exact cover replaced: each of the 3003 5-point
    subsets, in combinations order, kept when it meets every line once."""
    out = []
    for combo in itertools.combinations(s.points, 5):
        pts = frozenset(combo)
        if all(len(line & pts) == 1 for line in s.lines):
            out.append(Hyperplane(OVOID, pts))
    return tuple(out)


@pytest.mark.parametrize("face", ["gq", "dual"])
def test_ovoid_exact_cover_matches_subset_scan(face, gq):
    s = gq if face == "gq" else dual(gq)
    assert enumerate_ovoids(s) == ovoids_by_subset_scan(s)


def test_ovoid_enumeration(gq):
    ovoids = enumerate_ovoids(gq)
    assert len(ovoids) == 6
    assert all(h.kind == OVOID for h in ovoids)
    points_seen = set()
    for h in ovoids:
        assert len(h.points) == 5
        for line in gq.lines:
            assert len(line & h.points) == 1
        points_seen.add(h.points)
    assert golden.SAMPLE_OVOID in points_seen


def test_hyperplane_census(gq, hyperplanes):
    by_kind = {}
    for h in hyperplanes:
        by_kind.setdefault(h.kind, []).append(h)
    assert len(by_kind[OVOID]) == 6
    assert len(by_kind[PERP_SET]) == 15
    assert len(by_kind[GRID]) == 10
    assert len(hyperplanes) == 31
    # perp sets: one per center, center plus its six neighbors
    centers = sorted(h.center for h in by_kind[PERP_SET])
    assert centers == list(range(1, 16))
    g = STRUCTURE.graph
    for h in by_kind[PERP_SET]:
        assert h.points == g.neighbors(h.center) | {h.center}
    # grids contain exactly six full lines, two through each grid point
    for h in by_kind[GRID]:
        inside = [line for line in gq.lines if line <= h.points]
        assert len(inside) == 6
        for p in h.points:
            assert sum(1 for line in inside if p in line) == 2


def test_hyperplane_property_holds(gq, hyperplanes):
    for h in hyperplanes:
        for line in gq.lines:
            assert len(line & h.points) in (1, 3)


def test_hyperplane_enumeration_matches_brute_force(gq, hyperplanes):
    """Independent oracle: scan all 2^15 point subsets with bitmasks."""
    line_masks = []
    for line in gq.lines:
        mask = 0
        for p in line:
            mask |= 1 << (p - 1)
        line_masks.append(mask)
    full = (1 << 15) - 1
    found = []
    for subset in range(1 << 15):
        if subset == full:
            continue
        ok = True
        for mask in line_masks:
            inside = bin(subset & mask).count("1")
            if inside != 1 and inside != 3:
                ok = False
                break
        if ok:
            found.append(subset)
    expected = set()
    for h in hyperplanes:
        mask = 0
        for p in h.points:
            mask |= 1 << (p - 1)
        expected.add(mask)
    assert sorted(expected) == sorted(found)


def test_spreads_partition_points(gq, spreads):
    assert len(spreads) == 6
    for sp in spreads:
        assert len(sp) == 5
        covered = sorted(itertools.chain.from_iterable(gq.lines[i] for i in sp))
        assert covered == list(range(1, 16))


def test_spreads_are_dual_ovoids(gq, spreads):
    dual_ovoids = enumerate_ovoids(dual(gq))
    assert len(dual_ovoids) == 6
    assert {h.points for h in dual_ovoids} == {frozenset(sp) for sp in spreads}


def test_self_duality(gq):
    d = dual(gq)
    assert validate_gq_axioms(d) == []
    iso = structure_isomorphism(gq, d)
    assert iso is not None
    lines2 = set(d.lines)
    for line in gq.lines:
        assert frozenset(iso[p] for p in line) in lines2
    # and the double dual comes back
    assert structure_isomorphism(gq, dual(d)) is not None


def test_petersen_reference_graph():
    g = petersen_graph()
    assert len(g.vertices) == 10
    assert len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in g.vertices)
    # no two vertices share two neighbours, so no triangle and no 4-cycle: girth 5
    assert is_strongly_regular(g, 10, 3, 0, 1)
    assert is_petersen(g)


def test_is_petersen_rejects_cycle():
    assert not is_petersen(cycle_graph(10))


def test_is_petersen_rejects_k33_plus():
    # 3-regular on 10 vertices with girth 4: the 5-dimensional hypercube
    # skeleton is too big, use the pentagonal prism instead
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(i + 5, (i + 1) % 5 + 5) for i in range(5)]
    rungs = [(i, i + 5) for i in range(5)]
    prism = Graph.from_edges(range(10), outer + inner + rungs)
    assert all(prism.degree(v) == 3 for v in prism.vertices)
    assert all(prism.has_edge(a, b) for a, b in ((0, 1), (1, 6), (6, 5), (5, 0)))
    assert not is_petersen(prism)


def test_ovoid_complements_are_petersen(gq, hyperplanes):
    for h in hyperplanes:
        if h.kind != OVOID:
            continue
        comp = complement_graph_of_ovoid(gq, h.points)
        assert is_petersen(comp)
        witness = graph_isomorphism(comp, petersen_graph())
        assert witness is not None
        # explicit adjacency preservation both ways
        ref = petersen_graph()
        for u in comp.vertices:
            for v in comp.vertices:
                if u != v:
                    assert comp.has_edge(u, v) == ref.has_edge(witness[u], witness[v])


def test_graph_isomorphism_positive_and_negative():
    c5 = cycle_graph(5)
    pentagram = Graph.from_edges(range(5), [(i, (i + 2) % 5) for i in range(5)])
    iso = graph_isomorphism(c5, pentagram)
    assert iso is not None
    for u in range(5):
        for v in range(5):
            if u != v:
                assert c5.has_edge(u, v) == pentagram.has_edge(iso[u], iso[v])
    # K(3,3) and the triangular prism are both cubic on 6 vertices but differ
    k33 = Graph.from_edges(range(6), [(i, j + 3) for i in range(3) for j in range(3)])
    prism = Graph.from_edges(
        range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    assert graph_isomorphism(k33, prism) is None
    # different sizes
    assert graph_isomorphism(c5, cycle_graph(6)) is None


def test_induced_subgraph():
    g = complete_graph(5)
    sub = induced(g, [0, 1, 2])
    assert len(sub.vertices) == 3
    assert len(sub.edges) == 3
