"""Acceptance suite.

Ten criteria, each exercised end to end with exact integer and string
comparisons. No floating point appears anywhere in the package or in
these tests. The whole file runs in a few seconds.
"""

import itertools
import time

from kernel_oracle import complement_graph_of_ovoid, structure_isomorphism, witnessed_triples
from ringline import golden
from ringline.correspondence import (
    STRUCTURE,
    grid_mermin_arrangement,
    line_table,
    operator_signs,
    verify_transitivity,
)
from ringline.pauli import (
    commutation_table,
    commutes,
    mermin_square_check,
    mub_spread_check,
    signs_from_commutation,
    standard_labeling,
)
from ringline.projline import (
    DISTANT,
    apply_to_pair,
    distant_triple_witnesses,
    enumerate_line,
    gl2_elements,
    is_invertible_2x2,
    map_standard_triple_to,
    simultaneous_subconfig,
)
from ringline.quadrangle import (
    GRID,
    OVOID,
    PERP_SET,
    dual,
    enumerate_ovoids,
    graph_isomorphism,
    is_petersen,
    is_strongly_regular,
    petersen_graph,
    validate_gq_axioms,
)
from ringline.rings import ring_by_name, units, validate_ring, zero_divisors

from line_oracle import pair_relation, standard_triple


def test_criterion_1_ring_fidelity(m2f2):
    assert m2f2.add_table == golden.M2F2_ADD_TABLE
    assert m2f2.mul_table == golden.M2F2_MUL_TABLE
    assert units(m2f2) == {1, 2, 9, 11, 12, 13}
    zd = zero_divisors(m2f2)
    assert len(zd) == 10
    assert 0 in zd
    assert validate_ring(m2f2) == []


def test_criterion_2_line_census(m2f2_line):
    points = m2f2_line.points
    assert len(points) == 35
    assert all(len(p.members) == 6 for p in points)
    # the stored census is orbit-equivalent to the computed points:
    # each stored representative lands in exactly one orbit and all
    # thirty-five orbits are hit
    hit = set()
    for rep in golden.LINE_CENSUS_REPS:
        owners = [p for p in points if rep in p.members]
        assert len(owners) == 1
        hit.add(owners[0].canonical)
    assert len(hit) == 35
    # the four commutative companions
    gf4 = ring_by_name("gf4")
    gf4_pts = enumerate_line(gf4).points
    assert len(gf4_pts) == 5
    for p, q in itertools.combinations(gf4_pts, 2):
        assert pair_relation(gf4, p.canonical, q.canonical) == "+"
    assert len(enumerate_line(ring_by_name("gf2xgf2")).points) == 9
    gf2dual = ring_by_name("gf2dual")
    dual_pts = enumerate_line(gf2dual).points
    assert len(dual_pts) == 6
    neighbor_pairs = [
        (p, q)
        for p, q in itertools.combinations(dual_pts, 2)
        if pair_relation(gf2dual, p.canonical, q.canonical) == "-"
    ]
    assert len(neighbor_pairs) == 3


def test_criterion_3_subconfig(m2f2_line):
    distant, neighbor = simultaneous_subconfig(m2f2_line, (1, 0), (0, 1))
    assert len(distant) == 6
    assert len(neighbor) == 9
    expected = [m2f2_line.class_of(rep) for rep in golden.POINT_REPS]
    assert list(distant) + list(neighbor) == expected
    rows = STRUCTURE.signs
    assert rows == golden.CANONICAL_SIGNS
    for i in range(15):
        assert sum(1 for j in range(15) if i != j and rows[i][j] == "-") == 6
        assert sum(1 for j in range(15) if i != j and rows[i][j] == "+") == 8
    # largest clique in the neighbor graph has exactly three vertices
    g = STRUCTURE.graph
    assert any(
        all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
        for combo in itertools.combinations(g.vertices, 3)
    )
    assert not any(
        all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
        for combo in itertools.combinations(g.vertices, 4)
    )


def test_criterion_4_operator_correspondence():
    geo = STRUCTURE.signs
    ops_rows = operator_signs()
    assert geo == ops_rows == golden.CANONICAL_SIGNS
    # direct 225-cell re-derivation straight from the operators
    ops = standard_labeling()
    derived = signs_from_commutation(commutation_table(ops))
    assert derived == geo
    for i in range(15):
        for j in range(15):
            want = geo[i][j] == "-"
            assert commutes(ops[i], ops[j]) is want


def test_criterion_5_gq_structure(gq):
    assert validate_gq_axioms(gq) == []
    assert len(gq.points) == 15
    assert len(gq.lines) == 15
    assert is_strongly_regular(gq.collinearity_graph, 15, 6, 1, 3)
    iso = structure_isomorphism(gq, dual(gq))
    assert iso is not None
    lines2 = set(dual(gq).lines)
    for line in gq.lines:
        assert frozenset(iso[p] for p in line) in lines2


def test_criterion_6_hyperplane_census(gq, hyperplanes, spreads):
    counts = {OVOID: 0, PERP_SET: 0, GRID: 0}
    for h in hyperplanes:
        counts[h.kind] += 1
    assert counts == {OVOID: 6, PERP_SET: 15, GRID: 10}
    assert len(hyperplanes) == 31
    assert len(spreads) == 6
    dual_ovoids = enumerate_ovoids(dual(gq))
    assert {h.points for h in dual_ovoids} == {frozenset(sp) for sp in spreads}


def test_criterion_7_petersen(gq):
    reference = petersen_graph()
    for h in enumerate_ovoids(gq):
        comp = complement_graph_of_ovoid(gq, h.points)
        assert is_petersen(comp)
        witness = graph_isomorphism(comp, reference)
        assert witness is not None
        for u, v in itertools.combinations(comp.vertices, 2):
            assert comp.has_edge(u, v) == reference.has_edge(witness[u], witness[v])


def test_criterion_8_mermin_magic(hyperplanes):
    ops = standard_labeling()
    # the nine-point family in its published row order forms the square
    standard = [[ops[c - 1] for c in row] for row in ((7, 8, 9), (10, 11, 12), (13, 14, 15))]
    result = mermin_square_check(standard)
    assert result.row_signs == (-1, 1, 1)
    assert result.col_signs == (1, 1, 1)
    product = 1
    for s in result.row_signs + result.col_signs:
        product *= s
    assert product == -1
    # all ten grid hyperplanes admit a magic arrangement
    grids = [h for h in hyperplanes if h.kind == GRID]
    assert len(grids) == 10
    lines = line_table(STRUCTURE)
    for h in grids:
        assert grid_mermin_arrangement(STRUCTURE, h.points, lines) is not None


def test_criterion_9_mub(gq, spreads):
    ops = standard_labeling()
    for sp in spreads:
        spread_lines = [
            [ops[p - 1] for p in sorted(gq.lines[i])] for i in sp
        ]
        assert mub_spread_check(spread_lines)


def test_criterion_10_transitivity(m2f2, m2f2_line):
    """Every ordered pairwise-distant triple is witnessed, the witnessed set
    is the brute-force set of such triples, each of which the scaling
    search also reaches with a matrix acting correctly on every orbit
    member, and the enumerated group has the derived order."""
    started = time.monotonic()
    report = verify_transitivity(STRUCTURE)
    elapsed = time.monotonic() - started
    assert report.passed
    assert report.data["triples"] == 3360
    rel = m2f2_line.relation
    n = len(m2f2_line.points)
    oracle = {
        (i, j, k)
        for i, j, k in itertools.permutations(range(n), 3)
        if rel[i][j] == rel[i][k] == rel[j][k] == DISTANT
    }
    witnesses, failures = distant_triple_witnesses(m2f2_line)
    assert failures == []
    assert witnessed_triples(witnesses) == oracle
    sources = [m2f2_line.class_of(p) for p in standard_triple(m2f2)]
    for triple in sorted(oracle):
        targets = [m2f2_line.points[i] for i in triple]
        m = map_standard_triple_to(m2f2_line, tuple(targets))
        assert is_invertible_2x2(m2f2, m)
        for src, dst in zip(sources, targets):
            for member in src.members:
                assert apply_to_pair(m2f2, member, m) in dst.members
    assert len(gl2_elements(m2f2)) == 3360 * 6
    assert 3360 * 6 == 15 * 14 * 12 * 8
    assert elapsed < 10.0
