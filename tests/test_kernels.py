"""The verifier kernels against their reference forms in ``kernel_oracle``,
and the ledger of the calls that a first and a warm run make."""

import gc
import itertools
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import kernel_oracle as oracle
from conftest import counted_calls
from kernel_oracle import complement_graph_of_ovoid
from ring_docs import ring_from_json_dict
from ringline import correspondence as co
from ringline import gf2, pauli, projline, quadrangle, rings
from ringline.pauli import PauliOp, line_product_sign
from ringline.projline import distant_triple_witnesses, enumerate_line
from ringline.quadrangle import (
    Graph,
    IncidenceStructure,
    dual,
    graph_isomorphism,
    petersen_graph,
    validate_gq_axioms,
)
from ringline.rings import (
    ring_by_name,
    ring_names,
    ring_to_json_dict,
    validate_ring,
)

ALL_OPS = [PauliOp(c) for c in range(1, 16)]


def _outcome(f, *args):
    """The return value, or the ValueError message as a string."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# ---------------------------------------------------------------------------
# quadrangle axioms


def _dropped(s, i, p):
    lines = list(s.lines)
    lines[i] = lines[i] - {p}
    return IncidenceStructure(s.points, tuple(lines))


def _swapped(s, i, j):
    lines = list(s.lines)
    p, q = min(lines[i] - lines[j]), min(lines[j] - lines[i])
    lines[i] = lines[i] - {p} | {q}
    lines[j] = lines[j] - {q} | {p}
    return IncidenceStructure(s.points, tuple(lines))


@pytest.mark.parametrize("face", ["canonical", "dual"])
def test_gq_axioms_match_oracle_on_intact_structures(face):
    s = co.STRUCTURE.gq if face == "canonical" else dual(co.STRUCTURE.gq)
    assert validate_gq_axioms(s) == oracle.validate_gq_axioms(s) == []


def _repeated(s, i):
    return IncidenceStructure(s.points, s.lines + (s.lines[i],))


def _widened(s, i, p):
    lines = list(s.lines)
    lines[i] = lines[i] | {p}
    return IncidenceStructure(s.points, tuple(lines))


# each problem string validate_gq_axioms can emit, by its distinctive words
GQ_PROBLEMS = ("points, expected 3", "lines, expected 3", "common lines", "expected exactly 1")


@pytest.mark.parametrize("face", ["canonical", "dual"])
def test_gq_axioms_match_oracle_on_corrupted_structures(face):
    """Every point dropped from its line, every pair of lines trading a
    point, every line repeated and every line given a fourth point: the same
    problem strings in the same order, never none, and among them every
    kind of string the mask kernel can emit."""
    s = co.STRUCTURE.gq if face == "canonical" else dual(co.STRUCTURE.gq)
    corrupted = [_dropped(s, i, p) for i, line in enumerate(s.lines) for p in sorted(line)]
    corrupted += [_swapped(s, i, j) for i, j in itertools.combinations(range(len(s.lines)), 2)]
    corrupted += [_repeated(s, i) for i in range(len(s.lines))]
    corrupted += [_widened(s, i, p) for i, line in enumerate(s.lines) for p in s.points if p not in line]
    assert len(corrupted) == 45 + 105 + 15 + 180
    kinds = Counter()
    for bad in corrupted:
        problems = validate_gq_axioms(bad)
        assert problems and problems == oracle.validate_gq_axioms(bad), bad.lines
        kinds.update(k for k in GQ_PROBLEMS if any(k in problem for problem in problems))
    assert sorted(kinds) == sorted(GQ_PROBLEMS)


def _structures():
    """The quadrangle, its dual, and each with every pair of lines trading
    a point."""
    for s in (co.STRUCTURE.gq, dual(co.STRUCTURE.gq)):
        yield s
        for i, j in itertools.combinations(range(len(s.lines)), 2):
            yield _swapped(s, i, j)


def _masks(covers):
    return sorted(sum(1 << i for i in cover) for cover in covers)


def test_mask_exact_covers_match_oracle():
    """Ovoids (points covering the lines by their pencils) and spreads
    (lines covering the points) of 2 + 210 structures: the mask search
    finds the covers the frozenset search finds, in the same order, and the
    census's search on the kept pencil masks and cover index of each
    structure and of its dual finds the ovoids and the spreads as masks."""
    counts = Counter()
    for s in _structures():
        s = IncidenceStructure(*s)
        pencils = [frozenset(s.lines_through(p)) for p in s.points]
        ovoids = oracle.exact_covers(pencils, range(len(s.lines)))
        assert quadrangle.enumerate_ovoids(s) == tuple(
            quadrangle.Hyperplane("ovoid", frozenset(s.points[i] for i in cover)) for cover in ovoids
        )
        spreads = quadrangle.enumerate_spreads(s)
        assert spreads == tuple(oracle.exact_covers(s.lines, s.points))
        assert sorted(s.ovoid_masks()) == _masks(ovoids)
        assert sorted(s.dual_structure.ovoid_masks()) == _masks(spreads)
        counts[len(ovoids), len(spreads)] += 1
    assert counts[6, 6] >= 2 and len(counts) > 1


def _searched_census(st):
    """The census's two search verdicts on ``st.gq`` and its dual-ovoid
    detail, from the frozenset search: its ovoids against those of
    ``st.by_kind``, and the ovoids of its dual against ``st.spreads``."""
    s = st.gq
    pencils = [frozenset(s.lines_through(p)) for p in s.points]
    ovoids = {frozenset(s.points[i] for i in c) for c in oracle.exact_covers(pencils, range(len(s.lines)))}
    d = dual(s)
    dual_pencils = [frozenset(d.lines_through(p)) for p in d.points]
    dual_ovoids = oracle.exact_covers(dual_pencils, range(len(d.lines)))
    return (
        ovoids == {h.points for h in st.by_kind["ovoid"]},
        {frozenset(c) for c in dual_ovoids} == {frozenset(sp) for sp in st.spreads},
        f"{len(dual_ovoids)} dual ovoids",
    )


def _census_searches(st):
    """The same three of ``verify_hyperplane_census(st)``."""
    checks = {c.name: c for c in co.verify_hyperplane_census(st).checks}
    dual_check = checks["spreads are the ovoids of the dual"]
    return checks["direct ovoid search agrees"].passed, dual_check.passed, dual_check.detail


def _census_structures():
    """A fresh structure on each of the 212 structures above, then two on
    the quadrangle with one ovoid dropped from ``by_kind`` or one spread
    from ``spreads``."""
    for s in _structures():
        st = co.Structure()
        st.gq = IncidenceStructure(*s)
        yield st
    intact = co.STRUCTURE
    for part, value in (
        ("by_kind", co._Kept(lambda kind: intact.by_kind[kind][1:] if kind == "ovoid" else intact.by_kind[kind])),
        ("spreads", intact.spreads[1:]),
    ):
        st = co.Structure()
        st.gq = IncidenceStructure(*intact.gq)
        setattr(st, part, value)
        yield st


def test_census_of_a_changed_quadrangle_matches_a_search():
    """Each structure of ``_census_structures`` gets the census verdicts of
    the frozenset search on its quadrangle, on the first call, which builds
    the cover tables of the quadrangle and its dual, and on the second,
    which reads them as kept; where its hyperplanes fit no kind, both raise
    that error."""
    outcomes = Counter()
    for st in _census_structures():
        assert "pencil_masks" not in vars(st.gq) and "dual_structure" not in vars(st.gq)
        first = _outcome(_census_searches, st)
        expected = _outcome(_searched_census, st)
        assert first == expected == _outcome(_census_searches, st)
        outcomes[expected if type(expected) is tuple else "raises"] += 1
    assert outcomes == {
        "raises": 120, (True, True, "2 dual ovoids"): 90, (True, True, "6 dual ovoids"): 2,
        (False, True, "6 dual ovoids"): 1, (True, False, "6 dual ovoids"): 1,
    }


def test_strongly_regular_matches_oracle_on_every_edge_toggle():
    """The mask check gives the set check's verdict on the neighbor graph,
    on each of its 105 single-edge toggles and on twelve degree-keeping
    switches, for the true parameters and for each one changed."""
    g = co.STRUCTURE.graph
    graphs = [g, *(_toggled(g, e) for e in itertools.combinations(g.vertices, 2))]
    graphs += itertools.islice(_switches(g), 12)
    assert len(graphs) == 1 + 105 + 12
    params = [(15, 6, 1, 3), (14, 6, 1, 3), (15, 5, 1, 3), (15, 6, 0, 3), (15, 6, 1, 2)]
    verdicts = Counter()
    for h in graphs:
        for args in params:
            verdict = quadrangle.is_strongly_regular(h, *args)
            assert verdict == oracle.is_strongly_regular(h, *args), args
            verdicts[verdict] += 1
    assert verdicts[True] == 1


def test_petersen_witness_checks_the_complement_masks(monkeypatch, hyperplanes):
    """The bit loop that renumbers the points off a hyperplane gives the
    points and adjacency masks of the induced complement graph:
    ``verify_petersen`` on a structure that files every hyperplane as an
    ovoid keeps each complement as a part and checks its masks."""
    gq, checked = co.STRUCTURE.gq, []
    real = co._checked_isomorphism
    monkeypatch.setattr(co, "_checked_isomorphism", lambda st, g, h: checked.append(g) or real(st, g, h))
    st = co.Structure()
    st.gq, st.hyperplanes = gq, tuple(h._replace(kind="ovoid") for h in hyperplanes)
    co.verify_petersen(st)
    kept = [st.complement[h.points] for h in hyperplanes]
    oracles = [complement_graph_of_ovoid(gq, h.points) for h in hyperplanes]
    assert checked == [masks for _, masks in kept] == [g.masks for g in oracles]
    assert [off for off, _ in kept] == [g.vertices for g in oracles]


def test_restrict_matches_the_bit_walk_and_the_formula_it_replaced(hyperplanes):
    """``gf2.restrict`` of the collinearity masks gives what the bit walk of
    ``Structure.complement`` and the formula of ``induced_neighbor_masks``
    gave: off every ovoid, and on every 5- and 6-subset of the 15 points,
    in order and reversed."""
    gq = co.STRUCTURE.gq
    masks = gq.collinearity_graph.masks
    offs = [tuple(i for i, p in enumerate(gq.points) if p not in h.points) for h in hyperplanes if h.kind == "ovoid"]
    subsets = [c for k in (5, 6) for c in itertools.combinations(range(15), k)]
    cases = offs + subsets + [c[::-1] for c in subsets]
    assert len(offs) == 6 and len(cases) == 6 + 2 * (3003 + 5005)
    for keep in cases:
        got = gf2.restrict(masks, keep)
        assert got == oracle.restrict_by_bit_walk(masks, keep) == tuple(oracle.restrict_by_formula(masks, keep)), keep


def _arrangement_sets(gq, hyperplanes):
    """Every hyperplane, each grid with one point traded for an outside one,
    and a set whose two line classes cross."""
    sets = [h.points for h in hyperplanes] + [frozenset((1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12))]
    for h in hyperplanes:
        if h.kind == "grid":
            sets += [h.points - {p} | {q} for p in h.points for q in set(gq.points) - h.points]
    assert len(sets) == 31 + 1 + 10 * 9 * 6
    return sets


def _arrangements_match_oracle(st, sets):
    found, lines = Counter(), co.line_table(st)
    for points in sets:
        got = co.grid_mermin_arrangement(st, points, lines)
        assert got == oracle.grid_mermin_arrangement(st.gq, points, co._ops_for), sorted(points)
        found[got is not None] += 1
    assert found[True] == 10


def test_grid_arrangement_matches_oracle(hyperplanes):
    """On every set of ``_arrangement_sets`` the mask arrangement is the one
    the frozenset scans give."""
    _arrangements_match_oracle(co.STRUCTURE, _arrangement_sets(co.STRUCTURE.gq, hyperplanes))


def test_arrangements_keep_only_the_grid_hyperplanes(hyperplanes):
    """Asking a fresh structure about the 572 sets of ``_arrangement_sets``
    keeps the cells of the ten grid hyperplanes alone, and a second round,
    reading those, gives the same arrangements."""
    st = co.Structure()
    sets = _arrangement_sets(st.gq, hyperplanes)
    _arrangements_match_oracle(st, sets)
    kept = set(st.grid_cells)
    assert kept == {h.points for h in st.by_kind["grid"]}
    _arrangements_match_oracle(st, sets)
    assert all(st.grid_cells[points] == st._arrange(points) for points in kept)


def test_collinear_is_sharing_a_line(gq):
    graph = gq.collinearity_graph
    for p, q in itertools.product(gq.points, repeat=2):
        shared = p != q and any(q in gq.lines[i] for i in gq.lines_through(p))
        assert graph.has_edge(p, q) == shared


# ---------------------------------------------------------------------------
# operator kernels


@pytest.mark.parametrize("commute", ["alternating form", "always"])
def test_line_product_sign_matches_product_of(commute, monkeypatch):
    """All 455 triples of distinct operators, each in all six orders, give
    the sign or the error message that ``product_of`` gives.  With the
    commutation test switched off, the triples reach the product checks,
    so both product messages are compared too."""
    if commute == "always":
        monkeypatch.setattr(pauli, "commutes", lambda a, b: True)
        reference = lambda a, b: True  # noqa: E731
        kinds = {1, -1, "not proportional to the identity", "is imaginary"}
    else:
        reference = oracle.commutes
        kinds = {1, -1, "do not commute"}
    triples = list(itertools.combinations(ALL_OPS, 3))
    assert len(triples) == 455
    seen = set()
    for combo in triples:
        for triple in itertools.permutations(combo):
            got = _outcome(line_product_sign, triple)
            assert got == _outcome(oracle.line_product_sign, triple, reference), triple
            seen.add(next(k for k in kinds if k == got or isinstance(k, str) and k in str(got)))
    assert seen == kinds


def _facts_outcome(facts):
    """Line facts with a ValueError as its message."""
    sign, basis = facts
    return (f"ValueError: {sign}" if isinstance(sign, ValueError) else sign), basis


@pytest.mark.parametrize("commute", ["alternating form", "always"])
def test_line_facts_match_oracle(commute, monkeypatch):
    """Every quadrangle line's operators, in all six orders, a non-commuting
    triple and, with the commutation test switched off, triples whose
    product is not plus or minus the identity: the one-product eigenbasis
    gives the sign or error and the four projectors that building each
    projector on its own gives."""
    ops = pauli.standard_labeling()
    triples = [
        [ops[p - 1] for p in order]
        for line in co.STRUCTURE.gq.lines
        for order in itertools.permutations(sorted(line))
    ]
    assert len(triples) == 90
    triples.append([PauliOp.from_label(t) for t in ("1X", "1Z", "1Y")])
    if commute == "always":
        monkeypatch.setattr(pauli, "commutes", lambda a, b: True)
        triples += [[PauliOp.from_label(t) for t in labels] for labels in (("1X", "1Z", "X1"), ("1X", "1Z", "1Y"))]
    outcomes = {str(_facts_outcome(pauli.line_facts(t))[0]) for t in triples}
    for triple in triples:
        assert _facts_outcome(pauli.line_facts(triple)) == _facts_outcome(oracle.line_facts(triple)), triple
    expected = {"1", "-1", "ValueError: 1X and 1Z do not commute"}
    if commute == "always":
        expected = {"1", "-1", "ValueError: product is -iXY, not proportional to the identity",
                    "ValueError: product phase -i11 is imaginary"}
    assert outcomes == expected


# ---------------------------------------------------------------------------
# graph isomorphism


def _relabelled(g, f):
    return Graph(tuple(f(v) for v in g.vertices), frozenset(frozenset(map(f, e)) for e in g.edges))


def _toggled(g, *pairs):
    return Graph(g.vertices, g.edges ^ {frozenset(p) for p in pairs})


def _switches(g):
    """Degree-preserving two-edge switches {u,v},{x,y} -> {u,x},{v,y}."""
    for e, f in itertools.combinations(g.sorted_edges(), 2):
        (u, v), (x, y) = e, f
        if len({u, v, x, y}) == 4 and not g.has_edge(u, x) and not g.has_edge(v, y):
            yield _toggled(g, e, f, (u, x), (v, y))


def test_graph_isomorphism_fails_after_one_flip():
    g = co.STRUCTURE.graph
    h = _relabelled(g, lambda v: 16 - v)
    iso = graph_isomorphism(g, h)
    assert iso is not None and iso == oracle.graph_isomorphism(g, h)
    assert all(h.has_edge(iso[u], iso[v]) for u, v in g.edges)
    for u, v in itertools.combinations(h.vertices, 2):
        assert graph_isomorphism(g, _toggled(h, (u, v))) is None


def test_graph_isomorphism_matches_oracle_after_a_switch():
    """Switches keep every degree, so only the search can refuse them."""
    for g, limit in ((petersen_graph(), None), (co.STRUCTURE.graph, 12)):
        switched = list(itertools.islice(_switches(g), limit))
        assert switched
        for h in switched:
            assert graph_isomorphism(g, h) == oracle.graph_isomorphism(g, h)
        assert any(graph_isomorphism(g, h) is None for h in switched)


def test_graph_isomorphism_matches_oracle_on_uneven_degrees():
    """The graphs the verifier searches are regular.  On a path the search
    order also ranks by degree: every relabelling of it, and each of those
    with one edge toggled, gives the oracle's mapping or none."""
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    g = Graph.from_edges(range(5), path)
    for perm in itertools.permutations(range(5)):
        h = Graph.from_edges(range(5), [(perm[u], perm[v]) for u, v in path])
        assert graph_isomorphism(g, h) == oracle.graph_isomorphism(g, h) is not None
        for e in itertools.combinations(range(5), 2):
            toggled = _toggled(h, e)
            assert graph_isomorphism(g, toggled) == oracle.graph_isomorphism(g, toggled)


def _graph_of(masks):
    n = len(masks)
    return Graph.from_edges(
        range(n), [(i, j) for i, j in itertools.combinations(range(n), 2) if masks[i] >> j & 1]
    )


def _first_use_searches(monkeypatch):
    """The (gadj, hadj) of every mask search a ``verify_all()`` makes once
    the mappings the structure keeps as its ``isomorphism`` part are
    cleared, wherever ``mask_isomorphism`` is bound."""
    co.verify_all()
    co.STRUCTURE.isomorphism.clear()
    real, searches = quadrangle.mask_isomorphism, []

    def recorded(gadj, hadj):
        searches.append((list(gadj), list(hadj)))
        return real(gadj, hadj)

    for module in (quadrangle, co):
        monkeypatch.setattr(module, "mask_isomorphism", recorded)
    assert co.verify_all().passed
    return searches


def test_mask_isomorphism_searches_in_the_oracle_order_on_irregular_graphs():
    """The mapping comes back in search order.  On every graph of up to five
    vertices (irregular ones rank by mapped neighbours and then by degree)
    and on a relabelled copy of it, the mask search places the vertices in
    the oracle's order and maps each to the oracle's image."""
    pairs = list(itertools.combinations(range(5), 2))
    for n in range(1, 6):
        within = [(u, v) for u, v in pairs if v < n]
        for picks in itertools.product((0, 1), repeat=len(within)):
            edges = [e for e, pick in zip(within, picks) if pick]
            gadj = [0] * n
            for u, v in edges:
                gadj[u] |= 1 << v
                gadj[v] |= 1 << u
            relabel = [(2 - i) % n for i in range(n)]
            hadj = [0] * n
            for u, v in edges:
                hadj[relabel[u]] |= 1 << relabel[v]
                hadj[relabel[v]] |= 1 << relabel[u]
            iso = quadrangle.mask_isomorphism(gadj, hadj)
            want = oracle.graph_isomorphism(_graph_of(gadj), _graph_of(hadj))
            assert iso is not None and list(iso.items()) == list(want.items()), edges


def test_mask_isomorphism_matches_oracle_on_every_warm_search(monkeypatch):
    """The distinct searches of a first use: the 15 perp sixes (8 distinct
    mask pairs), the 6 ovoid fives and 2 gf4 triple fives (all one pair),
    the nine, the 6 Petersen tens and the self-duality search.  Each finds
    the mapping the set-based oracle finds on the Graph form, and so does
    every target with one edge toggled."""
    searches = _first_use_searches(monkeypatch)
    assert Counter(len(g) for g, _ in searches) == {6: 8, 5: 1, 9: 1, 10: 6, 15: 1}
    assert len(set(map(str, searches))) == len(searches) == 17
    monkeypatch.undo()
    for gadj, hadj in searches:
        g = _graph_of(gadj)
        iso = quadrangle.mask_isomorphism(gadj, hadj)
        assert iso is not None and iso == oracle.graph_isomorphism(g, _graph_of(hadj))
        for u, v in itertools.combinations(range(len(hadj)), 2):
            toggled = list(hadj)
            toggled[u] ^= 1 << v
            toggled[v] ^= 1 << u
            got = quadrangle.mask_isomorphism(gadj, toggled)
            assert got == oracle.graph_isomorphism(g, _graph_of(toggled)), (u, v)


def test_mask_maps_onto_accepts_only_an_exact_bijection():
    triangle, path = [0b110, 0b101, 0b011], [0b010, 0b101, 0b010]
    same = {0: 0, 1: 1, 2: 2}
    assert quadrangle.mask_maps_onto(same, triangle, triangle)
    assert quadrangle.mask_maps_onto({0: 2, 1: 1, 2: 0}, path, path)
    assert not quadrangle.mask_maps_onto(same, triangle, path)
    assert not quadrangle.mask_maps_onto({0: 0, 1: 1, 2: 1}, triangle, triangle)
    assert not quadrangle.mask_maps_onto({0: 0, 1: 1}, triangle, triangle)
    assert not quadrangle.mask_maps_onto(same, triangle, triangle + [0])
    # a proper subgraph is no image, and without edges only a bijection maps
    assert not quadrangle.mask_maps_onto(same, path, triangle)
    assert not quadrangle.mask_maps_onto({0: 0, 1: 0}, [0, 0], [0, 0])
    assert not quadrangle.mask_maps_onto({0: 0}, [0, 0], [0, 0])
    assert not quadrangle.mask_maps_onto({0: 0, -1: 1}, [0, 0], [0, 0])
    # a bit past the last vertex, on either side or both, is no edge
    past = [0b1110, 0b101, 0b011]
    assert not quadrangle.mask_maps_onto(same, past, past)
    assert not quadrangle.mask_maps_onto(same, past, triangle)
    assert not quadrangle.mask_maps_onto(same, triangle, past)


def _maps_onto_as_oracle(mapping, gadj, hadj):
    """``mask_maps_onto`` on a mapping, asserted equal to the oracle's
    bit-by-bit verdict."""
    got = quadrangle.mask_maps_onto(mapping, gadj, hadj)
    assert got == oracle.mask_maps_onto(mapping, gadj, hadj), (dict(mapping), gadj, hadj)
    return got


def _kept_mappings():
    """Every mapping a warm run keeps, with the two graphs it relates."""
    co.verify_all()
    kept = [(iso, *graphs) for graphs, iso in co.STRUCTURE.isomorphism.items()]
    assert all(isinstance(iso, quadrangle.MaskMapping) for iso, _, _ in kept)
    return kept


def test_mask_maps_onto_matches_oracle_on_kept_mappings_with_two_images_swapped():
    """Every kept mapping of a warm run passes; with any two of its images
    swapped, as a plain dict, it gets the oracle's verdict."""
    kept, verdicts = _kept_mappings(), Counter()
    assert len(kept) >= 17
    for iso, gadj, hadj in kept:
        assert _maps_onto_as_oracle(iso, gadj, hadj)
        for i, j in itertools.combinations(range(len(iso)), 2):
            verdicts[_maps_onto_as_oracle({**iso, i: iso[j], j: iso[i]}, gadj, hadj)] += 1
    assert verdicts[False] > 0


def test_mask_maps_onto_matches_oracle_on_changed_masks_and_bad_mappings():
    """On every kept mapping of a warm run: each vertex mask of either graph
    with each bit flipped, or with a bit at position n; the mapping with a
    key or an image moved outside 0..n-1, or with two keys on one image."""
    for iso, gadj, hadj in _kept_mappings():
        n = len(gadj)
        for masks, side in ((gadj, 0), (hadj, 1)):
            for i, b in itertools.product(range(n), range(n + 1)):
                changed = list(masks)
                changed[i] ^= 1 << b
                graphs = (changed, hadj) if side == 0 else (gadj, changed)
                assert not _maps_onto_as_oracle(iso, *graphs)
        last = n - 1
        moved = {k: w for k, w in iso.items() if k != last}
        for bad in (
            {**moved, n: iso[last]}, {**moved, -1: iso[last]},
            {**iso, last: n}, {**iso, last: -1}, {**iso, 0: iso[1]},
        ):
            assert not _maps_onto_as_oracle(bad, gadj, hadj)
            assert not _maps_onto_as_oracle(quadrangle.MaskMapping(bad), gadj, hadj)


@pytest.mark.parametrize("n", [1, 5, 8, 9, 16, 17, 25, 40])
def test_mask_maps_onto_matches_oracle_on_cycles_of_every_table_size(n):
    """Cycles on up to 40 vertices, past the two dense tables and past 32
    bits: each rotation and reflection maps onto the cycle, and with any
    one mask bit flipped, or a bit at position n, gets the oracle's verdict."""
    cycle = [(1 << (i + 1) % n | 1 << (i - 1) % n) & ~(1 << i) if n > 1 else 0 for i in range(n)]
    for r in range(n):
        for mapping in ({i: (i + r) % n for i in range(n)}, {i: (r - i) % n for i in range(n)}):
            assert _maps_onto_as_oracle(quadrangle.MaskMapping(mapping), cycle, cycle)
    mapping = quadrangle.MaskMapping({i: (i + 1) % n for i in range(n)})
    for i, b in itertools.product(range(n), (0, n // 2, n - 1, n)):
        changed = list(cycle)
        changed[i] ^= 1 << b
        _maps_onto_as_oracle(mapping, changed, cycle)
        _maps_onto_as_oracle(mapping, cycle, changed)


def test_a_mask_mapping_is_read_only():
    """A kept mapping cannot change under its tables: every way of writing
    to it raises TypeError."""
    kept = quadrangle.MaskMapping({0: 1, 1: 0})
    writes = [
        lambda m: m.__setitem__(0, 0), lambda m: m.__delitem__(0), lambda m: m.update({0: 0}),
        lambda m: m.pop(0), lambda m: m.popitem(), lambda m: m.setdefault(2, 2), lambda m: m.clear(),
        lambda m: m.__ior__({0: 0}),
    ]
    for write in writes:
        with pytest.raises(TypeError):
            write(kept)
    assert kept == {0: 1, 1: 0} and kept.images == (1, 0)


def test_graph_isomorphism_finds_the_oracle_mapping(gq, hyperplanes):
    pairs = [(gq.collinearity_graph, dual(gq).collinearity_graph)]
    pairs += [
        (complement_graph_of_ovoid(gq, h.points), petersen_graph())
        for h in hyperplanes
        if h.kind == "ovoid"
    ]
    for g, h in pairs:
        iso = graph_isomorphism(g, h)
        assert iso is not None and iso == oracle.graph_isomorphism(g, h)


# ---------------------------------------------------------------------------
# line and ring kernels


def _witnesses_as_triples(line):
    """The witnessed triples and the failures, after checking that the
    witness masks come one per distant pair, in row order."""
    masks, failures = distant_triple_witnesses(line)
    pairs = itertools.product(range(len(line.points)), repeat=2)
    assert list(masks) == [(i, j) for i, j in pairs if line.distant_masks[i] >> j & 1]
    return oracle.witnessed_triples(masks), failures


@pytest.mark.parametrize("name", ring_names())
def test_distant_triple_witnesses_match_oracle(name):
    line = enumerate_line(ring_by_name(name))
    assert _witnesses_as_triples(line) == oracle.distant_triple_witnesses(line)


WITNESS_RINGS = ("m2f2", "gf4", "gf2xgf2")


def _wrong_units(line, change):
    """The line's units one short, or with zero added, sorted."""
    good = line.units
    return good[:-1] if change == "drop" else tuple(sorted({*good, line.ring.zero}))


@pytest.mark.parametrize("change", ["drop", "add"])
def test_distant_triple_witnesses_match_oracle_on_wrong_unit_lists(change, monkeypatch):
    """A unit list one short, or with zero added, set on the line after its
    keys are kept and read afresh on each call: the witnesses and the
    failures, in order, are the oracle's."""
    for name in WITNESS_RINGS:
        line = enumerate_line(ring_by_name(name))
        distant_triple_witnesses(line)
        monkeypatch.setattr(line, "units", _wrong_units(line, change))
        got = _witnesses_as_triples(line)
        assert got == oracle.distant_triple_witnesses(line)
        assert bool(got[1]) == (change == "add")
        monkeypatch.undo()
        assert _witnesses_as_triples(line) == oracle.distant_triple_witnesses(line)


def _match_oracle_on_corrupted(table):
    """Each built line of m2f2, gf4 and gf2xgf2 with one cell of ``table``
    changed (every wrong value of every cell of the small rings, one of
    every fourth m2f2 cell): the witnesses and the failures, in order, are
    the oracle's, both where the bulk pass accepts the line and where the
    unit-by-unit loop has to name a failure."""
    outcomes = Counter()
    for name in WITNESS_RINGS:
        line = enumerate_line(ring_by_name(name))
        ring = line.ring
        for x, y in itertools.product(range(ring.order), repeat=2):
            if ring.order == 16 and (x + y) % 4:
                continue
            for value in _wrong_values(ring, table, x, y):
                bad = line._replace(ring=_with_cell(ring, table, x, y, value))
                got = _witnesses_as_triples(bad)
                assert got == oracle.distant_triple_witnesses(bad), (name, x, y, value)
                outcomes[bool(got[1])] += 1
    # 64 m2f2 cells with one wrong value, 16 cells with 3 in each small ring
    assert sum(outcomes.values()) == 64 + 2 * 48
    assert outcomes[True] and outcomes[False]


def test_distant_triple_witnesses_match_oracle_on_corrupted_addition():
    _match_oracle_on_corrupted("add_table")


def test_distant_triple_witnesses_match_oracle_on_corrupted_multiplication():
    """The kept scaled rows s.y0 and the keys built from them read the
    multiplication table."""
    _match_oracle_on_corrupted("mul_table")


def test_distant_triple_witnesses_match_oracle_on_flipped_cells(m2f2_line):
    for i, j in ((0, 1), (0, 5), (3, 17), (10, 34), (20, 21)):
        rows = [list(row) for row in m2f2_line.relation]
        rows[i][j] = rows[j][i] = "+" if rows[i][j] == "-" else "-"
        bad = m2f2_line._replace(relation=tuple("".join(row) for row in rows))
        got = _witnesses_as_triples(bad)
        assert got[1] and got == oracle.distant_triple_witnesses(bad)


def test_bulk_pass_doubts_each_condition_it_checks(m2f2_line):
    """The bulk pass accepts the intact line and doubts a missing span, a
    span that meets a partner's, a scaled row outside its point's class and
    a lane sum off by one; a unit list that is not as long as every pair's
    common distant points gets no bulk keys at all."""
    us, spans = m2f2_line.units, m2f2_line.spans
    _, keys = projline._triple_keys(m2f2_line, us)
    assert projline._bulk_pass(spans, keys)
    x0, y0 = m2f2_line.points[0].canonical, m2f2_line.points[keys.pair_points[1][0]].canonical
    missing = {p: span for p, span in spans.items() if p != y0}
    assert not projline._bulk_pass(missing, keys)
    assert not projline._bulk_pass(spans | {x0: spans[x0] | spans[y0]}, keys)
    moved = bytes([keys.row_points[0] + 1]) + keys.row_points[1:]
    assert not projline._bulk_pass(spans, keys._replace(row_points=moved))
    assert not projline._bulk_pass(spans, keys._replace(expected=keys.expected + 1))
    assert projline._triple_keys(m2f2_line, us[:-1])[1] is None
    assert projline._triple_keys(m2f2_line, us + (m2f2_line.ring.zero,))[1] is None


def _units(change):
    def wrong_units(line, monkeypatch):
        monkeypatch.setattr(line, "units", _wrong_units(line, change))
        return line

    return wrong_units


def _first_failing_cell(table):
    def failing_cell(line, monkeypatch):
        ring = line.ring
        for x, y in itertools.product(range(ring.order), repeat=2):
            for value in _wrong_values(ring, table, x, y):
                bad = line._replace(ring=_with_cell(ring, table, x, y, value))
                if oracle.distant_triple_witnesses(bad)[1]:
                    return bad
        raise AssertionError(f"no {table} cell spoils a witness")

    return failing_cell


def _flipped_relation_cell(line, monkeypatch):
    rows = [list(row) for row in line.relation]
    rows[0][1] = rows[1][0] = "+" if rows[0][1] == "-" else "-"
    return line._replace(relation=tuple("".join(row) for row in rows))


def _span_meeting_a_partner(line, monkeypatch):
    i, j = next((i, row.index("+")) for i, row in enumerate(line.relation) if "+" in row)
    spans = dict(line.spans)
    spans[line.points[i].canonical] |= spans[line.points[j].canonical]
    monkeypatch.setattr(line, "spans", spans)
    return line


@pytest.mark.parametrize(
    "corrupt",
    [
        _units("drop"), _units("add"), _first_failing_cell("add_table"),
        _first_failing_cell("mul_table"), _flipped_relation_cell, _span_meeting_a_partner,
    ],
    ids=["units one short", "units with zero", "addition cell", "multiplication cell",
         "flipped relation cell", "span meeting a partner"],
)
def test_each_corruption_runs_the_unit_by_unit_loop(corrupt, monkeypatch, count_calls, m2f2_line):
    """Every corruption family leaves the bulk pass in doubt: the call runs
    the unit-by-unit loop once, and the witnesses and the failures are the
    oracle's (a unit list one short fails no unit, it only witnesses less)."""
    bad = corrupt(m2f2_line, monkeypatch)
    calls = count_calls("projline._witness_loop")
    got = _witnesses_as_triples(bad)
    assert calls == {"projline._witness_loop": 1}
    assert got == oracle.distant_triple_witnesses(bad)
    assert got[1] or len(got[0]) < 3360


def _wrong_values(ring, table, x, y):
    """Every wrong value of a cell of a small ring, and one of an m2f2 cell,
    varied from cell to cell: each case scans all n^2 pairs, so every wrong
    value of every m2f2 cell would cost seconds."""
    old = getattr(ring, table)[x][y]
    if ring.order < 16:
        return [v for v in ring.elements() if v != old]
    return [(old + 1 + (3 * x + y) % 15) % 16]


def _with_cell(ring, table, x, y, value):
    rows = [list(row) for row in getattr(ring, table)]
    rows[x][y] = value
    return ring._replace(**{table: tuple(map(tuple, rows))})


_OPERATION = {"add_table": "addition", "mul_table": "multiplication"}


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_ring_laws_match_oracle_on_corrupted_tables(table):
    """One wrong cell per row of m2f2, and every wrong value of every cell
    of the four small rings: every corrupted ring is rejected, with the
    changed cell named as a place where rep breaks the operation, and the
    law scan of the oracle finds a broken law in all of them but one."""
    ring = ring_by_name("m2f2")
    assert validate_ring(ring) == oracle.ring_law_problems(ring) == []
    for x in range(ring.order):
        rows = [list(row) for row in getattr(ring, table)]
        y = (5 * x + 3) % ring.order
        rows[x][y] = (rows[x][y] + 1) % ring.order
        bad = ring._replace(**{table: tuple(map(tuple, rows))})
        assert oracle.ring_law_problems(bad)
        assert f"rep breaks {_OPERATION[table]} at (x,y)=({x},{y})" in validate_ring(bad)
    cases = broken = 0
    for name in ("gf2", "gf4", "gf2xgf2", "gf2dual"):
        small = ring_by_name(name)
        n = small.order
        for x, y in itertools.product(range(n), repeat=2):
            for value in range(n):
                rows = [list(row) for row in getattr(small, table)]
                if rows[x][y] == value:
                    continue
                rows[x][y] = value
                bad = small._replace(**{table: tuple(map(tuple, rows))})
                problems = validate_ring(bad)
                assert f"rep breaks {_OPERATION[table]} at (x,y)=({x},{y})" in problems, (
                    name, x, y, value,
                )
                cases += 1
                broken += bool(oracle.ring_law_problems(bad))
    # gf2 has 4 cells with one wrong value each, the others 16 cells with 3
    assert cases == 4 + 3 * 48
    assert broken == cases - 1


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_rep_scan_matches_oracle_on_corrupted_tables(table):
    """Every wrong value of every cell of the four small rings, and one of
    every cell of m2f2: the representation problems come out as the
    pair-by-pair scan lists them."""
    cases = 0
    for name in ring_names():
        ring = ring_by_name(name)
        n = ring.order
        assert rings._rep_pair_problems(ring) == [] == oracle.rep_pair_problems(ring)
        for x, y in itertools.product(range(n), repeat=2):
            for value in _wrong_values(ring, table, x, y):
                bad = _with_cell(ring, table, x, y, value)
                expected = oracle.rep_pair_problems(bad)
                assert expected and rings._rep_pair_problems(bad) == expected, (name, x, y, value)
                cases += 1
    # 16 x 16 cells of m2f2 with one wrong value, gf2 4 x 1, the others 16 x 3
    assert cases == 256 + 4 + 3 * 48


# (add, mul) tables on {0, 1} on each of which exactly one law fails
ONE_LAW_BROKEN = {
    "addition is not associative": (((0, 0), (1, 0)), ((0, 0), (0, 0))),
    "multiplication is not associative": (((0, 0), (1, 1)), ((0, 0), (1, 0))),
    "left distributivity fails": (((0, 0), (0, 0)), ((0, 0), (1, 1))),
    "right distributivity fails": (((0, 0), (0, 0)), ((0, 1), (0, 1))),
}


@pytest.mark.parametrize("law", ONE_LAW_BROKEN)
def test_row_wise_laws_catch_each_law_alone(law):
    add, mul = ONE_LAW_BROKEN[law]
    bad = ring_by_name("gf2")._replace(add_table=add, mul_table=mul)
    laws = oracle.ring_law_problems(bad)
    assert laws and all(p.startswith(law) for p in laws)
    assert validate_ring(bad) == oracle.rep_problems(bad) != []


def _corruption_corpus():
    """(ring, kind, corrupted ring): wrong table cells (every wrong value of
    every cell of the small rings; one of every fourth m2f2 cell), every bit
    flip inside every rep matrix, and every (zero, one) relabelling."""
    for name in ring_names():
        ring = ring_by_name(name)
        n, k = ring.order, ring.rep_dim
        for table in ("add_table", "mul_table"):
            for x, y in itertools.product(range(n), repeat=2):
                if n < 16 or (x + y) % 4 == 0:
                    for value in _wrong_values(ring, table, x, y):
                        yield name, table, _with_cell(ring, table, x, y, value)
        for x, row, bit in itertools.product(range(n), range(k), range(k)):
            rep = [list(m) for m in ring.rep]
            rep[x][row] ^= 1 << bit
            yield name, "rep", ring._replace(rep=tuple(map(tuple, rep)))
        for zero, one in itertools.product(range(n), repeat=2):
            yield name, "labels", ring._replace(zero=zero, one=one)


def test_validate_ring_matches_oracle_on_corruption_corpus():
    """Each ring is valid exactly when the cell-by-cell law scan and the
    representation scan find nothing, and its problems are the
    representation scan's, in its order: so deciding a ring by its matrix
    model accepts exactly the rings the scans accept."""
    laws_of = {}
    cases, valid = Counter(), []
    for name, kind, bad in _corruption_corpus():
        tables = bad.add_table, bad.mul_table
        if tables not in laws_of:
            laws_of[tables] = oracle.ring_law_problems(bad)
        laws, reps = laws_of[tables], oracle.rep_problems(bad)
        problems = validate_ring(bad)
        assert (problems == []) == (laws == reps == []), (name, kind)
        assert problems == reps, (name, kind)
        cases[kind] += 1
        if not problems:
            valid.append((name, kind, bad.zero, bad.one))
    # m2f2: 64 cells per table, 16 x 4 bits, 16 x 16 labellings; gf2: 4 cells,
    # 2 x 1 bits, 2 x 2 labellings; the others 16 x 3 cells, 4 x 4 bits, 4 x 4
    assert cases == {
        "add_table": 64 + 4 + 144,
        "mul_table": 64 + 4 + 144,
        "rep": 64 + 2 + 48,
        "labels": 256 + 4 + 48,
    }
    assert valid == [(name, "labels", 0, 1) for name in ring_names()]


@pytest.mark.parametrize("name", ring_names())
def test_warm_validate_ring_runs_no_scan(name, monkeypatch):
    """A model ring, or a copy with equal tables, is accepted on one cached
    ``_model_tables`` lookup: no pair scan runs."""
    ring = ring_by_name(name)
    copy = ring_from_json_dict(ring_to_json_dict(ring))
    assert copy.add_table is not ring.add_table

    def refuse(ring):
        raise AssertionError("pair scan on a model ring")

    validate_ring(ring)  # warm its entry, which other rings may have evicted
    monkeypatch.setattr(rings, "_rep_pair_problems", refuse)
    before = rings._model_tables.cache_info()
    assert validate_ring(ring) == validate_ring(copy) == []
    after = rings._model_tables.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


# swaps of two rep entries that an automorphism makes: the Frobenius map of
# GF(4) and the factor swap of GF(2) x GF(2) leave a valid ring
AUTOMORPHISM_SWAPS = {("gf4", 2, 3), ("gf2xgf2", 2, 3)}


def _corrupted_rings():
    """(intact ring, corrupted copy): every wrong value of every table cell
    of the four small rings, one of every fourth m2f2 cell, and every swap
    of two ``rep`` entries that no automorphism makes."""
    for name in ring_names():
        ring = ring_by_name(name)
        for table in ("add_table", "mul_table"):
            for x, y in itertools.product(ring.elements(), repeat=2):
                if ring.order < 16 or not (x + y) % 4:
                    for value in _wrong_values(ring, table, x, y):
                        yield ring, _with_cell(ring, table, x, y, value)
        for x, y in itertools.combinations(ring.elements(), 2):
            rep = list(ring.rep)
            rep[x], rep[y] = rep[y], rep[x]
            swapped = ring._replace(rep=tuple(rep))
            if (name, x, y) in AUTOMORPHISM_SWAPS:
                assert validate_ring(swapped) == []
            else:
                yield ring, swapped


def _module_caches():
    """Each ``lru_cache`` in the globals of a ringline module, once."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ringline"]
    found = {id(f): f for m in modules for f in vars(m).values() if hasattr(f, "cache_info")}
    return {f"{f.__module__}.{f.__qualname__}": f for f in found.values()}


def test_corrupted_rings_leave_no_cache_entries():
    """Over 500 corrupted rings, table cells and rep swaps alike, through
    ``validate_ring``, ``enumerate_line`` and the triple witnesses of a line
    that carries them: each is refused or checked, and every module cache
    that these calls reach holds no more entries than there are named rings.
    A cache that they do not reach (the isomorphisms, keyed by graphs) is
    left as it was."""
    caches = _module_caches()
    before = {name: f.cache_info() for name, f in caches.items()}
    count = 0
    for ring, bad in _corrupted_rings():
        assert validate_ring(bad)
        with pytest.raises(ValueError, match="is not a ring"):
            enumerate_line(bad)
        distant_triple_witnesses(enumerate_line(ring)._replace(ring=bad))
        count += 1
    assert count >= 500
    after = {name: f.cache_info() for name, f in caches.items()}
    reached = {name for name in caches if after[name][:2] != before[name][:2]}
    assert {"ringline.rings._model_tables", "ringline.projline.enumerate_line"} <= reached
    assert {name: after[name].currsize for name in reached if after[name].currsize > len(ring_names())} == {}


# ---------------------------------------------------------------------------
# the calls of a first and a warm run: nothing is kept between runs but
# derived structure

# "module.function" -> (its calls in the first ``verify_all()`` on a fresh
# ``Structure``, once an earlier run has filled the module caches, and in
# each warm ``verify_all()``).  A warm run makes the verdict calls of every
# run and no other: it searches, derives and words nothing.
LEDGER = {
    # the isomorphism searches, and the image tables of the mappings found
    "quadrangle.mask_isomorphism": (17, 0),
    "quadrangle.graph_isomorphism": (0, 0),
    "quadrangle.is_petersen": (0, 0),
    "quadrangle._Carry": (17, 0),
    # the parts of the structure, each derived once
    "projline.simultaneous_subconfig": (1, 0),
    "projline.induced_signs": (1, 0),
    "quadrangle.triangles": (1, 0),
    "quadrangle.build_gq_from_graph": (1, 0),
    "quadrangle.dual": (1, 0),
    "quadrangle.enumerate_hyperplanes": (1, 0),
    "quadrangle.enumerate_spreads": (1, 0),
    "correspondence.operator_signs": (1, 0),
    "pauli.commutation_table": (1, 0),
    "projline.induced_neighbor_masks": (24, 0),  # the nine, 2 + 6 fives and 15 sixes of the sub-lines
    "correspondence._parallel_classes": (10, 0),
    # the words, picks and operator lists the structure keeps
    "correspondence._cset": (78, 0),
    "golden.c_label": (0, 0),
    "correspondence._picker": (36, 0),
    "correspondence._ops_for": (0, 0),
    # the stages that several read, each built once per run
    "correspondence.line_table": (1, 1),
    "correspondence.standard_square": (1, 1),
    "correspondence.verify_petersen": (1, 1),
    # each kept mapping checked once: 24 sub-lines, the self-duality and six Petersen complements
    "quadrangle.mask_maps_onto": (31, 31),
    "quadrangle.validate_gq_axioms": (2, 1),  # first, as the quadrangle is recovered too
    "quadrangle.is_strongly_regular": (1, 1),
    "quadrangle._exact_covers": (3, 2),  # the ovoids of the quadrangle and its dual; first, the spreads
    "rings.validate_ring": (5, 5),
    "projline.is_admissible": (35, 35),
    "projline.distant_triple_witnesses": (1, 1),
    "projline._bulk_pass": (1, 1),
    "projline._witness_loop": (0, 0),  # the intact line passes the bulk pass
    "projline.map_standard_triple_to": (0, 0),
    "gf2.rank": (0, 0),
    "gf2.multiply": (0, 0),
    "pauli.multiply": (0, 0),
    "pauli.commutes": (330, 105),  # 10 per ovoid five, 3 per line; first, the 225 operator signs
    "pauli.line_facts": (15, 15),  # each of the 15 lines signed once
    "pauli.line_product_sign": (15, 15),
    # the standard square and the ten grids, each evaluated once, on six line signs
    "pauli.mermin_square_check": (11, 11),
    "correspondence.grid_mermin_arrangement": (10, 10),
    "correspondence._line_sign": (66, 66),
    # six spreads of five bases, each with five orthonormality and ten pair tests in closed form
    "pauli.mub_spread_check": (6, 6),
    "pauli._orthonormal": (30, 30),
    "pauli._unbiased": (60, 60),
    "pauli._trace_matrix": (0, 0),
}


# the verdict functions: a warm run calls each of them, as it keeps no verdict
VERDICTS = (
    "quadrangle.mask_maps_onto", "quadrangle.validate_gq_axioms", "quadrangle.is_strongly_regular",
    "quadrangle._exact_covers", "pauli.mub_spread_check", "pauli.mermin_square_check", "pauli.line_facts",
    "pauli._orthonormal", "pauli._unbiased", "projline.distant_triple_witnesses", "rings.validate_ring",
    "correspondence.line_table",
)


def _kept_parts(st):
    # the parts of ``st`` by name, each keyed part as a copy of its entries, so that an entry it gains later shows
    return {name: dict(part) if isinstance(part, co._Kept) else part for name, part in vars(st).items()}


def _tables(st):
    # a copy of the tables of the quadrangle and of its dual
    return [dict(vars(s)) for s in (st.gq, st.gq.dual_structure)]


@pytest.fixture(scope="module")
def ledger_runs():
    """On a fresh structure, once an earlier run has filled the module
    caches: a first ``verify_all()``, two warm ones and a trinity run, each
    with whether it passed and the calls of each ``LEDGER`` function; the
    structure, and its kept parts and quadrangle tables after the first run
    (``kept``, ``tables``) and after the rest (``kept_now``, ``tables_now``)."""
    co.verify_all()
    st = co.Structure()
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(co, "STRUCTURE", st)
        calls = counted_calls(mp, *LEDGER)
        for name, run in [("first", co.verify_all), ("warm", co.verify_all), ("second warm", co.verify_all),
                          ("trinity", lambda: co.run("hyperplane trinity"))]:
            calls.clear()
            passed = run().passed
            runs[name] = passed, {key: calls[key] for key in LEDGER}
            if name == "first":
                kept, tables = _kept_parts(st), _tables(st)
    return SimpleNamespace(st=st, runs=runs, kept=kept, tables=tables, kept_now=_kept_parts(st),
                           tables_now=_tables(st))


@pytest.mark.parametrize("run", ["first", "warm", "second warm"])
def test_a_first_and_a_warm_run_make_the_ledger_calls(run, ledger_runs):
    """Each function of ``LEDGER``, counted wherever a ringline module binds
    it, is called as its column says in a first ``verify_all()`` on a fresh
    structure and in each of two warm ones."""
    passed, calls = ledger_runs.runs[run]
    assert passed and calls == {key: counts[run != "first"] for key, counts in LEDGER.items()}


def test_no_verdict_is_cached():
    """A warm run calls each verdict function, so the table keeps none."""
    assert {key for key in VERDICTS if LEDGER[key][1] == 0} == set()


def test_warm_verify_all_derives_nothing(ledger_runs):
    """The warm runs and the trinity run change no kept part."""
    assert ledger_runs.kept_now == ledger_runs.kept


def test_warm_verify_all_words_nothing(ledger_runs):
    """The first run words each label that a check shows, and the runs after
    it word none: ``labels`` gains no entry."""
    labels = ledger_runs.kept["labels"]
    assert labels and ledger_runs.kept_now["labels"].keys() == labels.keys()


def test_warm_verify_all_builds_no_dual(ledger_runs):
    """The runs after the first change no table of the quadrangle or its
    dual, and both keep their pencil masks and cover index."""
    tables = ledger_runs.tables
    assert ledger_runs.tables_now == tables
    assert {"pencil_masks", "cover_index"} <= tables[0].keys() & tables[1].keys()


def test_a_fresh_incidence_structure_builds_its_dual_once(count_calls):
    """A structure keeps its dual: two reads build it once."""
    real = quadrangle.dual
    calls = count_calls("quadrangle.dual")
    s = IncidenceStructure(*co.STRUCTURE.gq)
    assert s.dual_structure is s.dual_structure == real(s)
    assert calls == {"quadrangle.dual": 1}


def test_split_9_6_builds_the_nine_masks_once(ledger_runs):
    """The first run keeps the masks of each of the 24 sub-lines, the nine's
    among them, which the balance check and the gf2xgf2 witness both read."""
    st, induced = ledger_runs.st, ledger_runs.kept["induced"]
    nine = tuple(st.sub[3][6:])
    assert len(induced) == 24
    assert induced[nine] == (nine, projline.induced_neighbor_masks(st.sub[0], nine))


def test_each_stage_is_built_once_per_run(ledger_runs):
    """The trinity alone builds once each stage that two of its inputs
    read: the Petersen report, the line table and the standard square."""
    passed, calls = ledger_runs.runs["trinity"]
    assert passed
    assert [calls[f"correspondence.{f}"] for f in ("verify_petersen", "line_table", "standard_square")] == [1, 1, 1]


def test_warm_verify_all_leaves_almost_no_cycles():
    """With the cyclic collector off, a warm ``verify_all()`` frees what it
    allocates by reference counting: a recursive closure would leave its
    cell, its frame's locals and both graphs of every search behind."""
    co.verify_all()
    gc.collect()
    gc.disable()
    try:
        co.verify_all()
        assert gc.collect() < 150
    finally:
        gc.enable()
