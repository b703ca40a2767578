"""The verifier kernels against their reference forms in ``kernel_oracle``,
and the rule that no verdict is cached between runs."""

import gc
import itertools
import sys
from collections import Counter

import pytest

import kernel_oracle as oracle
from ringline import correspondence as co
from ringline import pauli, projline, quadrangle, rings
from ringline.pauli import PauliOp, line_product_sign
from ringline.projline import distant_triple_witnesses, enumerate_line
from ringline.quadrangle import (
    Graph,
    IncidenceStructure,
    complement_graph_of_ovoid,
    dual,
    graph_isomorphism,
    petersen_graph,
    validate_gq_axioms,
)
from ringline.rings import (
    ring_by_name,
    ring_from_json_dict,
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
    s = co.canonical_gq() if face == "canonical" else dual(co.canonical_gq())
    assert validate_gq_axioms(s) == oracle.validate_gq_axioms(s) == []


@pytest.mark.parametrize("face", ["canonical", "dual"])
def test_gq_axioms_match_oracle_on_corrupted_structures(face):
    """Every point dropped from its line and every pair of lines trading a
    point: the same problem strings in the same order, never none."""
    s = co.canonical_gq() if face == "canonical" else dual(co.canonical_gq())
    corrupted = [_dropped(s, i, p) for i, line in enumerate(s.lines) for p in sorted(line)]
    corrupted += [_swapped(s, i, j) for i, j in itertools.combinations(range(len(s.lines)), 2)]
    assert len(corrupted) == 45 + 105
    for bad in corrupted:
        problems = validate_gq_axioms(bad)
        assert problems and problems == oracle.validate_gq_axioms(bad), bad.lines


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
    g = co.neighbor_graph()
    h = _relabelled(g, lambda v: 16 - v)
    iso = graph_isomorphism(g, h)
    assert iso is not None and iso == oracle.graph_isomorphism(g, h)
    assert all(h.has_edge(iso[u], iso[v]) for u, v in g.edges)
    for u, v in itertools.combinations(h.vertices, 2):
        assert graph_isomorphism(g, _toggled(h, (u, v))) is None


def test_graph_isomorphism_matches_oracle_after_a_switch():
    """Switches keep every degree, so only the search can refuse them."""
    for g, limit in ((petersen_graph(), None), (co.neighbor_graph(), 12)):
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
    the one cache of kept searches is cleared, wherever ``mask_isomorphism``
    is bound."""
    co.verify_all()
    co._kept_isomorphism.cache_clear()
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


@pytest.mark.parametrize("change", ["drop", "add"])
def test_distant_triple_witnesses_match_oracle_on_wrong_unit_lists(change, monkeypatch):
    """A unit list one short, or with zero added, read afresh on each call:
    the witnesses and the failures, in order, are the oracle's."""
    for name in WITNESS_RINGS:
        line = enumerate_line(ring_by_name(name))
        good = rings.units(line.ring)
        wrong = frozenset(sorted(good)[:-1]) if change == "drop" else good | {line.ring.zero}
        for module in (projline, oracle):
            monkeypatch.setattr(module, "units", lambda ring: wrong)
        got = _witnesses_as_triples(line)
        assert got == oracle.distant_triple_witnesses(line)
        assert bool(got[1]) == (change == "add")
        monkeypatch.undo()
        assert _witnesses_as_triples(line) == oracle.distant_triple_witnesses(line)


def test_distant_triple_witnesses_match_oracle_on_corrupted_addition():
    """Each built line of m2f2, gf4 and gf2xgf2 with one addition cell
    changed (every wrong value of every cell of the small rings, one of
    every fourth m2f2 cell): the witnesses and the failures, in order, are
    the oracle's, both where a pair passes in one pass and where the
    unit-by-unit loop has to name a failure."""
    outcomes = Counter()
    for name in WITNESS_RINGS:
        line = enumerate_line(ring_by_name(name))
        ring = line.ring
        for x, y in itertools.product(range(ring.order), repeat=2):
            if ring.order == 16 and (x + y) % 4:
                continue
            for value in _wrong_values(ring, "add_table", x, y):
                bad = line._replace(ring=_with_cell(ring, "add_table", x, y, value))
                got = _witnesses_as_triples(bad)
                assert got == oracle.distant_triple_witnesses(bad), (name, x, y, value)
                outcomes[bool(got[1])] += 1
    # 64 m2f2 cells with one wrong value, 16 cells with 3 in each small ring
    assert sum(outcomes.values()) == 64 + 2 * 48
    assert outcomes[True] and outcomes[False]


def test_distant_triple_witnesses_match_oracle_on_flipped_cells(m2f2_line):
    for i, j in ((0, 1), (0, 5), (3, 17), (10, 34), (20, 21)):
        rows = [list(row) for row in m2f2_line.relation]
        rows[i][j] = rows[j][i] = "+" if rows[i][j] == "-" else "-"
        bad = m2f2_line._replace(relation=tuple("".join(row) for row in rows))
        got = _witnesses_as_triples(bad)
        assert got[1] and got == oracle.distant_triple_witnesses(bad)


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


def _laws(ring):
    return [p for p in validate_ring(ring) if "(x,y,z)" in p]


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_ring_laws_match_oracle_on_corrupted_tables(table):
    """One wrong cell per row of m2f2, and every wrong value of every cell
    of the four small rings: the associativity and distributivity problems
    come out as the cell-by-cell scan lists them."""
    ring = ring_by_name("m2f2")
    assert _laws(ring) == oracle.ring_law_problems(ring) == []
    for x in range(ring.order):
        rows = [list(row) for row in getattr(ring, table)]
        y = (5 * x + 3) % ring.order
        rows[x][y] = (rows[x][y] + 1) % ring.order
        bad = ring._replace(**{table: tuple(map(tuple, rows))})
        laws = _laws(bad)
        assert laws and laws == oracle.ring_law_problems(bad)
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
                expected = oracle.ring_law_problems(bad)
                assert _laws(bad) == expected, (name, x, y, value)
                cases += 1
                broken += bool(expected)
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
    problems = oracle.ring_law_problems(bad)
    assert problems and all(p.startswith(law) for p in problems)
    assert _laws(bad) == problems


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
    representation scan find nothing, and its law and rep problems are
    theirs, in their order: so accepting a ring because its tables are its
    matrices' tables accepts exactly the rings the scans accept."""
    laws_of = {}
    cases, valid = Counter(), []
    for name, kind, bad in _corruption_corpus():
        tables = bad.add_table, bad.mul_table
        if tables not in laws_of:
            laws_of[tables] = oracle.ring_law_problems(bad)
        laws, reps = laws_of[tables], oracle.rep_problems(bad)
        problems = validate_ring(bad)
        assert (problems == []) == (laws == reps == []), (name, kind)
        assert [p for p in problems if "(x,y,z)" in p] == laws, (name, kind)
        assert [p for p in problems if p.startswith("rep")] == reps, (name, kind)
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

    monkeypatch.setattr(rings, "_rep_pair_problems", refuse)
    before = rings._model_tables.cache_info()
    assert validate_ring(ring) == validate_ring(copy) == []
    after = rings._model_tables.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


# ---------------------------------------------------------------------------
# nothing is cached between runs except derived structure

VERDICTS = {
    "quadrangle": ("mask_maps_onto", "validate_gq_axioms"),
    "pauli": ("mub_spread_check", "mermin_square_check"),
    "projline": ("distant_triple_witnesses",),
    "rings": ("validate_ring",),
}


def _count_calls(monkeypatch, *functions):
    """Wrap each function wherever a ringline module binds it; the Counter
    of calls by function name."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("ringline.")]
    for real in functions:

        def counted(*args, _name=real.__name__, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_no_verdict_is_cached(monkeypatch):
    """Each verdict function is wrapped in its defining module and in every
    module that imported it; two consecutive runs, after the one that fills
    the derived structure, call each of them equally often and not never."""
    co.verify_all()
    verdicts = [
        getattr(sys.modules[f"ringline.{short}"], name)
        for short, names in VERDICTS.items()
        for name in names
    ]
    calls = _count_calls(monkeypatch, *verdicts)
    runs = []
    for _ in range(2):
        calls.clear()
        assert co.verify_all().passed
        runs.append(dict(calls))
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == sorted(n for names in VERDICTS.values() for n in names)
    assert all(n > 0 for n in runs[0].values())


def test_warm_verify_all_searches_nothing(monkeypatch):
    """Every isomorphism of a warm ``verify_all()`` is a kept mapping that is
    checked, not searched again: the 24 sub-lines, the self-duality and the
    six Petersen mappings, each Petersen mapping once although two reports
    use it."""
    co.verify_all()
    calls = _count_calls(
        monkeypatch, quadrangle.mask_isomorphism, quadrangle.graph_isomorphism,
        quadrangle.mask_maps_onto,
    )
    assert co.verify_all().passed
    assert calls == {"mask_maps_onto": 24 + 1 + 6}


def test_warm_verify_all_builds_no_dual(monkeypatch):
    """``quadrangle.dual`` is wrapped wherever it is bound: a structure
    builds its dual once, and a warm ``verify_all()`` builds none."""
    built = []
    real = quadrangle.dual

    def counted(s):
        built.append(s)
        return real(s)

    for module in [m for name, m in sys.modules.items() if name.startswith("ringline.")]:
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, counted)
    s = IncidenceStructure(*co.canonical_gq())
    assert s.dual_structure is s.dual_structure == real(s)
    assert built == [s]
    co.verify_all()
    built.clear()
    assert co.verify_all().passed
    assert built == []


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
