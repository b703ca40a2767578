"""End-to-end verifiers: sign tables, splits, sublines, reports."""

import itertools
import json
from types import MappingProxyType

import pytest

from kernel_oracle import witnessed_triples
from ringline import cli, golden, pauli, projline
from ringline import correspondence as co
from ringline.correspondence import (
    GRID,
    CheckResult,
    Report,
    _ops_for,
    canonical_gq,
    canonical_hyperplanes,
    geometric_signs,
    grid_mermin_arrangement,
    operator_signs,
    perp_subline_check,
    trinity_report,
    verify_all,
    verify_gq_structure,
    verify_hyperplane_census,
    verify_line_census,
    verify_mermin,
    verify_mub,
    verify_perp_sublines,
    verify_petersen,
    verify_relation_signs,
    verify_ring_tables,
    verify_split_9_6,
    verify_split_10_5,
    verify_subconfig,
    verify_transitivity,
)
from ringline.rings import ring_by_name, validate_ring


def test_geometric_signs_match_fixture():
    assert geometric_signs() == golden.CANONICAL_SIGNS


def test_operator_signs_match_fixture():
    assert operator_signs() == golden.CANONICAL_SIGNS


def test_sign_table_symmetric_with_minus_diagonal():
    # every point is its own neighbor, so the diagonal carries "-"
    rows = geometric_signs()
    for i in range(15):
        assert rows[i][i] == "-"
        for j in range(15):
            assert rows[i][j] == rows[j][i]


ALL_VERIFIERS = [
    verify_ring_tables,
    verify_line_census,
    verify_subconfig,
    verify_relation_signs,
    verify_gq_structure,
    verify_hyperplane_census,
    verify_petersen,
    verify_split_9_6,
    verify_split_10_5,
    verify_perp_sublines,
    verify_mermin,
    verify_mub,
    trinity_report,
    verify_all,
]


@pytest.mark.parametrize("verifier", ALL_VERIFIERS, ids=lambda f: f.__name__)
def test_verifier_passes(verifier):
    report = verifier()
    assert report.passed, report.to_text()


def test_verify_all_check_totals():
    total, failed = verify_all().tally()
    assert failed == 0
    assert total == 100


def test_relation_signs_detects_corruption():
    flip = {"+": "-", "-": "+"}
    rows = list(golden.CANONICAL_SIGNS)
    # flip two symmetric off-diagonal cells: C1 vs C2 and C3 vs C7
    for i, j in ((0, 1), (2, 6)):
        row = list(rows[i])
        row[j] = flip[row[j]]
        rows[i] = "".join(row)
        row = list(rows[j])
        row[i] = flip[row[i]]
        rows[j] = "".join(row)
    report = verify_relation_signs(reference=tuple(rows))
    assert not report.passed
    diffs = report.data["diffs"]
    assert any("C1,C2" in d for d in diffs)
    assert any("C3,C7" in d for d in diffs)


def test_relation_signs_rejects_malformed_reference():
    report = verify_relation_signs(reference=("+-", "-+"))
    assert not report.passed
    assert any(
        not c.passed and "well-formed" in c.name for c in report.checks
    )


def _flip_cell_pair(rows, i, j):
    """``rows`` with the symmetric cells (i, j) and (j, i) flipped."""
    flip = {"+": "-", "-": "+"}
    out = [list(r) for r in rows]
    out[i][j] = flip[out[i][j]]
    out[j][i] = flip[out[j][i]]
    return tuple("".join(r) for r in out)


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


@pytest.fixture
def fresh_structure():
    """Rebuild the cached quadrangle while a test runs, and again after it."""
    caches = (
        co._m2f2_sub,
        co.geometric_signs,
        co.neighbor_graph,
        co.canonical_gq,
        co.canonical_hyperplanes,
        co.canonical_spreads,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_every_fixture_flip_fails_only_the_fixture_checks(monkeypatch, fresh_structure):
    """The structure is rooted in the geometry, so each of the 105 symmetric
    flips of the stored fixture fails exactly the comparisons against it,
    naming the flipped cell, and raises nothing."""
    pairs = list(itertools.combinations(range(15), 2))
    assert len(pairs) == 105
    for i, j in pairs:
        monkeypatch.setattr(
            golden, "CANONICAL_SIGNS", _flip_cell_pair(geometric_signs(), i, j)
        )
        co.neighbor_graph.cache_clear()
        assert _failed(verify_subconfig()) == {"induced matrix equals fixture"}
        report = verify_relation_signs()
        assert _failed(report) == {"geometry vs fixture", "operators vs fixture"}
        cell = f"C{i + 1},C{j + 1}:"
        assert any(d.startswith(cell) for d in report.data["diffs"])


def test_fixture_flip_fails_verify_all_without_traceback(
    monkeypatch, fresh_structure, capsys
):
    monkeypatch.setattr(
        golden, "CANONICAL_SIGNS", _flip_cell_pair(golden.CANONICAL_SIGNS, 0, 6)
    )
    co.neighbor_graph.cache_clear()
    assert verify_all().tally() == (100, 3)
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert "result: FAIL" in captured.out
    assert captured.err == ""


def _ring_with_add_cell(name, x, y):
    """Serve the named ring with addition cell (x, y) moved up by one, and
    return that ring."""

    def corrupt(monkeypatch):
        real = co.ring_by_name
        rows = [list(row) for row in real(name).add_table]
        rows[x][y] = (rows[x][y] + 1) % len(rows)
        bad = real(name)._replace(add_table=tuple(map(tuple, rows)))
        monkeypatch.setattr(co, "ring_by_name", lambda n: bad if n == name else real(n))
        return bad

    return corrupt


def _golden_changed(attr, change):
    def corrupt(monkeypatch):
        monkeypatch.setattr(golden, attr, change(getattr(golden, attr)))

    return corrupt


def _flip_mul_fixture_cell(table):
    rows = [list(row) for row in table]
    rows[2][3] ^= 1
    return tuple(map(tuple, rows))


def _zero_divisors_without_zero(monkeypatch):
    real = co.zero_divisors
    monkeypatch.setattr(co, "zero_divisors", lambda ring: real(ring) - {ring.zero})


# check of the ring-construction report -> a corruption that must fail it
RING_CHECK_CORRUPTIONS = {
    "addition table matches fixture": _ring_with_add_cell("m2f2", 3, 5),
    "multiplication table matches fixture": _golden_changed(
        "M2F2_MUL_TABLE", _flip_mul_fixture_cell
    ),
    "unit set": _golden_changed("M2F2_UNITS", lambda u: u - {max(u)}),
    "zero divisor count": _zero_divisors_without_zero,
    "ring axioms hold for m2f2": _ring_with_add_cell("m2f2", 3, 5),
    "ring axioms hold for gf2": _ring_with_add_cell("gf2", 1, 1),
    "ring axioms hold for gf4": _ring_with_add_cell("gf4", 2, 3),
    "ring axioms hold for gf2xgf2": _ring_with_add_cell("gf2xgf2", 2, 3),
    "ring axioms hold for gf2dual": _ring_with_add_cell("gf2dual", 2, 3),
}


def test_ring_corruption_table_covers_every_ring_check():
    assert [c.name for c in verify_ring_tables().checks] == list(RING_CHECK_CORRUPTIONS)


@pytest.mark.parametrize("check", RING_CHECK_CORRUPTIONS)
def test_every_ring_check_fails_through_verify_all(check, monkeypatch, fresh_structure, capsys):
    """Each corruption, with the structure rebuilt under it, fails its check
    in the full certificate, an axiom check naming the first problem of the
    ring; ``verify_all()`` returns and ``ringline verify all`` exits 1
    without a traceback."""
    intact = {c.name: c.detail for c in verify_ring_tables().checks}
    bad = RING_CHECK_CORRUPTIONS[check](monkeypatch)
    detail = validate_ring(bad)[0] if check.startswith("ring axioms") else intact[check]
    ring_report = verify_all().subreports[0]
    assert ring_report.title == "ring construction"
    assert {c.name: (c.passed, c.detail) for c in ring_report.checks}[check] == (False, detail)
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert "result: FAIL" in captured.out
    assert f"[FAIL] {check}: {detail}" in captured.out
    assert captured.err == ""


@pytest.fixture
def swap_labels(monkeypatch):
    """Swap two entries of the operator dictionary for the rest of a test."""

    def swap(i, j):
        labels = list(golden.OPERATOR_LABELS)
        labels[i], labels[j] = labels[j], labels[i]
        monkeypatch.setattr(pauli, "OPERATOR_LABELS", tuple(labels))
        pauli.standard_labeling.cache_clear()

    yield swap
    monkeypatch.undo()
    pauli.standard_labeling.cache_clear()


def _raised(report):
    return {c.name for c in report.checks if c.detail.startswith("raised ValueError: ")}


def test_every_label_swap_fails_by_stage_without_traceback(swap_labels):
    """Each of the 105 transpositions of the operator labels breaks some
    quadrangle line's commutation, which the pauli layer raises on; the
    verifiers turn that into failed checks naming the stage, one for one."""
    square = "nine common neighbors in standard rows form a magic square"
    base_split = verify_split_9_6().tally()
    base_trinity = trinity_report().tally()
    for i, j in itertools.combinations(range(15), 2):
        swap_labels(i, j)
        split = verify_split_9_6()
        trinity = trinity_report()
        mermin, mub = trinity.subreports[2:]
        assert (mermin.title, mub.title) == ("magic squares", "unbiased bases")
        assert _raised(mermin) and not mermin.passed
        assert _raised(mub) and not mub.passed
        assert {"grid row: 10 grids, gf2xgf2 sublines, magic squares",
                "spread bonus: 6 spreads, unbiased bases"} <= _failed(trinity)
        # the standard square holds the points C7..C15 only
        touched = j >= 6
        assert _failed(split) == _raised(split) == ({square} if touched else set())
        assert split.tally()[0] == base_split[0]
        assert trinity.tally()[0] == base_trinity[0]


def test_label_swap_fails_verify_all_and_cli_without_traceback(swap_labels, capsys):
    swap_labels(0, 6)
    total, failed = verify_all().tally()
    assert total == 100 and failed > 0
    for argv in (["verify", "all"], ["pauli", "mermin"], ["pauli", "mub"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "result: FAIL" in captured.out
        assert "raised ValueError: " in captured.out
        assert captured.err == ""
    assert cli.main(["pauli", "mub", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["detail"].startswith("raised ValueError: triple ")


def test_relation_isomorphism_exists():
    mapping = co.graph_isomorphism(
        projline.signs_graph(geometric_signs()), projline.signs_graph(operator_signs())
    )
    assert mapping is not None
    assert sorted(mapping) == list(range(15))
    assert sorted(mapping.values()) == list(range(15))


def test_relation_isomorphism_searches_the_line_graph():
    """Against a line, the search runs on masks induced from the line's
    cached neighbor masks, which are the graphs of the relation rows, and
    finds the mapping the search on those graphs finds."""
    line, _, _, pts = co._m2f2_sub()
    nine = projline.induced_neighbor_masks(line, pts[6:])
    signs = projline.signs_graph(projline.induced_signs(line, pts[6:]))
    assert nine == [sum(1 << j for j in signs.neighbors(i)) for i in range(9)]
    grid_line = projline.enumerate_line(ring_by_name("gf2xgf2"))
    mapping = co.mask_isomorphism(nine, grid_line.neighbor_masks)
    assert mapping is not None
    assert mapping == co.graph_isomorphism(signs, projline.signs_graph(grid_line.relation))
    five = projline.induced_neighbor_masks(line, pts[6:11])
    assert co.mask_isomorphism(five, grid_line.neighbor_masks) is None


def test_triple_split_regression():
    report = verify_split_9_6()
    assert report.passed
    assert report.data["triples"] == [sorted(s) for s in golden.TRIPLE_SPLIT]


def test_perp_subline_of_c13():
    report = perp_subline_check(13)
    assert report.passed
    assert report.data["center"] == 13
    assert report.data["pairs"] == [[4, 5], [7, 10], [14, 15]]


@pytest.mark.parametrize("bad", [0, 16, -3])
def test_perp_subline_rejects_bad_point(bad):
    with pytest.raises(ValueError):
        perp_subline_check(bad)


def test_trinity_report_shape():
    report = trinity_report()
    assert report.passed
    assert len(report.subreports) == 4
    rows = report.data["rows"]
    assert [r["count"] for r in rows] == [6, 15, 10]
    assert [r["subline"] for r in rows] == ["gf4", "gf2dual", "gf2xgf2"]


def test_grid_mermin_arrangement_deterministic_and_magic():
    report = verify_mermin()
    assert report.passed
    standard = ((7, 8, 9), (10, 11, 12), (13, 14, 15))
    arr = grid_mermin_arrangement(frozenset(range(7, 16)))
    assert arr is not None
    again = grid_mermin_arrangement(frozenset(range(7, 16)))
    assert arr == again
    # rows and columns of the returned arrangement are all operator lines
    # whose six product signs multiply to -1
    from ringline.correspondence import _ops_for
    from ringline.pauli import line_product_sign

    rows = [arr[i] for i in range(3)]
    cols = [tuple(arr[i][j] for i in range(3)) for j in range(3)]
    prod = 1
    for triple in rows + cols:
        prod *= line_product_sign(_ops_for(triple))
    assert prod == -1


def _every_arrangement(points):
    """(flattened labels, magic) for every consistent 3x3 arrangement of a
    grid: rows one parallel class of its six lines, columns the other, each
    cell the point they share.  This is the exhaustive search the verifier
    replaced with one evaluation."""
    from ringline.pauli import mermin_square_check

    inside = [line for line in canonical_gq().lines if line <= points]
    first = inside[0]
    cls1 = [l for l in inside if not (l & first) or l == first]
    cls2 = [l for l in inside if l not in cls1]
    out = []
    for rows_cls, cols_cls in ((cls1, cls2), (cls2, cls1)):
        for row_perm in itertools.permutations(rows_cls):
            for col_perm in itertools.permutations(cols_cls):
                cells = [r & c for r in row_perm for c in col_perm]
                if any(len(cell) != 1 for cell in cells):
                    continue
                flat = tuple(next(iter(cell)) for cell in cells)
                grid = [_ops_for(flat[i : i + 3]) for i in (0, 3, 6)]
                out.append((flat, mermin_square_check(grid).magic))
    return out


def test_grid_mermin_arrangement_matches_exhaustive_search():
    grids = [h for h in canonical_hyperplanes() if h.kind == GRID]
    assert len(grids) == 10
    for h in grids:
        arrangements = _every_arrangement(h.points)
        assert len(arrangements) == 72
        assert len({magic for _, magic in arrangements}) == 1
        least = min(flat for flat, magic in arrangements if magic)
        assert grid_mermin_arrangement(h.points) == (least[0:3], least[3:6], least[6:9])


def test_grid_mermin_arrangement_rejects_crossing_classes():
    # six lines in two classes of three disjoint lines, but some row and
    # column do not meet, so no arrangement is consistent
    points = frozenset((1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12))
    assert _every_arrangement(points) == []
    assert grid_mermin_arrangement(points) is None


def test_grid_without_magic_gives_no_arrangement(monkeypatch):
    import ringline.correspondence as co
    from ringline.pauli import MerminResult

    monkeypatch.setattr(
        co, "mermin_square_check", lambda grid: MerminResult((1, 1, 1), (1, 1, 1))
    )
    assert grid_mermin_arrangement(frozenset(range(7, 16))) is None
    report = verify_mermin()
    assert not report.passed
    grid_checks = [c for c in report.checks if c.name.startswith("grid ")]
    assert len(grid_checks) == 10
    assert not any(c.passed for c in grid_checks)


def test_mub_report_covers_all_spreads():
    report = verify_mub()
    assert report.passed
    assert len(report.data["spreads"]) == 6


def test_petersen_search_runs_once_per_ovoid(monkeypatch):
    """verify_petersen and verify_split_10_5 share one search per ovoid, and
    the shared witness cannot be changed by a caller."""
    real = co.graph_isomorphism
    targets = []

    def counted(g, h):
        targets.append(h)
        return real(g, h)

    monkeypatch.setattr(co, "graph_isomorphism", counted)
    co._petersen_search.cache_clear()
    assert verify_petersen().passed and verify_split_10_5().passed
    assert sum(h == co.petersen_graph() for h in targets) == 6
    witness = co.petersen_witness(golden.SAMPLE_OVOID)
    with pytest.raises(TypeError):
        witness[1] = (0, 1)


def _failed_anywhere(report):
    failed = {(report.title, c.name) for c in report.checks if not c.passed}
    return failed.union(*(_failed_anywhere(r) for r in report.subreports))


def test_petersen_witness_with_two_images_swapped_fails(monkeypatch):
    """The search result is kept, but every call checks it edge by edge: a
    kept mapping with two images swapped fails, through ``verify_all()``,
    the Petersen check of its ovoid in both reports that use it, and the
    trinity row that sums up the second, and nothing else."""
    search = co._petersen_search
    real = search(golden.SAMPLE_OVOID)
    p, q = sorted(real)[:2]
    swapped = MappingProxyType({**real, p: real[q], q: real[p]})
    kept = {golden.SAMPLE_OVOID: swapped}
    monkeypatch.setattr(co, "_petersen_search", lambda ovoid: kept.get(ovoid) or search(ovoid))
    labels = co._cset(golden.SAMPLE_OVOID)
    assert _failed_anywhere(verify_all()) == {
        ("Petersen complements", f"complement of {labels} is Petersen"),
        ("10 plus 5 factorization", f"ovoid {labels}"),
        ("hyperplane trinity", "ovoid row: 6 ovoids, gf4 sublines, mutually non-commuting fives"),
    }
    monkeypatch.undo()
    assert verify_all().passed


WITNESS_CHECK = "every ordered pairwise-distant triple is witnessed"
ORDER_CHECK = "invertible group has order 20160"


def _details(report):
    return {c.name: c.detail for c in report.checks}


def _with_line(monkeypatch, **changes):
    """Run the transitivity verifier on a changed copy of the m2f2 line."""
    line, u, v, pts = co._m2f2_sub()
    bad = line._replace(**changes)
    monkeypatch.setattr(co, "_m2f2_sub", lambda: (bad, u, v, pts))
    return bad


def test_transitivity_is_exhaustive():
    report = verify_transitivity()
    assert report.passed
    assert [c.name for c in report.checks] == [WITNESS_CHECK, ORDER_CHECK]
    assert report.data["triples"] == 3360
    assert report.data["distant_pairs"] == 560
    assert report.data["stabilizer"] == sorted(co.units(co.ring_by_name("m2f2")))


def test_corrupted_span_fails_the_witness_check(monkeypatch):
    line = co._m2f2_sub()[0]
    i, j = next((i, row.index("+")) for i, row in enumerate(line.relation) if "+" in row)
    x0, y0 = line.points[i].canonical, line.points[j].canonical
    spans = dict(projline._row_spans(line.ring))
    spans[x0] |= spans[y0]
    monkeypatch.setattr(projline, "_row_spans", lambda ring: spans)
    report = verify_transitivity()
    assert WITNESS_CHECK in _failed(report)
    assert _details(report)[WITNESS_CHECK].endswith(
        f"; no witness for points {i} and {j} with unit 1"
    )


@pytest.mark.parametrize("sign", ["+", "-"])
def test_corrupted_relation_fails_the_witness_check(sign, monkeypatch):
    """A flipped relation cell fails by name, and nothing the changed
    relation calls non-distant is witnessed."""
    line = co._m2f2_sub()[0]
    i, j = next(
        (i, j) for i, row in enumerate(line.relation) for j, s in enumerate(row) if s == sign and i != j
    )
    rows = [list(row) for row in line.relation]
    rows[i][j] = rows[j][i] = "-" if sign == "+" else "+"
    bad = _with_line(monkeypatch, relation=tuple("".join(row) for row in rows))
    report = verify_transitivity()
    assert WITNESS_CHECK in _failed(report)
    assert "; no witness for points " in _details(report)[WITNESS_CHECK]
    masks, _ = projline.distant_triple_witnesses(bad)
    witnessed = witnessed_triples(masks)
    assert witnessed
    for triple in witnessed:
        assert all(bad.relation[p][q] == "+" for p, q in itertools.permutations(triple, 2))


def test_corrupted_product_fails_the_witness_check(monkeypatch):
    """A wrong multiplication entry moves a scaled row s.y0 out of its class;
    the class check names the first witness it spoils."""
    ring = co._m2f2_sub()[0].ring
    table = [list(row) for row in ring.mul_table]
    table[ring.one][ring.zero] = 3
    _with_line(monkeypatch, ring=ring._replace(mul_table=tuple(map(tuple, table))))
    report = verify_transitivity()
    assert _details(report)[WITNESS_CHECK].endswith("; no witness for points 0 and 1 with unit 1")


@pytest.mark.parametrize(
    "module, change, failed, detail",
    [
        (co, "drop", {ORDER_CHECK}, "orbit 3360 x stabilizer 5 = 16800"),
        (co, "add", set(), "orbit 3360 x stabilizer 6 = 20160"),
        (projline, "drop", {WITNESS_CHECK, ORDER_CHECK}, "2800 of 3360 triples witnessed"),
        (projline, "add", {WITNESS_CHECK}, "; no witness for points 0 and 1 with unit 0"),
    ],
    ids=["stabilizer short", "stabilizer with zero", "witnesses short", "witnesses with zero"],
)
def test_wrong_unit_list(module, change, failed, detail, monkeypatch):
    """A unit list one short fails the order check from the stabilizer side
    and the witness count from the witness side; an extra non-unit is no
    scalar of the stabilizer and gives no witness.  Nothing raises."""
    good = co.units(co.ring_by_name("m2f2"))
    wrong = frozenset(sorted(good)[:-1]) if change == "drop" else good | {0}
    monkeypatch.setattr(module, "units", lambda ring: wrong)
    report = verify_transitivity()
    assert _failed(report) == failed
    assert any(detail in d for d in _details(report).values())


def test_report_json_round_trip():
    report = verify_relation_signs()
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["schema"] == 1
    assert parsed["passed"] is True
    assert isinstance(parsed["checks"], list)


def test_report_text_format():
    report = verify_ring_tables()
    text = report.to_text()
    assert "[PASS]" in text
    assert "result: PASS" in text
    failing = Report(
        title="demo",
        checks=(CheckResult(name="x", passed=False, detail="broken"),),
    )
    text = failing.to_text()
    assert "[FAIL] x: broken" in text
    assert "result: FAIL" in text


def test_verifiers_are_deterministic():
    a = json.dumps(verify_all().to_json_dict(), sort_keys=True)
    b = json.dumps(verify_all().to_json_dict(), sort_keys=True)
    assert a == b
