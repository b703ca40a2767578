"""End-to-end verifiers: sign tables, splits, sublines, reports."""

import copy
import itertools
import json
import sys
from collections import Counter
from typing import Callable, NamedTuple

import pytest

import kernel_oracle as oracle
from kernel_oracle import complement_graph_of_ovoid, witnessed_triples
from ringline import cli, golden, pauli, projline, quadrangle
from ringline import correspondence as co
from ringline.correspondence import (
    GRID,
    CheckResult,
    Report,
    _ops_for,
    grid_mermin_arrangement,
    operator_signs,
    verify_all,
    verify_mermin,
    verify_mub,
    verify_perp_sublines,
    verify_petersen,
    verify_relation_signs,
    verify_ring_tables,
    verify_split_9_6,
    verify_subconfig,
    verify_transitivity,
)
from ringline.quadrangle import OVOID, Graph, IncidenceStructure
from ringline.rings import ring_by_name, ring_names
from test_kept_parts import EXACT, _checks


def test_structure_signs_match_fixture():
    assert co.STRUCTURE.signs == golden.CANONICAL_SIGNS


def test_operator_signs_match_fixture():
    assert operator_signs() == golden.CANONICAL_SIGNS


def test_label_sets_read_from_the_table_as_c_label_words_them():
    """``_cset`` takes the 15 point labels from a table, in sorted order."""
    assert co._cset(range(15, 0, -1)) == "{" + ",".join(map(golden.c_label, range(1, 16))) + "}"


def test_sign_table_symmetric_with_minus_diagonal():
    # every point is its own neighbor, so the diagonal carries "-"
    rows = co.STRUCTURE.signs
    for i in range(15):
        assert rows[i][i] == "-"
        for j in range(15):
            assert rows[i][j] == rows[j][i]


# every stage that builds a report, named by its builder
REPORT_STAGES = [title for title in co.STAGES if title not in ("line table", "standard square")]


@pytest.mark.parametrize("title", REPORT_STAGES, ids=lambda t: co.STAGES[t][0])
def test_verifier_passes(title):
    report = co.run(title)
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
    report = verify_relation_signs(co.STRUCTURE, reference=tuple(rows))
    assert not report.passed
    diffs = report.data["diffs"]
    assert any("C1,C2" in d for d in diffs)
    assert any("C3,C7" in d for d in diffs)


def test_relation_signs_rejects_malformed_reference():
    report = verify_relation_signs(co.STRUCTURE, reference=("+-", "-+"))
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


def test_every_fixture_flip_fails_only_the_fixture_checks(monkeypatch):
    """The structure is rooted in the geometry, so each of the 105 symmetric
    flips of the stored fixture fails exactly the comparisons against it,
    naming the flipped cell, and raises nothing."""
    pairs = list(itertools.combinations(range(15), 2))
    assert len(pairs) == 105
    for i, j in pairs:
        monkeypatch.setattr(
            golden, "CANONICAL_SIGNS", _flip_cell_pair(co.STRUCTURE.signs, i, j)
        )
        st = co.Structure()
        assert _failed(verify_subconfig(st)) == {"induced matrix equals fixture"}
        report = verify_relation_signs(st)
        assert _failed(report) == {"geometry vs fixture", "operators vs fixture"}
        cell = f"C{i + 1},C{j + 1}:"
        assert any(d.startswith(cell) for d in report.data["diffs"])


def _with_cell(ring, table, x, y, value):
    rows = [list(row) for row in getattr(ring, table)]
    rows[x][y] = value
    return ring._replace(**{table: tuple(map(tuple, rows))})


def _serving(ring, name=None):
    """A ring source that serves ``ring`` under ``name``, by default its own,
    and every other ring intact."""
    name = name or ring.name
    return lambda n: ring if n == name else ring_by_name(n)


def _serve(monkeypatch, ring, name=None):
    """Swap in a fresh structure on ``_serving(ring, name)``."""
    _apply(monkeypatch, RING, _serving(ring, name))


def _cell_up(name, table, x, y):
    """The named ring with cell (x, y) of ``table`` moved up by one."""
    ring = ring_by_name(name)
    return _with_cell(ring, table, x, y, (getattr(ring, table)[x][y] + 1) % ring.order)


# m2f2 with a multiplication cell that breaks its axioms
REFUSED_M2F2 = _cell_up("m2f2", "mul_table", 3, 5)


def _mul_cell_corruptions():
    """(ring name, corrupted ring): +1 on each of the 256 multiplication
    cells of m2f2, and every wrong value of every multiplication cell of the
    four small rings."""
    for name in ring_names():
        ring = ring_by_name(name)
        n = ring.order
        for x, y in itertools.product(range(n), repeat=2):
            old = ring.mul_table[x][y]
            values = [(old + 1) % n] if n == 16 else [v for v in range(n) if v != old]
            for value in values:
                yield name, _with_cell(ring, "mul_table", x, y, value)


def test_every_mul_cell_corruption_fails_verify_all_without_traceback(monkeypatch, capsys):
    """Each of the 404 one-cell corruptions of a multiplication table, with
    the structure rebuilt under it, gives a failed certificate of the same
    ten reports: the ring is refused before its line is enumerated, and the
    line census is one failed check naming the ring's first problem.  For
    every small-ring case ``ringline verify all`` exits 1 without a
    traceback."""
    titles = [r.title for r in verify_all().subreports]
    cases = 0
    for name, bad in _mul_cell_corruptions():
        _serve(monkeypatch, bad)
        report = verify_all()
        assert not report.passed
        assert [r.title for r in report.subreports] == titles
        ring_report, census = report.subreports[:2]
        axioms = {c.name: c for c in ring_report.checks}[f"ring axioms hold for {name}"]
        assert not axioms.passed
        assert census.checks == (
            CheckResult("line census", False, f"raised ValueError: {name} is not a ring: {axioms.detail}"),
        )
        if name != "m2f2":
            assert cli.main(["verify", "all"]) == 1
            captured = capsys.readouterr()
            assert "result: FAIL" in captured.out
            assert captured.err == ""
        cases += 1
    assert cases == 256 + 4 + 3 * 48


RING_SWAPS = list(itertools.permutations(("m2f2", "gf2", "gf4", "gf2xgf2", "gf2dual"), 2))


@pytest.mark.parametrize("name, served", RING_SWAPS, ids=[f"{a}-as-{b}" for a, b in RING_SWAPS])
def test_a_valid_ring_served_under_another_name_fails_without_traceback(name, served, monkeypatch, capsys):
    """A ring source that serves one valid ring under another's name, most
    of them of another order: every size is read from the line or family
    itself, so ``verify_all()`` returns with a failed check and ``ringline
    verify all`` exits 1 with nothing on stderr."""
    _serve(monkeypatch, ring_by_name(served), name)
    assert _failed_anywhere(verify_all())
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert "result: FAIL" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("what", ["table2", "factor96", "factor105", "trinity"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_every_verify_command_fails_a_refused_ring_by_stage(
    what, fmt, monkeypatch, capsys
):
    """With gf4 served with multiplication cell (2,3) set to 0, each verify
    command that reads the gf4 line exits 1 with a FAIL naming its stage and
    the refused cell, and without a traceback; table2 never reads it.  The
    stage is named by the title its report has on the intact ring; the
    trinity reports its other checks, and names its 10 + 5 input."""
    title = cli.VERIFIERS[what]
    assert co.run(title).title == title
    _serve(monkeypatch, _with_cell(ring_by_name("gf4"), "mul_table", 2, 3, 0))
    code = cli.main(["verify", what, "--format", fmt])
    captured = capsys.readouterr()
    assert captured.err == ""
    if what == "table2":
        assert code == 0
        return
    assert code == 1
    detail = "raised ValueError: gf4 is not a ring: rep breaks multiplication at (x,y)=(2,3)"
    stage = "10 plus 5 factorization" if what == "trinity" else title
    if fmt == "json":
        doc = json.loads(captured.out)
        doc = next(r for r in doc["subreports"] if r["title"] == stage) if what == "trinity" else doc
        assert (doc["title"], doc["checks"]) == (stage, [{"name": stage, "passed": False, "detail": detail}])
    else:
        assert f"[FAIL] {stage}: {detail}\n" in captured.out
        assert what != "trinity" or "checks: 39  failed: 2  result: FAIL" in captured.out


# the commands that print no verifier report but read the m2f2 line, each
# in a format of its own; a --out of None is written into the test's directory
REPORTLESS = [
    *[["gq", verb] for verb in ("build", "axioms", "ovoids", "spreads", "hyperplanes", "petersen")],
    ["pauli", "mub"],
    ["export", "--what", "signs", "--format", "csv", "--out", None],
    ["export", "--what", "gq", "--format", "dot", "--out", None],
    ["export", "--what", "hyperplanes", "--format", "json", "--out", None],
]


@pytest.mark.parametrize("argv", REPORTLESS, ids=lambda argv: " ".join(argv[:3]))
def test_every_reportless_command_fails_a_refused_ring_by_command(
    argv, monkeypatch, tmp_path, capsys
):
    """With m2f2 served with multiplication cell (3,5) moved up by one, each
    command that reads its line but prints no verifier report exits 1 with
    one FAIL named by the command, and without a traceback."""
    _serve(monkeypatch, REFUSED_M2F2)
    argv = [str(tmp_path / "out") if a is None else a for a in argv]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    title = "ringline " + " ".join(argv[:1] if argv[0] == "export" else argv[:2])
    detail = "raised ValueError: m2f2 is not a ring: rep breaks multiplication at (x,y)=(3,5)"
    if "json" in argv:
        doc = json.loads(captured.out)
        assert (doc["title"], doc["checks"]) == (title, [{"name": title, "passed": False, "detail": detail}])
    else:
        assert f"[FAIL] {title}: {detail}\n" in captured.out
        assert "result: FAIL" in captured.out


# the commands that read no quadrangle, and so pass on a broken one
NO_QUADRANGLE = (["export", "--what", "signs"], ["verify", "table2"])


@pytest.mark.parametrize(
    "argv", REPORTLESS + [["verify", what] for what in ("table2", "factor96", "factor105", "trinity")],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_every_command_on_a_quadrangle_without_point_1_exits_without_traceback(argv, monkeypatch, tmp_path, capsys):
    """With point 1 dropped from the points of the quadrangle, but not from
    its lines, each command that reads the quadrangle exits 1 with a FAIL
    and the two that read none exit 0, all with nothing on stderr."""
    s, st = co.STRUCTURE.gq, co.Structure()
    st.gq = IncidenceStructure(s.points[1:], s.lines)
    monkeypatch.setattr(co, "STRUCTURE", st)
    code = cli.main([str(tmp_path / "out") if a is None else a for a in argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == (0 if argv[:3] in NO_QUADRANGLE or argv[:2] in NO_QUADRANGLE else 1)
    if code and argv[0] != "export":
        assert "FAIL" in captured.out or '"passed": false' in captured.out


def test_a_spread_past_the_last_line_fails_by_name(monkeypatch, capsys):
    """A kept spread that names line 15 of the 15, which fails its checks of
    ``verify_all()`` as its ``CORRUPTIONS`` entry says, fails ``pauli mub``
    and ``gq spreads`` by name, with nothing on stderr."""
    _apply(monkeypatch, *CORRUPTIONS["hyperplane census", "spreads are the ovoids of the dual"][:2])
    for argv in (["pauli", "mub"], ["gq", "spreads"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert "names no line" in out and err == ""


@pytest.mark.parametrize("argv", [a for a in REPORTLESS if a[0] == "export"], ids=lambda a: a[2])
def test_a_failed_export_leaves_its_out_file_as_it_was(argv, monkeypatch, tmp_path, capsys):
    """An export that fails on a refused ring exits 1 without a traceback and
    leaves the bytes its --out file held."""
    out = tmp_path / "out"
    out.write_bytes(b"nine byte")
    _serve(monkeypatch, REFUSED_M2F2)
    assert cli.main([str(out) if a is None else a for a in argv]) == 1
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == b"nine byte"


@pytest.mark.parametrize("argv", [a for a in REPORTLESS if a[0] == "export"], ids=lambda a: a[2])
def test_a_failed_export_leaves_no_new_out_file(argv, monkeypatch, tmp_path, capsys):
    """An export that fails on a refused ring removes the --out file that it
    created for its up-front check."""
    out = tmp_path / "out"
    _serve(monkeypatch, REFUSED_M2F2)
    assert cli.main([str(out) if a is None else a for a in argv]) == 1
    assert capsys.readouterr().err == ""
    assert not out.exists()


def test_a_broken_structure_poisons_no_later_run(monkeypatch):
    """Full runs on a structure whose m2f2 ring is refused and on one whose
    quadrangle is relabelled leave the default structure as it was: it
    passes with the very parts it held, and a part whose build raised is not
    kept, so each read of it raises again."""
    intact, relabelled = co.STRUCTURE, _on_a_relabelled_quadrangle()
    gq, planes = intact.gq, intact.hyperplanes
    _serve(monkeypatch, REFUSED_M2F2)
    refused = co.STRUCTURE
    assert not verify_all().passed
    monkeypatch.setattr(co, "STRUCTURE", relabelled)
    assert not verify_all().passed
    monkeypatch.undo()
    assert co.STRUCTURE is intact
    assert verify_all().tally() == (100, 0)
    assert co.STRUCTURE.gq is gq and co.STRUCTURE.hyperplanes is planes
    for _ in range(2):
        with pytest.raises(ValueError, match="m2f2 is not a ring"):
            refused.gq


def test_stage_table_is_closed():
    """Every input a stage takes is a stage, every builder is a function of
    ``correspondence`` that reports under its stage's title, the certificate
    is what ``verify_all()`` reports, and every ``verify`` command prints a
    stage."""
    for title, (name, needs) in co.STAGES.items():
        assert set(needs) <= set(co.STAGES), title
        assert callable(getattr(co, name)), name
    for title in REPORT_STAGES:
        assert co.run(title).title == title
    assert list(co.CERTIFICATE) == [r.title for r in verify_all().subreports]
    assert set(cli.VERIFIERS.values()) <= set(co.STAGES)


def test_each_stage_is_built_once_per_run(monkeypatch):
    """A builder patched into ``correspondence`` is the one a run calls, and
    a run builds each stage once, however many stages read it: the Petersen
    report once per certificate and once per trinity, where the 10 + 5 pass
    reads it, the line table once for the three stages that read it, and
    the standard square once for the two reports that read it."""
    calls = Counter()

    def counted(real):
        def wrapper(*args):
            calls[real.__name__] += 1
            return real(*args)

        return wrapper

    for name in ("verify_petersen", "line_table", "standard_square"):
        monkeypatch.setattr(co, name, counted(getattr(co, name)))
    assert verify_all().passed
    assert calls == {"verify_petersen": 1, "line_table": 1, "standard_square": 1}
    calls.clear()
    assert co.run("hyperplane trinity").passed
    assert calls == {"verify_petersen": 1, "line_table": 1, "standard_square": 1}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["gq", "petersen", "--ovoid", "0"], "verify_petersen"),
        (["pauli", "mermin"], "mermin_square_check"),
    ],
    ids=["gq petersen", "pauli mermin"],
)
def test_a_command_prints_its_stage_result(argv, name, monkeypatch, capsys):
    """``gq petersen`` prints the Petersen report's witness and ``pauli
    mermin`` the "standard square" stage: each command makes the one verdict
    call of its stage, and none of its own."""
    calls, real = [], getattr(co, name)
    monkeypatch.setattr(co, name, lambda *args: calls.append(args) or real(*args))
    for fmt in ("text", "json"):
        assert cli.main(argv + ["--format", fmt]) == 0
        capsys.readouterr()
    assert len(calls) == 2


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
    st = co.STRUCTURE
    base_split = co.run("9 plus 6 factorization").tally()
    base_trinity = co.run("hyperplane trinity").tally()
    for i, j in itertools.combinations(range(15), 2):
        swap_labels(i, j)
        split = co.run("9 plus 6 factorization")
        trinity = co.run("hyperplane trinity")
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


def _outcome(f, *args):
    """The return value, or the ValueError message as a string."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"raised ValueError: {exc}"


def test_every_label_swap_fails_with_the_details_of_the_operators(swap_labels):
    """Under each of the 105 transpositions of the operator labels, every
    magic-square and spread check read through the line table says what
    the operators themselves say: the oracles sign each row, column and
    triple where it is used, in its own order, and take every trace."""
    st = co.STRUCTURE
    gq = st.gq
    grids = [h.points for h in st.hyperplanes if h.kind == GRID]
    spreads = st.spreads
    raised = 0
    for i, j in itertools.combinations(range(15), 2):
        swap_labels(i, j)
        lines = co.line_table(st)
        assert len(lines) == 15
        rows = [_ops_for(r) for r in co.STANDARD_ROWS]
        square = _outcome(lambda: pauli.mermin_square_check(rows).magic)
        wants = [square] + [
            _outcome(lambda p: oracle.grid_mermin_arrangement(gq, p, _ops_for) is not None, p)
            for p in grids
        ]
        wants.append(square)
        wants += [
            _outcome(oracle.mub_spread_check, [_ops_for(sorted(gq.lines[k])) for k in sp]) for sp in spreads
        ]
        square = co.standard_square(st, lines)
        checks = [c for c in verify_mermin(st, lines, square).checks if c.name != "10 grid hyperplanes"]
        checks.append({c.name: c for c in verify_split_9_6(st, square).checks}[
            "nine common neighbors in standard rows form a magic square"
        ])
        checks += verify_mub(st, lines).checks[1:]
        for check, want in zip(checks, wants, strict=True):
            if isinstance(want, str):
                assert (check.passed, check.detail) == (False, want), check.name
                raised += 1
            else:
                assert check.passed == want, check.name
    assert raised > 105


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
    mapping = quadrangle.graph_isomorphism(
        projline.signs_graph(co.STRUCTURE.signs), projline.signs_graph(operator_signs())
    )
    assert mapping is not None
    assert sorted(mapping) == list(range(15))
    assert sorted(mapping.values()) == list(range(15))


def test_relation_isomorphism_searches_the_line_graph():
    """Against a line, the search runs on masks induced from the line's
    cached neighbor masks, which are the graphs of the relation rows, and
    finds the mapping the search on those graphs finds."""
    line, _, _, pts, _ = co.STRUCTURE.sub
    nine = projline.induced_neighbor_masks(line, pts[6:])
    signs = projline.signs_graph(projline.induced_signs(line, pts[6:]))
    assert nine == tuple(sum(1 << j for j in signs.neighbors(i)) for i in range(9))
    grid_line = projline.enumerate_line(ring_by_name("gf2xgf2"))
    mapping = co.mask_isomorphism(nine, grid_line.neighbor_masks)
    assert mapping is not None
    assert mapping == quadrangle.graph_isomorphism(signs, projline.signs_graph(grid_line.relation))
    five = projline.induced_neighbor_masks(line, pts[6:11])
    assert co.mask_isomorphism(five, grid_line.neighbor_masks) is None


def test_triple_split_regression():
    report = co.run("9 plus 6 factorization")
    assert report.passed
    assert report.data["triples"] == [sorted(s) for s in golden.TRIPLE_SPLIT]


def test_perp_subline_of_c13(monkeypatch):
    """With the perp set of C13 dropped from the hyperplanes, its perp check,
    failed by a ``CORRUPTIONS`` entry, still lists the pairs of its six
    neighbors."""
    assert verify_perp_sublines(co.STRUCTURE).passed
    _apply(monkeypatch, *CORRUPTIONS["perp-set sublines", "perp set of C13"][:2])
    assert co.run("perp-set sublines").data["pairs"]["13"] == [[4, 5], [7, 10], [14, 15]]


def test_trinity_report_shape():
    report = co.run("hyperplane trinity")
    assert report.passed
    assert len(report.subreports) == 4
    rows = report.data["rows"]
    assert [r["count"] for r in rows] == [6, 15, 10]
    assert [r["subline"] for r in rows] == ["gf4", "gf2dual", "gf2xgf2"]


def test_grid_mermin_arrangement_deterministic_and_magic():
    st = co.STRUCTURE
    lines = co.line_table(st)
    report = verify_mermin(st, lines, co.standard_square(st, lines))
    assert report.passed
    standard = ((7, 8, 9), (10, 11, 12), (13, 14, 15))
    arr = grid_mermin_arrangement(st, frozenset(range(7, 16)), lines)
    assert arr is not None
    again = grid_mermin_arrangement(st, frozenset(range(7, 16)), lines)
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

    inside = [line for line in co.STRUCTURE.gq.lines if line <= points]
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
    grids = [h for h in co.STRUCTURE.hyperplanes if h.kind == GRID]
    assert len(grids) == 10
    for h in grids:
        arrangements = _every_arrangement(h.points)
        assert len(arrangements) == 72
        assert len({magic for _, magic in arrangements}) == 1
        least = min(flat for flat, magic in arrangements if magic)
        got = grid_mermin_arrangement(co.STRUCTURE, h.points, co.line_table(co.STRUCTURE))
        assert got == (least[0:3], least[3:6], least[6:9])


def test_grid_mermin_arrangement_rejects_crossing_classes():
    # six lines in two classes of three disjoint lines, but some row and
    # column do not meet, so no arrangement is consistent
    points = frozenset((1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12))
    assert _every_arrangement(points) == []
    assert grid_mermin_arrangement(co.STRUCTURE, points, co.line_table(co.STRUCTURE)) is None


def test_grid_without_magic_gives_no_arrangement(monkeypatch):
    import ringline.correspondence as co
    from ringline.pauli import MerminResult

    monkeypatch.setattr(
        co, "mermin_square_check", lambda grid, sign=None: MerminResult((1, 1, 1), (1, 1, 1))
    )
    st = co.STRUCTURE
    lines = co.line_table(st)
    assert grid_mermin_arrangement(st, frozenset(range(7, 16)), lines) is None
    report = verify_mermin(st, lines, co.standard_square(st, lines))
    assert not report.passed
    grid_checks = [c for c in report.checks if c.name.startswith("grid ")]
    assert len(grid_checks) == 10
    assert not any(c.passed for c in grid_checks)


def test_mub_report_covers_all_spreads():
    report = verify_mub(co.STRUCTURE, co.line_table(co.STRUCTURE))
    assert report.passed
    assert len(report.data["spreads"]) == 6


def _petersen_masks(ovoid):
    """The key of the kept Petersen search of ``ovoid``: the masks of its
    complement and of the reference graph."""
    comp = complement_graph_of_ovoid(co.STRUCTURE.gq, ovoid)
    return comp.masks, co.petersen_graph().masks


def _clear_kept_mappings(st):
    """Drop every mapping that ``st`` keeps as its ``isomorphism`` part."""
    st.isomorphism.clear()


def _ovoids():
    return [h.points for h in co.STRUCTURE.hyperplanes if h.kind == "ovoid"]


def test_petersen_search_runs_once_per_ovoid(monkeypatch):
    """verify_petersen and verify_split_10_5 share one search per ovoid
    complement, the kept mapping is read-only, and a caller that changes a
    witness changes no later one."""
    _clear_kept_mappings(co.STRUCTURE)
    real, targets = co.mask_isomorphism, []

    def counted(gadj, hadj):
        targets.append(hadj)
        return real(gadj, hadj)

    monkeypatch.setattr(co, "mask_isomorphism", counted)
    assert verify_petersen(co.STRUCTURE).passed and co.run("10 plus 5 factorization").passed
    assert targets.count(co.petersen_graph().masks) == 6
    with pytest.raises(TypeError):
        co.STRUCTURE.isomorphism[_petersen_masks(golden.SAMPLE_OVOID)][0] = 1
    witnesses = verify_petersen(co.STRUCTURE).data["witnesses"]
    kept = copy.deepcopy(witnesses)
    for witness in witnesses:
        witness["mapping"][0][1].clear()
        witness["mapping"].clear()
    assert verify_petersen(co.STRUCTURE).data["witnesses"] == kept


def _checks_anywhere(report):
    """(report title, check name) -> the check, for every check of ``report``
    and of its subreports."""
    checks = {(report.title, c.name): c for c in report.checks}
    for r in report.subreports:
        checks |= _checks_anywhere(r)
    return checks


def _failed_anywhere(report):
    return {key for key, c in _checks_anywhere(report).items() if not c.passed}


def _petersen_checks(ovoid):
    """The checks of ``verify_all()`` that use the Petersen witness of ``ovoid``."""
    labels = co._cset(ovoid)
    return {
        ("Petersen complements", f"complement of {labels} is Petersen"),
        ("10 plus 5 factorization", f"ovoid {labels}"),
        ("hyperplane trinity", OVOID_ROW),
    }


def _two_keys_on_one_image(iso):
    return {**iso, 0: iso[1]}


def _a_key_past_n(iso):
    last = len(iso) - 1
    return {**{k: w for k, w in iso.items() if k != last}, len(iso): iso[last]}


@pytest.mark.parametrize("bad", [_two_keys_on_one_image, _a_key_past_n])
@pytest.mark.parametrize("kept", ["MaskMapping", "dict"])
def test_a_bad_kept_mapping_fails_on_every_call(bad, kept, monkeypatch):
    """The image tables of a kept mapping hold no verdict: after a warm run,
    a fresh structure whose Petersen mapping of one ovoid sends two keys to
    one image, or has a key past the last vertex, fails the Petersen checks
    of that ovoid, and nothing else, on the first call and on the second,
    kept with its tables or as a plain dict."""
    ovoids = _ovoids()
    assert verify_all().passed
    key = _petersen_masks(ovoids[0])
    mapping = bad(co.STRUCTURE.isomorphism[key])
    st = co.Structure()
    st.isomorphism[key] = quadrangle.MaskMapping(mapping) if kept == "MaskMapping" else mapping
    monkeypatch.setattr(co, "STRUCTURE", st)
    for _ in range(2):
        assert _failed_anywhere(verify_all()) == _petersen_checks(ovoids[0])
    assert st.isomorphism[key] == mapping


def _relabelled_gq():
    """The canonical quadrangle with points 1 and 2 trading labels: a valid
    quadrangle whose collinearity masks differ."""
    s, swap = co.STRUCTURE.gq, {1: 2, 2: 1}
    lines = tuple(frozenset(swap.get(p, p) for p in line) for line in s.lines)
    relabelled = IncidenceStructure(s.points, lines)
    assert relabelled.collinearity_graph.masks != s.collinearity_graph.masks
    return relabelled


def test_a_quadrangle_with_its_points_listed_in_reverse_passes(monkeypatch):
    """Every point mask of the structure gives a point the bit of
    ``gq.point_bits``: a fresh structure on the canonical quadrangle with its
    points listed 15..1 passes all 100 checks, the ten grid arrangements
    among them."""
    s = co.STRUCTURE.gq
    st = co.Structure()
    st.gq = IncidenceStructure(tuple(reversed(s.points)), s.lines)
    monkeypatch.setattr(co, "STRUCTURE", st)
    assert verify_all().tally() == (100, 0)


def _first_run_on_a_relabelled_nine(monkeypatch):
    """``verify_split_9_6`` on a structure that keeps, as the masks of the
    nine, those of the nine with their first two points swapped: a valid
    gf2xgf2 model with other masks."""
    st = co.Structure()
    nine = tuple(st.sub[3][6:])
    relabelled = st.induced[(nine[1], nine[0]) + nine[2:]][1]
    assert relabelled != st.induced[nine][1]
    st.induced[nine] = nine, relabelled
    monkeypatch.setattr(co, "STRUCTURE", st)
    assert co.run("9 plus 6 factorization").passed


def _on_a_relabelled_quadrangle():
    """A fresh structure whose quadrangle is ``_relabelled_gq()``."""
    st = co.Structure()
    st.gq = _relabelled_gq()
    return st


def _first_run_on_a_relabelled_quadrangle(monkeypatch):
    problems, iso = co.quadrangle_axioms(_on_a_relabelled_quadrangle())
    assert problems == [] and iso is not None


def _first_petersen_witness_on_a_relabelled_quadrangle(monkeypatch):
    verify_petersen(_on_a_relabelled_quadrangle())


@pytest.mark.parametrize(
    "first_run",
    [
        _first_run_on_a_relabelled_quadrangle,
        _first_run_on_a_relabelled_nine,
        _first_petersen_witness_on_a_relabelled_quadrangle,
    ],
)
def test_a_first_run_on_a_changed_structure_leaves_no_kept_mapping_behind(first_run, monkeypatch):
    """A kept isomorphism is a part of the structure whose two graphs it
    relates: the first use, under a relabelled structure, keeps a mapping for
    that structure only, and with nothing cleared in between the intact
    structure passes every check."""
    _clear_kept_mappings(co.STRUCTURE)
    first_run(monkeypatch)
    monkeypatch.undo()
    assert verify_all().tally() == (100, 0)


def _module_cache_sizes():
    """The entry count of every ``functools`` cache bound in a ringline module."""
    modules = [m for name, m in sys.modules.items() if name.startswith("ringline.")]
    return {
        (module.__name__, key): value.cache_info().currsize
        for module in modules
        for key, value in vars(module).items()
        if hasattr(value, "cache_info")
    }


def test_certificates_on_changed_quadrangles_leave_no_module_cache_behind(monkeypatch):
    """Five certificate runs, each on a fresh structure whose quadrangle has
    a different line dropped, search their isomorphisms and keep each
    mapping, or its absence, on that structure alone: no module-level cache
    gains an entry."""
    assert verify_all().passed
    s, before = co.STRUCTURE.gq, _module_cache_sizes()
    kept = []
    for i in range(5):
        st = co.Structure()
        st.gq = IncidenceStructure(s.points, s.lines[:i] + s.lines[i + 1 :])
        monkeypatch.setattr(co, "STRUCTURE", st)
        assert not verify_all().passed
        kept.append(list(st.isomorphism))
    assert all(kept) and _module_cache_sizes() == before


def test_split_9_6_builds_the_nine_masks_once(monkeypatch):
    """The balance check and the gf2xgf2 witness read one kept part, the
    nine's neighbor masks: two runs on a fresh structure build it once."""
    st = co.Structure()
    line, _, _, pts, _ = st.sub
    nine, real, built = tuple(pts[6:]), co.induced_neighbor_masks, []

    def counted(line, points):
        built.append(tuple(points))
        return real(line, points)

    monkeypatch.setattr(co, "induced_neighbor_masks", counted)
    monkeypatch.setattr(co, "STRUCTURE", st)
    assert co.run("9 plus 6 factorization").passed
    assert co.run("9 plus 6 factorization").passed
    assert built.count(nine) == 1
    assert st.induced[nine] == (nine, real(line, nine))


@pytest.mark.parametrize("first, second", list(itertools.product(*map(sorted, golden.TRIPLE_SPLIT))))
def test_split_9_6_searches_the_split_on_each_call(first, second, monkeypatch):
    """After a warm run, a cross pair of the recorded split made distant in
    the structure's line fails the split check: the neighbor mask test
    reads the line on each call, so no gf4 witness of a triple is tried."""
    assert verify_all().passed
    line, u, v, pts, families = co.STRUCTURE.sub
    i, j = (line.index_of(families[0][label - 1].canonical) for label in (first, second))
    assert line.relation[i][j] == "-"
    bad = line._replace(relation=_flip_cell_pair(line.relation, i, j))
    monkeypatch.setattr(co.STRUCTURE, "sub", (bad, u, v, pts, families))
    real, targets = co._subline_witness, Counter()

    def counted(st, points, target):
        targets[target] += 1
        return real(st, points, target)

    monkeypatch.setattr(co, "_subline_witness", counted)
    square = co.standard_square(co.STRUCTURE, co.line_table(co.STRUCTURE))
    checks = {c.name: c for c in verify_split_9_6(co.STRUCTURE, square).checks}
    assert (checks[SPLIT_CHECK].passed, checks[SPLIT_CHECK].detail) == (False, "0 splits found")
    assert targets == {"gf2xgf2": 1}


# the trinity row that sums up each kind of sub-line report
OVOID_ROW = "ovoid row: 6 ovoids, gf4 sublines, mutually non-commuting fives"
NINE_CHECK = "nine common neighbors model the line over gf2xgf2"
SPLIT_CHECK = "exactly one split of the six into two gf4 triples"


def test_kept_subline_witness_fails_on_a_flipped_relation_cell(monkeypatch, capsys):
    """A neighbor pair of the nine made distant in the line's relation fails
    the kept witness of the nine, through ``verify_all()`` and the CLI."""
    assert verify_all().passed
    line, u, v, pts, families = co.STRUCTURE.sub
    i, j = line.index_of(pts[6].canonical), line.index_of(pts[7].canonical)
    assert line.relation[i][j] == "-"
    bad = line._replace(relation=_flip_cell_pair(line.relation, i, j))
    st = co.Structure()
    st.sub = (bad, u, v, pts, families)
    monkeypatch.setattr(co, "STRUCTURE", st)
    assert ("9 plus 6 factorization", NINE_CHECK) in _failed_anywhere(verify_all())
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] {NINE_CHECK}" in captured.out
    assert captured.err == ""


WITNESS_CHECK = "every ordered pairwise-distant triple is witnessed"
ORDER_CHECK = "invertible group has order 20160"
GRID_ROW = "hyperplane trinity: grid row: 10 grids, gf2xgf2 sublines, magic squares"


def _six_distant_points_rotated(sub):
    line, u, v, pts, (distant, neighbor) = sub
    return line, u, v, pts, (distant[1:] + distant[:1], neighbor)


def _c7_filed_as_distant(sub):
    # the 15 points keep their order, but the families are 7 + 8
    line, u, v, pts, (distant, neighbor) = sub
    return line, u, v, pts, (distant + neighbor[:1], neighbor[1:])


def _a_neighbor_pair_made_distant(sub):
    # the first pair of distinct neighbors in the m2f2 line's relation
    line, *rest = sub
    i, j = next((i, j) for i, row in enumerate(line.relation) for j, s in enumerate(row) if s == "-" and i != j)
    return line._replace(relation=_flip_cell_pair(line.relation, i, j)), *rest


def _without_its_first_edge(g):
    return Graph(g.vertices, g.edges - {frozenset(g.sorted_edges()[0])})


def _without(pick):
    # the entries without the one that ``pick`` chooses
    return lambda entries: tuple(x for x in entries if x != pick(entries))


def _without_the_first_row_of(grid):
    # the kept arrangements with that of ``grid`` alone changed
    return lambda cells: co._Kept(lambda points: cells[points][1:] if points == grid else cells[points])


def _the_first_standard_row_negated(line_facts):
    # the sign of the line C7 C8 C9 negated: the standard square's rows then multiply to +1
    row = tuple(_ops_for(co.STANDARD_ROWS[0]))
    return lambda t: (line_facts(t)[0] * (-1 if tuple(t) == row else 1), line_facts(t)[1])


def _one_eigenbasis_for_every_line(line_facts):
    # the eigenbasis of C1 C2 C7 for every line: a spread's bases are then one basis
    first = _ops_for((1, 2, 7))
    return lambda t: (line_facts(t)[0], line_facts(first)[1])


# the kinds of corruption, by what an entry's change is: a ring source for a
# fresh structure (RING), or a dict that maps each part of a fresh structure
# (PART), function of ``correspondence`` (PATCH) or golden constant (GOLDEN)
# to a function of its intact value that gives the changed one
RING, PART, PATCH, GOLDEN = "ring", "part", "patch", "golden"


class Corruption(NamedTuple):
    """A change that fails its check, with exactly the (title, name) pairs
    ``failed`` and with ``detail`` where these are given."""

    kind: str
    change: Callable | dict
    failed: set | None = None
    detail: str | None = None


def _apply(monkeypatch, kind, change):
    """Make the corruption for the rest of a test."""
    if kind == RING:
        monkeypatch.setattr(co, "STRUCTURE", co.Structure(change))
    elif kind == PART:
        st = co.Structure()
        for part, f in change.items():
            setattr(st, part, f(getattr(co.STRUCTURE, part)))
        monkeypatch.setattr(co, "STRUCTURE", st)
    else:
        module = golden if kind == GOLDEN else co
        for name, f in change.items():
            monkeypatch.setattr(module, name, f(getattr(module, name)))


# each grid of the census, and the first spread with its last line index made
# 15, which names no line of the 15
GRIDS = [h.points for h in co.STRUCTURE.by_kind[GRID]]
PAST = co.STRUCTURE.spreads[0][:-1] + (15,)

# a check of ``verify_all()`` -> a corruption that fails it; with the exact
# rows of the kept-part harness, one for each of the 100 checks
CORRUPTIONS = {
    ("ring construction", "addition table matches fixture"):
        Corruption(RING, _serving(_cell_up("m2f2", "add_table", 3, 5)), detail="256 cells"),
    ("ring construction", "multiplication table matches fixture"):
        Corruption(GOLDEN, {"M2F2_MUL_TABLE": lambda rows: rows[1::-1] + rows[2:]}, detail="256 cells"),
    ("ring construction", "unit set"):
        Corruption(GOLDEN, {"M2F2_UNITS": lambda us: us - {max(us)}}, detail="{1,2,9,11,12,13}"),
    ("ring construction", "zero divisor count"): Corruption(
        PATCH, {"zero_divisors": lambda real: lambda ring, us: real(ring, us) - {ring.zero}}, detail="10 including zero"),
    # each ring with one cell moved up by one, which its axiom check names
    **{("ring construction", f"ring axioms hold for {name}"):
       Corruption(RING, _serving(_cell_up(name, table, x, y)), detail=f"rep breaks {law} at (x,y)=({x},{y})")
       for name, table, law, x, y in (
           ("m2f2", "mul_table", "multiplication", 3, 5), ("gf2", "add_table", "addition", 1, 1),
           ("gf4", "add_table", "addition", 2, 3), ("gf2xgf2", "add_table", "addition", 2, 3),
           ("gf2dual", "mul_table", "multiplication", 2, 3))},
    # a valid ring served under another's name
    **{("line census", name): Corruption(RING, _serving(ring_by_name("gf4"), "m2f2"))
       for name in ("35 points over m2f2", "every orbit has size 6", "published census pairs admissible")},
    ("line census", "census orbit-equivalent to published list"): Corruption(
        GOLDEN, {"LINE_CENSUS_REPS": lambda reps: reps[1:2] + reps[1:]}, detail="34 distinct orbits"),
    ("line census", "3 points over gf2"):
        Corruption(RING, _serving(ring_by_name("gf4"), "gf2"), _checks("line census: 3 points over gf2")),
    **{("line census", name): Corruption(RING, _serving(ring_by_name("gf2xgf2"), "gf4"))
       for name in ("5 points over gf4", "gf4 line pairwise distant")},
    ("line census", "9 points over gf2xgf2"): Corruption(RING, _serving(ring_by_name("gf4"), "gf2xgf2"), _checks(
        "line census: 9 points over gf2xgf2", f"9 plus 6 factorization: {NINE_CHECK}")),
    **{("line census", name): Corruption(RING, _serving(ring_by_name("gf2"), "gf2dual"))
       for name in ("6 points over gf2dual", "gf2dual line has 3 neighbor pairs")},
    ("sub-configuration", "family sizes 6 and 9"): Corruption(PART, {"sub": _c7_filed_as_distant}, _checks(
        "sub-configuration: family sizes 6 and 9", f"9 plus 6 factorization: {NINE_CHECK}",
        "9 plus 6 factorization: each of the nine has 4 neighbor and 4 distant partners inside",
        f"9 plus 6 factorization: {SPLIT_CHECK}")),
    ("sub-configuration", "families reproduce the published points in order"):
        Corruption(GOLDEN, {"POINT_REPS": lambda reps: reps[1::-1] + reps[2:]}),
    # the fixture one row short, given as ``verify --fixture`` gives one read from a file
    ("relation sign matrix", "fixture well-formed"): Corruption(
        PATCH, {"verify_relation_signs": lambda real: lambda st: real(st, reference=golden.CANONICAL_SIGNS[1:])},
        _checks("relation sign matrix: fixture well-formed"), "got 14 rows"),
    ("relation sign matrix", "geometry vs fixture"): Corruption(
        GOLDEN, {"CANONICAL_SIGNS": lambda rows: _flip_cell_pair(rows, 0, 6)}, _checks(
            "sub-configuration: induced matrix equals fixture", "relation sign matrix: geometry vs fixture",
            "relation sign matrix: operators vs fixture")),
    ("quadrangle structure", "neighbor graph strongly regular (15,6,1,3)"):
        Corruption(PART, {"graph": _without_its_first_edge}),
    ("hyperplane census", "spreads are the ovoids of the dual"): Corruption(
        PART, {"spreads": lambda spreads: (PAST, *spreads[1:])}, _checks(
            "hyperplane census: spreads are the ovoids of the dual",
            "hyperplane trinity: spread bonus: 6 spreads, unbiased bases", f"unbiased bases: spread {list(PAST)}")),
    ("Petersen complements", "reference graph sane"): Corruption(
        PATCH, {"petersen_graph": lambda real: lambda: _without_its_first_edge(real())},
        _checks("Petersen complements: reference graph sane").union(*map(_petersen_checks, _ovoids()))),
    ("9 plus 6 factorization", "split matches the recorded one"): Corruption(PART, {"sub": _six_distant_points_rotated}),
    ("9 plus 6 factorization", "nine common neighbors in standard rows form a magic square"):
        Corruption(PATCH, {"line_facts": _the_first_standard_row_negated}),
    ("10 plus 5 factorization", "6 ovoids to examine"): Corruption(PART, {"hyperplanes": _without(
        lambda planes: next(h for h in planes if h.kind == OVOID and h.points != golden.SAMPLE_OVOID))}),
    ("10 plus 5 factorization", "the published sample ovoid is among them"): Corruption(PART, {"hyperplanes": _without(
        lambda planes: next(h for h in planes if h.points == golden.SAMPLE_OVOID))}),
    ("perp-set sublines", "perp set of C13"): Corruption(PART, {"hyperplanes": _without(
        lambda planes: next(h for h in planes if h.center == 13))}, _checks(
        "perp-set sublines: perp set of C13", "hyperplane census: 15 perp sets",
        "hyperplane census: 31 hyperplanes in total",
        "hyperplane trinity: perp row: 15 perp sets, gf2dual sublines, six commuting partners")),
    ("magic squares", "standard grid is magic"): Corruption(PATCH, {"line_facts": _the_first_standard_row_negated}),
    ("magic squares", "10 grid hyperplanes"):
        Corruption(PART, {"hyperplanes": _without(lambda planes: next(h for h in planes if h.kind == GRID))}),
    # the first grid's arrangement is a row of the kept-part harness
    **{("magic squares", f"grid {co._cset(grid)} admits a magic arrangement"): Corruption(
        PART, {"grid_cells": _without_the_first_row_of(grid)},
        _checks(f"magic squares: grid {co._cset(grid)} admits a magic arrangement", GRID_ROW),
        "raised ValueError: expected a 3x3 grid of operators") for grid in GRIDS[1:]},
    ("unbiased bases", "6 spreads to examine"):
        Corruption(PART, {"spreads": _without(lambda spreads: spreads[0])}),
    **{("unbiased bases", co.STRUCTURE.spread[sp]): Corruption(PATCH, {"line_facts": _one_eigenbasis_for_every_line})
       for sp in co.STRUCTURE.spreads},
    ("transitivity of the invertible group", WITNESS_CHECK): Corruption(
        PART, {"sub": _a_neighbor_pair_made_distant}, _checks(f"transitivity of the invertible group: {WITNESS_CHECK}"),
        "3360 of 3408 triples witnessed; no witness for points 0 and 17 with unit 1"),
    ("transitivity of the invertible group", ORDER_CHECK): Corruption(
        PATCH, {"units": lambda real: lambda ring: frozenset(sorted(real(ring))[:-1])}, _checks(
            "ring construction: unit set", "ring construction: zero divisor count",
            f"transitivity of the invertible group: {ORDER_CHECK}"),
        "orbit 3360 x stabilizer 5 = 16800; 15*14*12*8 = 20160"),
}


def test_the_table_and_the_exact_rows_fail_each_of_the_100_checks():
    """The keys of ``CORRUPTIONS`` and the checks of the exact rows of the
    kept-part harness, but for its stage failures (a check named as its
    report), are the 100 checks of an intact ``verify_all()``: each fails in
    a test of its entry or row, so an always-pass check fails that test.
    The orbit check words the 35 distinct orbits it finds; its entry, 34."""
    intact = _checks_anywhere(verify_all())
    rows = {key for row in EXACT.values() for key in row if key[0] != key[1]}
    assert len(intact) == 100 and set(CORRUPTIONS) | rows == set(intact)
    assert intact["line census", "census orbit-equivalent to published list"].detail == "35 distinct orbits"


@pytest.mark.parametrize("check", list(CORRUPTIONS), ids=[name for _, name in CORRUPTIONS])
def test_a_corruption_fails_its_check(check, monkeypatch, capsys):
    """Each corruption fails its check through ``verify_all()``, which
    returns, with the entry's failing set and detail where it gives them; a
    changed golden constant, read where it is compared, fails that check
    alone where it gives no set, and every check still reports.  ``ringline
    verify all`` exits 1 and names the check, with that detail, with
    nothing on stderr."""
    kind, change, want, detail = CORRUPTIONS[check]
    _apply(monkeypatch, kind, change)
    report = verify_all()
    checks = _checks_anywhere(report)
    failed = {key for key, c in checks.items() if not c.passed}
    if want is None and kind == GOLDEN:
        want = {check}
    assert check in failed and failed == (failed if want is None else want)
    assert kind != GOLDEN or report.tally()[0] == 100
    assert detail is None or checks[check].detail == detail
    assert cli.main(["verify", "all"]) == 1
    out, err = capsys.readouterr()
    assert "result: FAIL" in out and f"[FAIL] {check[1]}" + ("" if detail is None else f": {detail}\n") in out
    assert err == ""


def _details(report):
    return {c.name: c.detail for c in report.checks}


def _with_line(**changes):
    """A fresh structure on a changed copy of the m2f2 line, for the
    transitivity verifier."""
    line, *rest = co.STRUCTURE.sub
    st = co.Structure()
    st.sub = (line._replace(**changes), *rest)
    return st


def test_transitivity_is_exhaustive():
    report = verify_transitivity(co.STRUCTURE)
    assert report.passed
    assert [c.name for c in report.checks] == [WITNESS_CHECK, ORDER_CHECK]
    assert report.data["triples"] == 3360
    assert report.data["distant_pairs"] == 560
    assert report.data["stabilizer"] == sorted(co.units(co.ring_by_name("m2f2")))


def test_corrupted_span_fails_the_witness_check(monkeypatch):
    line = co.STRUCTURE.sub[0]
    i, j = next((i, row.index("+")) for i, row in enumerate(line.relation) if "+" in row)
    x0, y0 = line.points[i].canonical, line.points[j].canonical
    spans = dict(line.spans)
    spans[x0] |= spans[y0]
    monkeypatch.setattr(line, "spans", spans)
    report = verify_transitivity(co.STRUCTURE)
    assert WITNESS_CHECK in _failed(report)
    assert _details(report)[WITNESS_CHECK].endswith(
        f"; no witness for points {i} and {j} with unit 1"
    )


@pytest.mark.parametrize("sign", ["+", "-"])
def test_corrupted_relation_fails_the_witness_check(sign, monkeypatch):
    """A flipped relation cell fails by name, and nothing the changed
    relation calls non-distant is witnessed."""
    line = co.STRUCTURE.sub[0]
    i, j = next(
        (i, j) for i, row in enumerate(line.relation) for j, s in enumerate(row) if s == sign and i != j
    )
    st = _with_line(relation=_flip_cell_pair(line.relation, i, j))
    bad = st.sub[0]
    report = verify_transitivity(st)
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
    ring = co.STRUCTURE.sub[0].ring
    table = [list(row) for row in ring.mul_table]
    table[ring.one][ring.zero] = 3
    report = verify_transitivity(_with_line(ring=ring._replace(mul_table=tuple(map(tuple, table)))))
    assert _details(report)[WITNESS_CHECK].endswith("; no witness for points 0 and 1 with unit 1")


@pytest.mark.parametrize(
    "side, change, failed, detail",
    [
        ("stabilizer", "drop", {ORDER_CHECK}, "orbit 3360 x stabilizer 5 = 16800"),
        ("stabilizer", "add", set(), "orbit 3360 x stabilizer 6 = 20160"),
        ("witnesses", "drop", {WITNESS_CHECK, ORDER_CHECK}, "2800 of 3360 triples witnessed"),
        ("witnesses", "add", {WITNESS_CHECK}, "; no witness for points 0 and 1 with unit 0"),
    ],
    ids=["stabilizer short", "stabilizer with zero", "witnesses short", "witnesses with zero"],
)
def test_wrong_unit_list(side, change, failed, detail, monkeypatch):
    """A unit list one short fails the order check from the stabilizer side
    (``rings.units``) and the witness count from the witness side (the
    line's units); an extra non-unit is no scalar of the stabilizer and
    gives no witness.  Nothing raises."""
    good = co.units(co.ring_by_name("m2f2"))
    wrong = frozenset(sorted(good)[:-1]) if change == "drop" else good | {0}
    if side == "stabilizer":
        monkeypatch.setattr(co, "units", lambda ring: wrong)
    else:
        monkeypatch.setattr(co.STRUCTURE.sub[0], "units", tuple(sorted(wrong)))
    report = verify_transitivity(co.STRUCTURE)
    assert _failed(report) == failed
    assert any(detail in d for d in _details(report).values())


def test_report_json_round_trip():
    report = verify_relation_signs(co.STRUCTURE)
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["schema"] == 1
    assert parsed["passed"] is True
    assert isinstance(parsed["checks"], list)


def test_report_text_format():
    report = verify_ring_tables(co.STRUCTURE)
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
