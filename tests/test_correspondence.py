"""End-to-end verifiers: sign tables, splits, sublines, reports."""

import copy
import itertools
import json
import sys
from collections import Counter
from types import MappingProxyType

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
from ringline.quadrangle import Graph, IncidenceStructure
from ringline.rings import ring_by_name, ring_names, validate_ring


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


def test_fixture_flip_fails_verify_all_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(
        golden, "CANONICAL_SIGNS", _flip_cell_pair(golden.CANONICAL_SIGNS, 0, 6)
    )
    monkeypatch.setattr(co, "STRUCTURE", co.Structure())
    assert verify_all().tally() == (100, 3)
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert "result: FAIL" in captured.out
    assert captured.err == ""


def _with_cell(ring, table, x, y, value):
    rows = [list(row) for row in getattr(ring, table)]
    rows[x][y] = value
    return ring._replace(**{table: tuple(map(tuple, rows))})


def _serve(monkeypatch, bad):
    """Swap in a fresh structure that reads ``bad`` in place of the intact
    ring of its name."""
    st = co.Structure(lambda n: bad if n == bad.name else ring_by_name(n))
    monkeypatch.setattr(co, "STRUCTURE", st)


def _ring_with_cell(name, table, x, y):
    """Serve the named ring with cell (x, y) of ``table`` moved up by one,
    and return that ring."""

    def corrupt(monkeypatch):
        ring = ring_by_name(name)
        bad = _with_cell(ring, table, x, y, (getattr(ring, table)[x][y] + 1) % ring.order)
        _serve(monkeypatch, bad)
        return bad

    return corrupt


def _golden_changed(attr, change):
    def corrupt(monkeypatch):
        monkeypatch.setattr(golden, attr, change(getattr(golden, attr)))
        monkeypatch.setattr(co, "STRUCTURE", co.Structure())

    return corrupt


def _flip_mul_fixture_cell(table):
    rows = [list(row) for row in table]
    rows[2][3] ^= 1
    return tuple(map(tuple, rows))


def _zero_divisors_without_zero(monkeypatch):
    real = co.zero_divisors
    monkeypatch.setattr(co, "zero_divisors", lambda ring, us: real(ring, us) - {ring.zero})
    monkeypatch.setattr(co, "STRUCTURE", co.Structure())


# check of the ring-construction report -> a corruption that must fail it
RING_CHECK_CORRUPTIONS = {
    "addition table matches fixture": _ring_with_cell("m2f2", "add_table", 3, 5),
    "multiplication table matches fixture": _golden_changed(
        "M2F2_MUL_TABLE", _flip_mul_fixture_cell
    ),
    "unit set": _golden_changed("M2F2_UNITS", lambda u: u - {max(u)}),
    "zero divisor count": _zero_divisors_without_zero,
    "ring axioms hold for m2f2": _ring_with_cell("m2f2", "mul_table", 3, 5),
    "ring axioms hold for gf2": _ring_with_cell("gf2", "add_table", 1, 1),
    "ring axioms hold for gf4": _ring_with_cell("gf4", "add_table", 2, 3),
    "ring axioms hold for gf2xgf2": _ring_with_cell("gf2xgf2", "add_table", 2, 3),
    "ring axioms hold for gf2dual": _ring_with_cell("gf2dual", "mul_table", 2, 3),
}


def test_ring_corruption_table_covers_every_ring_check():
    assert [c.name for c in verify_ring_tables(co.STRUCTURE).checks] == list(RING_CHECK_CORRUPTIONS)


@pytest.mark.parametrize("check", RING_CHECK_CORRUPTIONS)
def test_every_ring_check_fails_through_verify_all(check, monkeypatch, capsys):
    """Each corruption, with the structure rebuilt under it, fails its check
    in the full certificate, an axiom check naming the first problem of the
    ring; ``verify_all()`` returns and ``ringline verify all`` exits 1
    without a traceback."""
    intact = {c.name: c.detail for c in verify_ring_tables(co.STRUCTURE).checks}
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
    st = co.Structure(lambda n: ring_by_name(served if n == name else n))
    monkeypatch.setattr(co, "STRUCTURE", st)
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
    stage is named by the title its report has on the intact ring."""
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
    if fmt == "json":
        doc = json.loads(captured.out)
        assert (doc["title"], doc["checks"]) == (title, [{"name": title, "passed": False, "detail": detail}])
    else:
        assert f"[FAIL] {title}: {detail}\n" in captured.out


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
    _ring_with_cell("m2f2", "mul_table", 3, 5)(monkeypatch)
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


@pytest.mark.parametrize("argv", [a for a in REPORTLESS if a[0] == "export"], ids=lambda a: a[2])
def test_a_failed_export_leaves_its_out_file_as_it_was(argv, monkeypatch, tmp_path, capsys):
    """An export that fails on a refused ring exits 1 without a traceback and
    leaves the bytes its --out file held."""
    out = tmp_path / "out"
    out.write_bytes(b"nine byte")
    _ring_with_cell("m2f2", "mul_table", 3, 5)(monkeypatch)
    assert cli.main([str(out) if a is None else a for a in argv]) == 1
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == b"nine byte"


@pytest.mark.parametrize("argv", [a for a in REPORTLESS if a[0] == "export"], ids=lambda a: a[2])
def test_a_failed_export_leaves_no_new_out_file(argv, monkeypatch, tmp_path, capsys):
    """An export that fails on a refused ring removes the --out file that it
    created for its up-front check."""
    out = tmp_path / "out"
    _ring_with_cell("m2f2", "mul_table", 3, 5)(monkeypatch)
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
    _ring_with_cell("m2f2", "mul_table", 3, 5)(monkeypatch)
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


def test_family_sizes_are_read_from_the_families(monkeypatch):
    """With C7 filed as distant from both base points, the 15 points keep
    their order but the families are 7 + 8: the size check and the nine
    check fail."""
    real = co.simultaneous_subconfig

    def moved(line, u, v):
        fam_distant, fam_neighbor = real(line, u, v)
        return fam_distant + fam_neighbor[:1], fam_neighbor[1:]

    monkeypatch.setattr(co, "simultaneous_subconfig", moved)
    st = co.Structure()
    assert _failed(verify_subconfig(st)) == {"family sizes 6 and 9"}
    assert NINE_CHECK in _failed(verify_split_9_6(st, co.standard_square(st, co.line_table(st))))


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
    assert nine == [sum(1 << j for j in signs.neighbors(i)) for i in range(9)]
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


def _drop(monkeypatch, part, pick):
    """Swap in a fresh structure whose ``part`` ("hyperplanes" or "spreads")
    lacks the entry that ``pick`` chooses from the intact one."""
    entries = getattr(co.STRUCTURE, part)
    st, dropped = co.Structure(), pick(entries)
    setattr(st, part, tuple(x for x in entries if x != dropped))
    monkeypatch.setattr(co, "STRUCTURE", st)


def test_perp_subline_of_c13(monkeypatch):
    """With the perp set of C13 dropped from the hyperplanes, exactly its
    perp check fails, still listing the pairs of its six neighbors."""
    assert verify_perp_sublines(co.STRUCTURE).passed
    _drop(monkeypatch, "hyperplanes", lambda planes: next(h for h in planes if h.center == 13))
    assert ("perp-set sublines", "perp set of C13") in _failed_anywhere(verify_all())
    perp = co.run("perp-set sublines")
    assert _failed(perp) == {"perp set of C13"}
    assert perp.data["pairs"]["13"] == [[4, 5], [7, 10], [14, 15]]


# a census entry to drop -> (the structure part, a pick of the entry, the check that must fail)
CENSUS_DROPS = {
    "grid": (
        "hyperplanes",
        lambda planes: next(h for h in planes if h.kind == GRID),
        ("magic squares", "10 grid hyperplanes"),
    ),
    "ovoid": (
        "hyperplanes",
        lambda planes: next(h for h in planes if h.kind == "ovoid" and h.points != golden.SAMPLE_OVOID),
        ("10 plus 5 factorization", "6 ovoids to examine"),
    ),
    "sample ovoid": (
        "hyperplanes",
        lambda planes: next(h for h in planes if h.points == golden.SAMPLE_OVOID),
        ("10 plus 5 factorization", "the published sample ovoid is among them"),
    ),
    "spread": ("spreads", lambda spreads: spreads[0], ("unbiased bases", "6 spreads to examine")),
}


@pytest.mark.parametrize("drop", CENSUS_DROPS)
def test_a_census_shortfall_fails_its_count_check(drop, monkeypatch):
    """A structure with one grid, ovoid or spread missing, or the published
    sample ovoid missing, fails the check that counts or names it, and
    ``verify_all()`` returns."""
    part, pick, check = CENSUS_DROPS[drop]
    _drop(monkeypatch, part, pick)
    assert check in _failed_anywhere(verify_all())


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
    for key in [key for key in st.parts if key[0] == "isomorphism"]:
        del st.parts[key]


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
        co.STRUCTURE.isomorphism(_petersen_masks(golden.SAMPLE_OVOID))[0] = 1
    witnesses = verify_petersen(co.STRUCTURE).data["witnesses"]
    kept = copy.deepcopy(witnesses)
    for witness in witnesses:
        witness["mapping"][0][1].clear()
        witness["mapping"].clear()
    assert verify_petersen(co.STRUCTURE).data["witnesses"] == kept


def _failed_anywhere(report):
    failed = {(report.title, c.name) for c in report.checks if not c.passed}
    return failed.union(*(_failed_anywhere(r) for r in report.subreports))


def _petersen_checks(ovoid):
    """The checks of ``verify_all()`` that use the Petersen witness of ``ovoid``."""
    labels = co._cset(ovoid)
    return {
        ("Petersen complements", f"complement of {labels} is Petersen"),
        ("10 plus 5 factorization", f"ovoid {labels}"),
        ("hyperplane trinity", OVOID_ROW),
    }


@pytest.mark.parametrize("index", range(6))
def test_petersen_witness_with_two_images_swapped_fails(index, monkeypatch):
    """The search result is kept, but every call checks it edge by edge: a
    kept mapping with two images swapped fails, through ``verify_all()``,
    the Petersen check of its ovoid in both reports that use it, and the
    trinity row that sums up the second, and nothing else."""
    ovoids = _ovoids()
    assert len(ovoids) == 6 and len({_petersen_masks(o) for o in ovoids}) == 6
    assert verify_all().passed
    key = ("isomorphism", _petersen_masks(ovoids[index]))
    real = co.STRUCTURE.parts[key]
    swapped = MappingProxyType({**real, 0: real[1], 1: real[0]})
    monkeypatch.setitem(co.STRUCTURE.parts, key, swapped)
    assert _failed_anywhere(verify_all()) == _petersen_checks(ovoids[index])
    monkeypatch.undo()
    assert verify_all().passed


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
    key = ("isomorphism", _petersen_masks(ovoids[0]))
    mapping = bad(co.STRUCTURE.parts[key])
    st = co.Structure()
    st.parts[key] = quadrangle.MaskMapping(mapping) if kept == "MaskMapping" else mapping
    monkeypatch.setattr(co, "STRUCTURE", st)
    for _ in range(2):
        assert _failed_anywhere(verify_all()) == _petersen_checks(ovoids[0])
    assert st.parts[key] == mapping


def test_petersen_reference_with_an_edge_dropped_fails(monkeypatch, capsys):
    """A reference graph with one edge dropped is no Petersen graph: it
    fails its sanity check and every ovoid's Petersen checks, through
    ``verify_all()`` and the CLI, without a traceback."""
    reference = co.petersen_graph()
    bad = Graph(reference.vertices, reference.edges - {frozenset(reference.sorted_edges()[0])})
    monkeypatch.setattr(co, "petersen_graph", lambda: bad)
    expected = {("Petersen complements", "reference graph sane")}
    assert _failed_anywhere(verify_all()) == expected.union(*map(_petersen_checks, _ovoids()))
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] reference graph sane" in captured.out
    assert captured.err == ""


def _relabelled_gq():
    """The canonical quadrangle with points 1 and 2 trading labels: a valid
    quadrangle whose collinearity masks differ."""
    s, swap = co.STRUCTURE.gq, {1: 2, 2: 1}
    lines = tuple(frozenset(swap.get(p, p) for p in line) for line in s.lines)
    relabelled = IncidenceStructure(s.points, lines)
    assert relabelled.collinearity_graph.masks != s.collinearity_graph.masks
    return relabelled


def _first_run_on_a_relabelled_nine(monkeypatch):
    """``verify_split_9_6`` on a structure that keeps, as the masks of the
    nine, those of the nine with their first two points swapped: a valid
    gf2xgf2 model with other masks."""
    st = co.Structure()
    nine = tuple(st.sub[3][6:])
    relabelled = st.induced((nine[1], nine[0]) + nine[2:])
    assert relabelled != st.induced(nine)
    st.parts["induced", nine] = relabelled
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
        kept.append([key for key in st.parts if key[0] == "isomorphism"])
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
    assert st.parts["induced", nine] == tuple(real(line, nine))


@pytest.mark.parametrize("first, second", list(itertools.product(*map(sorted, golden.TRIPLE_SPLIT))))
def test_split_9_6_searches_the_split_on_each_call(first, second, monkeypatch):
    """After a warm run, a cross pair of the recorded split made distant in
    the structure's line fails the split check: the neighbor mask test
    reads the line on each call, so no gf4 witness of a triple is tried."""
    assert verify_all().passed
    line, u, v, pts, families = co.STRUCTURE.sub
    i, j = (line.index_of(families[0][label - 1].canonical) for label in (first, second))
    assert line.relation[i][j] == "-"
    rows = [list(row) for row in line.relation]
    rows[i][j] = rows[j][i] = "+"
    bad = line._replace(relation=tuple("".join(row) for row in rows))
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
PERP_ROW = "perp row: 15 perp sets, gf2dual sublines, six commuting partners"
OVOID_ROW = "ovoid row: 6 ovoids, gf4 sublines, mutually non-commuting fives"
NINE_CHECK = "nine common neighbors model the line over gf2xgf2"
SPLIT_CHECK = "exactly one split of the six into two gf4 triples"


def _kept_subline(kind, index):
    """The points of one kept sub-line witness, in the order its verifier
    lists them, and the checks of ``verify_all()`` that use that witness."""
    _, u, v, pts, _ = co.STRUCTURE.sub
    if kind == "perp":
        nbrs = sorted(co.STRUCTURE.graph.neighbors(index))
        checks = {("perp-set sublines", f"perp set of C{index}"), ("hyperplane trinity", PERP_ROW)}
        return [pts[i - 1] for i in nbrs], checks
    if kind == "ovoid":
        labels = sorted([h for h in co.STRUCTURE.hyperplanes if h.kind == "ovoid"][index].points)
        ovoid = ("10 plus 5 factorization", f"ovoid {co._cset(labels)}")
        return [pts[i - 1] for i in labels], {ovoid, ("hyperplane trinity", OVOID_ROW)}
    if kind == "nine":
        balance = "each of the nine has 4 neighbor and 4 distant partners inside"
        return list(pts[6:]), {("9 plus 6 factorization", name) for name in (NINE_CHECK, balance)}
    triple = sorted(golden.TRIPLE_SPLIT[index])
    return [pts[i - 1] for i in triple] + [u, v], {("9 plus 6 factorization", SPLIT_CHECK)}


KEPT_SUBLINES = (
    [("perp", x) for x in range(1, 16)]
    + [("ovoid", i) for i in range(6)]
    + [("nine", 0), ("triple", 0), ("triple", 1)]
)


@pytest.mark.parametrize("kind, index", KEPT_SUBLINES, ids=[f"{k}-{i}" for k, i in KEPT_SUBLINES])
def test_kept_subline_witness_fails_on_a_flipped_mask_bit(kind, index, monkeypatch, capsys):
    """Every call checks a sub-line mapping against the structure's kept
    masks: after a warm call, one bit flipped in the kept adjacency masks
    of one sub-line fails exactly the checks that use it, ``verify_all()``
    returns, and ``ringline verify all`` exits 1 without a traceback."""
    assert verify_all().passed
    points, checks = _kept_subline(kind, index)
    key = ("induced", tuple(points))
    masks = co.STRUCTURE.parts[key]
    monkeypatch.setitem(co.STRUCTURE.parts, key, (masks[0] ^ 0b10,) + masks[1:])
    assert _failed_anywhere(verify_all()) == checks
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert all(f"[FAIL] {name}" in captured.out for _, name in checks)
    assert captured.err == ""


def test_kept_subline_witness_fails_on_a_flipped_relation_cell(monkeypatch, capsys):
    """A neighbor pair of the nine made distant in the line's relation fails
    the kept witness of the nine, through ``verify_all()`` and the CLI."""
    assert verify_all().passed
    line, u, v, pts, families = co.STRUCTURE.sub
    i, j = line.index_of(pts[6].canonical), line.index_of(pts[7].canonical)
    assert line.relation[i][j] == "-"
    rows = [list(row) for row in line.relation]
    rows[i][j] = rows[j][i] = "+"
    bad = line._replace(relation=tuple("".join(row) for row in rows))
    st = co.Structure()
    st.sub = (bad, u, v, pts, families)
    monkeypatch.setattr(co, "STRUCTURE", st)
    assert ("9 plus 6 factorization", NINE_CHECK) in _failed_anywhere(verify_all())
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] {NINE_CHECK}" in captured.out
    assert captured.err == ""


GRID_ROW = "grid row: 10 grids, gf2xgf2 sublines, magic squares"


def _flipped_operator_cell(st):
    rows = list(st.operator_signs)
    rows[0] = rows[0][0] + {"+": "-", "-": "+"}[rows[0][1]] + rows[0][2:]
    signs = ("relation sign matrix", "geometry vs operators"), ("relation sign matrix", "operators vs fixture")
    return "operator_signs", tuple(rows), set(signs)


def _no_triangles(st):
    return "triangles", (), {("sub-configuration", "maximum neighbor clique is 3")}


def _one_grid_dropped_from_its_kind(st):
    by_kind = dict(st.by_kind, grid=st.by_kind["grid"][1:])
    checks = {("hyperplane census", "10 grids"), ("magic squares", "10 grid hyperplanes")}
    return "by_kind", by_kind, checks | {("hyperplane trinity", GRID_ROW)}


def _flipped_complement_bit(st):
    ovoid = st.by_kind["ovoid"][0].points
    keep, masks = st.complement(ovoid)
    return ("complement", ovoid), (keep, (masks[0] ^ 0b10,) + masks[1:]), _petersen_checks(ovoid)


def _a_centre_with_a_pair_dropped(st):
    nbrs, pairs, perp = st.centre(13)
    checks = {("perp-set sublines", "perp set of C13"), ("hyperplane trinity", PERP_ROW)}
    return ("centre", 13), (nbrs, pairs[1:], perp), checks


def _a_grid_without_cells(st):
    grid = st.by_kind["grid"][0].points
    check = ("magic squares", f"grid {co._cset(grid)} admits a magic arrangement")
    return ("cells", grid), None, {check, ("hyperplane trinity", GRID_ROW)}


@pytest.mark.parametrize("change", [
    _flipped_operator_cell, _no_triangles, _one_grid_dropped_from_its_kind,
    _flipped_complement_bit, _a_centre_with_a_pair_dropped, _a_grid_without_cells,
])
def test_a_changed_kept_part_fails_the_checks_that_read_it(change, monkeypatch, capsys):
    """Every call reads the structure's kept parts and checks them: after a
    warm call, one change to one part (the operator sign matrix, the
    triangles, the hyperplanes of a kind, an ovoid complement, a centre, a
    grid arrangement) fails exactly the checks that read it and the
    trinity rows that sum them up, ``verify_all()`` returns, and
    ``ringline verify all`` exits 1 without a traceback."""
    assert verify_all().passed
    part, value, checks = change(co.STRUCTURE)
    if isinstance(part, str):
        monkeypatch.setattr(co.STRUCTURE, part, value)
    else:
        assert part in co.STRUCTURE.parts
        monkeypatch.setitem(co.STRUCTURE.parts, part, value)
    assert _failed_anywhere(verify_all()) == checks
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert all(f"[FAIL] {name}" in captured.out for _, name in checks)
    assert captured.err == ""


def _toggled_collinearity(s):
    g = s.collinearity_graph
    return {"collinearity_graph": Graph(g.vertices, g.edges ^ {frozenset((1, 2))})}


def _dual_with_a_point_moved(s):
    d = s.dual_structure
    lines = list(d.lines)
    p, q = min(lines[0] - lines[1]), min(lines[1] - lines[0])
    lines[0], lines[1] = lines[0] - {p} | {q}, lines[1] - {q} | {p}
    return {"dual_structure": IncidenceStructure(d.points, tuple(lines))}


def _dual_lines_changed_on_the_same_graph(s):
    """The dual with two lines trading a point but its collinearity graph
    kept: the mask check passes and only the line check can fail."""
    moved = _dual_with_a_point_moved(s)["dual_structure"]
    moved.__dict__["collinearity_graph"] = s.dual_structure.collinearity_graph
    return {"dual_structure": moved}


@pytest.mark.parametrize(
    "change", [_toggled_collinearity, _dual_with_a_point_moved, _dual_lines_changed_on_the_same_graph]
)
def test_kept_self_duality_fails_on_a_changed_quadrangle(change, monkeypatch, capsys):
    """Every call checks the self-duality mapping against the current
    quadrangle: one whose collinearity graph has one edge toggled, or whose
    dual has two lines trading a point, fails the self-duality check through
    ``verify_all()`` and the CLI, without a traceback."""
    assert verify_all().passed
    s = co.STRUCTURE.gq
    bad = IncidenceStructure(*s)
    bad.__dict__.update(change(s))
    st = co.Structure()
    st.gq = bad
    monkeypatch.setattr(co, "STRUCTURE", st)
    check = ("quadrangle structure", "self-duality isomorphism found")
    assert check in _failed_anywhere(verify_all())
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] {check[1]}" in captured.out
    assert captured.err == ""
    assert co.quadrangle_axioms(st) == ([], None)


def _signs_with_a_distant_diagonal_cell(st):
    rows = list(st.signs)
    rows[0] = "+" + rows[0][1:]
    return {"signs": tuple(rows)}


def _gq_with_a_line_dropped(st):
    s = st.gq
    return {"gq": IncidenceStructure(s.points, s.lines[1:])}


def _gq_with_the_first_line_repeating_the_second(st):
    s = st.gq
    return {"gq": IncidenceStructure(s.points, s.lines[1:2] + s.lines[1:])}


def _sub_with_the_six_distant_points_rotated(st):
    line, u, v, pts, (distant, neighbor) = st.sub
    return {"sub": (line, u, v, pts, (distant[1:] + distant[:1], neighbor))}


# a check that no corrupted ring or fixture fails -> the parts of a fresh
# structure, read off the intact one, that must fail it
PART_CORRUPTIONS = {
    ("relation sign matrix", "diagonal is self-neighbor throughout"): _signs_with_a_distant_diagonal_cell,
    ("quadrangle structure", "15 points and 15 lines"): _gq_with_a_line_dropped,
    ("quadrangle structure", "quadrangle axioms hold"): _gq_with_the_first_line_repeating_the_second,
    ("9 plus 6 factorization", "split matches the recorded one"): _sub_with_the_six_distant_points_rotated,
}


@pytest.mark.parametrize("check", list(PART_CORRUPTIONS), ids=[name for _, name in PART_CORRUPTIONS])
def test_a_set_structure_part_fails_its_check(check, monkeypatch, capsys):
    """Each part set on a fresh structure fails its check through
    ``verify_all()``, which returns, and through the CLI, which exits 1
    with nothing on stderr."""
    st = co.Structure()
    for part, value in PART_CORRUPTIONS[check](co.STRUCTURE).items():
        setattr(st, part, value)
    monkeypatch.setattr(co, "STRUCTURE", st)
    assert check in _failed_anywhere(verify_all())
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] {check[1]}" in captured.out
    assert captured.err == ""


def _census_reps_with_the_first_repeating_the_second():
    reps = golden.LINE_CENSUS_REPS
    return {"LINE_CENSUS_REPS": reps[1:2] + reps[1:]}


def _point_reps_with_the_first_two_swapped():
    reps = golden.POINT_REPS
    return {"POINT_REPS": reps[1::-1] + reps[2:]}


# a check that no corrupted ring, fixture or structure part fails -> the
# golden constants, read off the intact ones, that must fail it alone
GOLDEN_CORRUPTIONS = {
    ("line census", "census orbit-equivalent to published list"): _census_reps_with_the_first_repeating_the_second,
    ("sub-configuration", "families reproduce the published points in order"): _point_reps_with_the_first_two_swapped,
}


@pytest.mark.parametrize("check", list(GOLDEN_CORRUPTIONS), ids=[name for _, name in GOLDEN_CORRUPTIONS])
def test_a_changed_golden_constant_fails_its_check_alone(check, monkeypatch, capsys):
    """Each changed golden constant fails its check and no other through
    ``verify_all()``, which returns, and through the CLI, which exits 1
    with nothing on stderr."""
    for name, value in GOLDEN_CORRUPTIONS[check]().items():
        monkeypatch.setattr(golden, name, value)
    assert _failed_anywhere(verify_all()) == {check}
    assert cli.main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] {check[1]}" in captured.out
    assert captured.err == ""


def test_a_failing_census_states_its_distinct_orbits(monkeypatch):
    """The orbit check words the count of distinct published orbits it
    found: 34 when one representative repeats another's class, 35 intact."""
    check = "census orbit-equivalent to published list"
    assert _details(co.verify_line_census(co.STRUCTURE))[check] == "35 distinct orbits"
    for name, value in _census_reps_with_the_first_repeating_the_second().items():
        monkeypatch.setattr(golden, name, value)
    report = co.verify_line_census(co.STRUCTURE)
    assert check in _failed(report)
    assert _details(report)[check] == "34 distinct orbits"


WITNESS_CHECK = "every ordered pairwise-distant triple is witnessed"
ORDER_CHECK = "invertible group has order 20160"


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
    rows = [list(row) for row in line.relation]
    rows[i][j] = rows[j][i] = "-" if sign == "+" else "+"
    st = _with_line(relation=tuple("".join(row) for row in rows))
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
