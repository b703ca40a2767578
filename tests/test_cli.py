"""Command line surface: exit codes, determinism, formats, exports."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ringline import cli, export, golden, projline
from ringline import correspondence as co

# every happy-path invocation in one table; all must exit 0
OK_COMMANDS = [
    ["ring", "show", "m2f2"],
    ["ring", "show", "gf4", "--format", "json"],
    ["ring", "show", "m2f2", "--format", "csv"],
    ["ring", "validate", "gf2xgf2"],
    ["line", "enumerate"],
    ["line", "enumerate", "--ring", "gf2dual", "--format", "json"],
    ["line", "relations", "--ring", "gf4"],
    ["line", "subconfig"],
    ["line", "subconfig", "--u", "1,1", "--v", "0,1"],
    ["gq", "build"],
    ["gq", "axioms"],
    ["gq", "ovoids"],
    ["gq", "spreads"],
    ["gq", "hyperplanes", "--format", "json"],
    ["gq", "petersen"],
    ["pauli", "table"],
    ["pauli", "mermin"],
    ["pauli", "mub"],
    ["verify", "table2"],
    ["verify", "factor96"],
    ["verify", "factor105"],
    ["verify", "trinity"],
    ["verify", "all"],
    ["verify", "all", "--no-header"],
    ["verify", "trinity", "--format", "json"],
]


@pytest.mark.parametrize("argv", OK_COMMANDS, ids=lambda a: " ".join(a))
def test_command_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.strip()


# Exit code and SHA-256 of stdout for each command; a change that alters
# any of these bytes must update tests/data/cli_stdout.json on purpose.
PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_stdout.json").read_text()
)


@pytest.mark.parametrize("pin", PINNED, ids=lambda e: " ".join(e["argv"]))
def test_command_output_matches_pinned_bytes(pin, capsys):
    code = cli.main(pin["argv"])
    out = capsys.readouterr().out
    cmd = " ".join(pin["argv"])
    assert code == pin["exit"], f"{cmd}: exit {code}, pinned {pin['exit']}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == pin["sha256"], f"{cmd}: stdout differs from the pinned bytes"


def test_verify_all_output_is_byte_identical(capsys):
    assert cli.main(["verify", "all"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "all"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "result: PASS" in first


def test_verify_text_mentions_every_check_state(capsys):
    cli.main(["verify", "trinity"])
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_json_parses(capsys):
    assert cli.main(["verify", "trinity", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert len(doc["subreports"]) == 4


def test_ring_show_json_parses(capsys):
    assert cli.main(["ring", "show", "m2f2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert len(doc["mul_table"]) == 16


def test_line_enumerate_json_parses(capsys):
    assert cli.main(["line", "enumerate", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert len(doc["points"]) == 35


def test_gq_hyperplanes_json_parses(capsys):
    assert cli.main(["gq", "hyperplanes", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["ovoids"]) == 6
    assert len(doc["perp_sets"]) == 15
    assert len(doc["grids"]) == 10
    assert len(doc["spreads"]) == 6


def test_pauli_mermin_prints_signs(capsys):
    assert cli.main(["pauli", "mermin"]) == 0
    out = capsys.readouterr().out
    assert "row signs: (-1, 1, 1)" in out
    assert "column signs: (1, 1, 1)" in out
    assert "magic: yes" in out


# error paths: argument problems and unreadable input exit 2

BAD_USAGE = [
    ["ring", "show", "nosuchring"],
    ["line", "enumerate", "--ring", "nosuchring"],
    ["line", "subconfig", "--u", "1;0"],
    ["line", "subconfig", "--u", "99,0"],
    ["line", "subconfig", "--u", "0,0"],
    ["verify", "factor96", "--fixture", "somefile.txt"],
    ["verify", "table2", "--fixture", "/nonexistent/f.txt"],
    ["ring", "show", "m2f2", "--format", "dot"],
    ["verify", "all", "--format", "csv"],
]


@pytest.mark.parametrize("argv", BAD_USAGE, ids=lambda a: " ".join(a))
def test_bad_usage_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err


TEXT_JSON_ONLY = "format 'csv' not supported here (choose from text, json)"

# argv, the work it must not start (``STRUCTURE``: any read of the derived
# structure), and the usage error it must print
BAD_FORMAT = [
    (["verify", "all", "--format", "csv"], "verify_all", TEXT_JSON_ONLY),
    (["verify", "trinity", "--format", "csv"], "trinity_report", TEXT_JSON_ONLY),
    (["pauli", "mermin", "--format", "csv"], "standard_square", TEXT_JSON_ONLY),
    (
        ["line", "relations", "--format", "xml"],
        "enumerate_line",
        "format 'xml' not supported here (choose from text, json, csv, dot)",
    ),
    (["gq", "build", "--format", "csv"], "STRUCTURE", TEXT_JSON_ONLY),
    (["pauli", "mub", "--format", "csv"], "STRUCTURE", TEXT_JSON_ONLY),
    (
        ["export", "--what", "gq", "--format", "csv", "--out", "gq.csv"],
        "STRUCTURE",
        "cannot export gq as csv",
    ),
    (["gq", "petersen", "--ovoid", "9"], "STRUCTURE", "--ovoid must lie in 0..5"),
    (["pauli", "mub", "--spread", "9"], "STRUCTURE", "--spread must lie in 0..5"),
    (
        ["export", "--what", "hyperplanes", "--format", "json", "--out", "missing/x.json"],
        "STRUCTURE",
        "cannot write missing/x.json",
    ),
    (
        ["export", "--what", "line", "--ring", "nosuch", "--format", "json", "--out", "line.json"],
        "enumerate_line",
        "unknown ring 'nosuch'",
    ),
]


@pytest.mark.parametrize(
    "argv, work, message",
    [pytest.param(*case, id=f"{' '.join(case[0])}-{case[1]}") for case in BAD_FORMAT],
)
def test_bad_format_rejected_before_any_work(
    argv, work, message, tmp_path, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the format was checked")

    if work == "STRUCTURE":
        # a structure whose every part refuses to be built
        monkeypatch.setattr(co, "STRUCTURE", co.Structure(refuse))
    else:
        # patch the defining module: cli imports each layer name from there when it runs
        home = sys.modules[getattr(co, work).__module__]
        monkeypatch.setattr(home, work, refuse)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert not list(tmp_path.iterdir())


def test_subconfig_parses_base_points_before_enumerating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the line was enumerated before --u was parsed")

    monkeypatch.setattr(projline, "enumerate_line", refuse)
    assert cli.main(["line", "subconfig", "--u", "1;0"]) == 2
    assert "error: expected a pair like 1,0 but got '1;0'" in capsys.readouterr().err


# argv, the census part of the structure to shorten by one, and the failed check to report
CENSUS_SHORT = [
    (["gq", "petersen"], "hyperplanes", "6 ovoids: 5 computed"),
    (["gq", "petersen", "--ovoid", "5"], "hyperplanes", "6 ovoids: 5 computed"),
    (["pauli", "mub", "--spread", "5"], "spreads", "6 spreads: 5 computed"),
]


@pytest.mark.parametrize(
    "argv, work, message",
    [pytest.param(*case, id=" ".join(case[0])) for case in CENSUS_SHORT],
)
def test_census_shortfall_fails_without_index_error(argv, work, message, monkeypatch, capsys):
    full = getattr(co.STRUCTURE, work)
    if work == "hyperplanes":
        drop = next(h for h in full if h.kind == "ovoid")
        short = tuple(h for h in full if h is not drop)
    else:
        short = full[1:]
    st = co.Structure()
    setattr(st, work, short)
    monkeypatch.setattr(co, "STRUCTURE", st)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] {message}" in captured.out
    assert captured.err == ""
    assert cli.main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False


def test_edge_sign_choices_are_the_projline_relations():
    assert (cli.DISTANT, cli.NEIGHBOR) == (projline.DISTANT, projline.NEIGHBOR)
    parser = cli.build_parser()
    for argv in (["line", "relations"], ["export", "--what", "signs", "--format", "dot", "--out", "x"]):
        assert parser.parse_args(argv).edge_sign == projline.NEIGHBOR
        args = parser.parse_args(argv + ["--edge-sign", projline.DISTANT])
        assert args.edge_sign == projline.DISTANT
    with pytest.raises(SystemExit):
        parser.parse_args(["line", "relations", "--edge-sign", "x"])


def test_unknown_ring_message_lists_choices(capsys):
    cli.main(["ring", "show", "qqq"])
    err = capsys.readouterr().err
    assert "unknown ring 'qqq'" in err
    assert "m2f2" in err and "gf2dual" in err


# verification failures exit 1 and name the offending cells

def write_fixture(path, rows):
    path.write_text("# commutation fixture\n\n" + "\n".join(rows) + "\n")


def test_verify_table2_against_good_fixture_file(tmp_path, capsys):
    f = tmp_path / "good.txt"
    write_fixture(f, golden.CANONICAL_SIGNS)
    assert cli.main(["verify", "table2", "--fixture", str(f)]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_verify_table2_detects_corrupted_fixture(tmp_path, capsys):
    flip = {"+": "-", "-": "+"}
    rows = list(golden.CANONICAL_SIGNS)
    row = list(rows[0])
    row[1] = flip[row[1]]
    rows[0] = "".join(row)
    row = list(rows[1])
    row[0] = flip[row[0]]
    rows[1] = "".join(row)
    f = tmp_path / "bad.txt"
    write_fixture(f, rows)
    assert cli.main(["verify", "table2", "--fixture", str(f)]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "C1,C2" in out


def test_verify_table2_rejects_short_fixture(tmp_path, capsys):
    f = tmp_path / "short.txt"
    write_fixture(f, golden.CANONICAL_SIGNS[:3])
    assert cli.main(["verify", "table2", "--fixture", str(f)]) == 1


def _row_changed(i, change):
    rows = list(golden.CANONICAL_SIGNS)
    rows[i] = change(rows[i])
    return rows


@pytest.mark.parametrize("rows, named", [
    (_row_changed(2, lambda row: row + "+"), "row 3 has 16 signs, expected 15"),
    (_row_changed(4, lambda row: row[:6] + "x" + row[7:]), "row 5: 'x' at column 7 is not + or -"),
    (_row_changed(0, lambda row: row + "  # note"), "row 1: ' ' at column 16 is not + or -"),
], ids=["a-sign-too-many", "an-x", "an-inline-comment"])
def test_verify_table2_names_the_first_malformed_fixture_row(rows, named, tmp_path, capsys):
    """A fixture of 15 rows with one bad row fails its shape check naming
    that row and why, not its row count: exit 1 and nothing on stderr."""
    f = tmp_path / "bad.txt"
    write_fixture(f, rows)
    assert cli.main(["verify", "table2", "--fixture", str(f)]) == 1
    captured = capsys.readouterr()
    assert f"[FAIL] fixture well-formed: {named}\n" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("header", ["", "# commutation fixture\n\n"], ids=["bare", "commented"])
def test_verify_table2_reads_a_fixture_with_a_byte_order_mark(header, tmp_path, capsys):
    """The stored fixture saved as UTF-8 with a byte order mark passes all
    five checks."""
    f = tmp_path / "bom.txt"
    f.write_bytes(("\ufeff" + header + "\n".join(golden.CANONICAL_SIGNS) + "\n").encode("utf-8"))
    assert cli.main(["verify", "table2", "--fixture", str(f)]) == 0
    captured = capsys.readouterr()
    assert "[PASS] fixture well-formed: 15 rows of 15 signs\n" in captured.out
    assert captured.out.endswith("checks: 5  failed: 0  result: PASS\n")
    assert captured.err == ""


def test_verify_table2_refuses_a_fixture_that_is_not_utf8(tmp_path, capsys):
    """A fixture that does not decode is a usage error, as a missing one
    is: exit 2 and one error line, no FAIL report."""
    f = tmp_path / "latin1.txt"
    f.write_bytes("# matrice de commutation \xe9\n".encode("latin-1") + "\n".join(golden.CANONICAL_SIGNS).encode())
    assert cli.main(["verify", "table2", "--fixture", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read fixture {f}: 'utf-8' codec can't decode")


# exports: every supported (what, format) combination writes a file

EXPORT_COMBOS = [
    ("signs", "csv"),
    ("signs", "dot"),
    ("signs", "json"),
    ("line", "json"),
    ("line", "csv"),
    ("line", "dot"),
    ("gq", "json"),
    ("gq", "dot"),
    ("hyperplanes", "json"),
    ("petersen", "dot"),
    ("petersen", "json"),
]


@pytest.mark.parametrize("what,fmt", EXPORT_COMBOS, ids=lambda v: str(v))
def test_export_writes_file(tmp_path, what, fmt):
    out = tmp_path / f"{what}.{fmt}"
    argv = ["export", "--what", what, "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    data = out.read_bytes()
    assert data
    if fmt == "json":
        json.loads(data)


# SHA-256 of the file each export target writes, with both edge signs where
# they apply and the line over every ring
EXPORT_PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "export_sha256.json").read_text()
)


@pytest.mark.parametrize("pin", EXPORT_PINNED, ids=lambda e: " ".join(e["argv"][1:]))
def test_export_matches_pinned_bytes(pin, tmp_path):
    out = tmp_path / "out"
    assert cli.main(pin["argv"] + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == pin["sha256"], f"{' '.join(pin['argv'])}: file differs from the pinned bytes"


RINGS = ["m2f2", "gf2", "gf4", "gf2xgf2", "gf2dual"]

# export arguments and the command that prints the same bytes
SHARED_RENDERERS = [
    (["--what", "gq", "--format", "json"], ["gq", "build", "--format", "json"]),
    (["--what", "hyperplanes", "--format", "json"], ["gq", "hyperplanes", "--format", "json"]),
] + [
    (["--what", "line", "--ring", ring, *tail], ["line", verb, "--ring", ring, *tail])
    for ring in RINGS
    for verb, tail in (
        ("enumerate", ["--format", "json"]),
        ("relations", ["--format", "json"]),
        ("enumerate", ["--format", "csv"]),
        ("relations", ["--format", "dot", "--edge-sign", "+"]),
        ("relations", ["--format", "dot", "--edge-sign", "-"]),
    )
]


@pytest.mark.parametrize(
    "export_args, command",
    [pytest.param(*case, id=" ".join(case[1])) for case in SHARED_RENDERERS],
)
def test_export_writes_what_the_command_prints(export_args, command, tmp_path, capsys):
    assert cli.main(command) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main(["export", *export_args, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed


def test_export_unsupported_combo_exits_two(tmp_path, capsys):
    out = tmp_path / "h.dot"
    argv = ["export", "--what", "hyperplanes", "--format", "dot", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_export_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        argv = ["export", "--what", "signs", "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_to_a_file_that_is_not_regular(capsys):
    """An --out that cannot be truncated, such as the null device, takes the
    export as a regular file would."""
    argv = ["export", "--what", "signs", "--format", "csv", "--out", os.devnull]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_export_line_respects_ring_flag(tmp_path):
    out = tmp_path / "gf4.json"
    argv = [
        "export", "--what", "line", "--format", "json",
        "--ring", "gf4", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert len(doc["points"]) == 5


def test_export_signs_dot_edge_sign_flag(tmp_path):
    plus = tmp_path / "plus.dot"
    minus = tmp_path / "minus.dot"
    for path, sign in ((plus, "+"), (minus, "-")):
        argv = [
            "export", "--what", "signs", "--format", "dot",
            "--edge-sign", sign, "--out", str(path),
        ]
        assert cli.main(argv) == 0
    # distant graph is 8-regular, neighbor graph 6-regular: different edges
    assert plus.read_bytes() != minus.read_bytes()


def test_sign_matrix_dot_is_one_graph_named_relation():
    rows = ("0-+", "-0+", "++0")
    labels = ("a", "b", "c")
    neighbor = export.sign_matrix_dot(rows, labels)
    assert neighbor == "graph relation {\n  a;\n  b;\n  c;\n  a -- b;\n}\n"
    distant = export.sign_matrix_dot(rows, labels, "+")
    assert distant.splitlines()[0] == "graph relation {"
    assert distant.splitlines()[4:6] == ["  a -- c;", "  b -- c;"]
    with pytest.raises(ValueError):
        export.sign_matrix_dot(rows, labels, "0")


def test_main_requires_a_command(capsys):
    assert cli.main([]) == 2


# main parses with a parser built for the one command argv names and falls
# back to the full parser on help or a usage error; what it prints must be
# the full parser's, byte for byte

# a well-formed argv for each command, given its words
WELL_FORMED_TAIL = {
    "ring": ["gf4", "--format", "json"],
    "line": ["--ring", "gf4", "--format", "csv"],
    "verify": ["all", "--no-header"],
    "export": ["--what", "line", "--format", "dot", "--out", "x.dot", "--edge-sign", "+"],
}


def command_words(key) -> list[str]:
    return [word for word in key if word is not None]


def full_parse(argv, capsys):
    """Exit code and printed texts of the full parser on ARGV."""
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(argv)
    return stop.value.code, capsys.readouterr()


@pytest.mark.parametrize("key", list(cli.COMMANDS), ids=lambda k: " ".join(command_words(k)))
def test_narrow_parser_agrees_with_full_parser(key, capsys):
    argv = command_words(key) + WELL_FORMED_TAIL.get(key[0], [])
    narrow = cli.build_parser([key]).parse_args(argv)
    assert vars(narrow) == vars(cli.build_parser().parse_args(argv))
    help_argv = command_words(key) + ["-h"]
    code, printed = full_parse(help_argv, capsys)
    assert cli.main(help_argv) == code == 0
    assert capsys.readouterr() == printed
    assert printed.out.startswith(f"usage: ringline {' '.join(command_words(key))} ")


MALFORMED = [
    ["ring", "show", "m2f2", "--bogus"],  # unknown option
    ["verify", "all", "--no-header", "-x"],
    ["line", "relations", "--edge-sign", "x"],  # bad choice
    ["verify", "nosuch"],
    ["export", "--what", "nosuch", "--format", "json", "--out", "x"],
    ["gq", "petersen", "--ovoid", "x"],  # bad type
    ["ring", "show"],  # missing positional
    ["verify"],
    ["export"],  # missing required export options
    ["export", "--what", "gq", "--format", "json"],
    ["ring", "show", "m2f2", "gf4"],  # extra arguments
    ["verify", "all", "extra"],
    ["pauli", "mub", "--spread", "1", "2"],
    ["ring"],  # names no command
    ["ring", "nosuch"],
    ["nosuch"],
    ["--bogus", "ring", "show", "m2f2"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_usage_error_is_the_full_parsers(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, printed = full_parse(argv, capsys)
    assert cli.main(argv) == code == 2
    got = capsys.readouterr()
    assert got.err == printed.err and "error:" in got.err
    assert got.out == printed.out == ""
    assert not list(tmp_path.iterdir())


def test_main_builds_only_the_parser_of_the_named_command(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda keys=None: built.append(keys) or build(keys))
    assert cli.main(["verify", "table2"]) == 0
    assert cli.main(["ring", "show", "gf2"]) == 0
    assert built == [[("verify", None)], [("ring", "show")]]
    built.clear()
    assert cli.main(["ring", "show"]) == 2
    assert cli.main(["ring"]) == 2
    assert built == [[("ring", "show")], None, None]
    built.clear()
    assert cli.main(["ring", "show", "-h"]) == 0
    assert built == [[("ring", "show")], None]  # the help printed is the full parser's


def test_module_run_reports_input_errors(tmp_path):
    # run as ``python -m ringline.cli``, the renderers' InputError must still
    # be the one main catches
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "ringline.cli", "ring", "show", "nosuch"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: unknown ring 'nosuch'")
