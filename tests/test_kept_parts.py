"""One corruption harness over every kept part of ``correspondence.Structure``.

The parts come from ``vars(Structure)`` and the entries of each keyed part
from a warm run, so a new part joins on its own.  A case changes one part in
a type-preserving way: entries dropped, repeated, swapped, reversed, the
first replaced by the second, or one cell or bit flipped; a keyed entry is
dropped, given another entry's value or changed in one cell, and the first
entry in every way.  A structure that the quadrangle keeps, its collinearity
graph or its dual, is changed the same way.  Each case runs ``verify_all()``
on the warm parts, but for those that read the changed part, built again.
"""

import inspect
import json
import re
import sys
import typing
from functools import cached_property

import pytest

import kernel_oracle as oracle
from ringline import cli, golden
from ringline import correspondence as co
from ringline.quadrangle import petersen_graph

PARTS = [name for name, attr in vars(co.Structure).items() if isinstance(attr, cached_property)]

# parts that only word what a report shows: a change keeps every verdict
DISPLAY = {"labels", "words", "spread"}

# (part, field) of the sets that a part lists in some order -> why a
# reorder keeps every verdict; a field is one of a record, named tuple or
# kept structure, None for the part or entry itself
ORDER_FREE = {
    ("gq", "points"): "masks are read by position",
    ("gq", "lines"): "a line is read by its mask",
    ("gq", "dual_structure.lines"): "the pencils of the points",
    ("graph", "vertices"): "the points of the quadrangle built on it",
    ("hyperplanes", None): "each kind is read as a set",
    ("by_kind", None): "a kind's hyperplanes are read one by one",
    ("spreads", None): "a spread is read by its line indices",
    ("triangles", None): "the clique check counts them",
    ("centre", 1): "the neighbor pairs of a centre are a matching",
    ("grid_cells", None): "rows in another order make the same magic square",
}
REORDERS = ("first two swapped", "reversed")

# (part, field, change) -> why it keeps every byte, as a dropped keyed entry does
REBUILT = {("line_keys", None, "first key dropped"): "a sign without a key is evaluated where it is read"}

# keyed parts whose every entry, not only the first, is changed in every way
FULL = {"by_kind"}

FLIP = {"+": "-", "-": "+"}


def _cell_changes(value):
    """(change, changed value) for one cell of ``value``: bit 1 of an int,
    the first sign of a row, the images of the first two keys of a mapping,
    else the cell change of the first entry of a tuple."""
    if type(value) is int:
        yield "bit 1 flipped", value ^ 2
    elif type(value) is str and value[:1] in FLIP:
        yield "cell 0 flipped", FLIP[value[0]] + value[1:]
    elif isinstance(value, dict) and len(value) > 1:
        a, b = list(value)[:2]
        yield "first two values swapped", type(value)({**value, a: value[b], b: value[a]})
    elif type(value) is tuple and value:
        yield from (("first " + change, (v, *value[1:])) for change, v in _cell_changes(value[0]))


def _sequence_changes(value):
    """(change, changed value) for every type-preserving change of a tuple,
    set or mapping, its cell changes among them."""
    if isinstance(value, dict) and value:
        a, *rest = value
        yield "first key dropped", type(value)({k: v for k, v in value.items() if k != a})
        if rest:
            yield "first key given the second's value", type(value)({**value, a: value[rest[0]]})
    elif isinstance(value, frozenset) and value:
        yield "least dropped", value - {min(value, key=lambda x: sorted(x) if isinstance(x, frozenset) else x)}
    elif type(value) is tuple and value:
        yield "first dropped", value[1:]
        yield "first repeated", value + value[:1]
        yield "first two swapped", value[1:2] + value[:1] + value[2:]
        yield "reversed", value[::-1]
        yield "first replaced by the second", value[1:2] + value[1:]
    yield from _cell_changes(value)


def _changes(value, record: bool, every: bool, kept: bool = True):
    """(field, change, changed value) for each change of ``value``, per
    field of a record or named tuple, then of each structure it keeps, in a
    copy that keeps the rest; cell changes only unless ``every``."""
    changes = _sequence_changes if every else _cell_changes
    if record or hasattr(value, "_fields"):
        remake = getattr(value, "_make", tuple)
        for i, field in enumerate(getattr(value, "_fields", range(len(value)))):
            for change, v in changes(value[i]):
                if v != value[i]:
                    yield field, change, remake((*value[:i], v, *value[i + 1:]))
    else:
        yield from ((None, c, v) for c, v in changes(value) if v != value)
    cls = type(value)
    for name, kept_value in list(getattr(value, "__dict__", {}).items()) if kept else ():
        if isinstance(getattr(cls, name, None), cached_property) and hasattr(kept_value, "_fields"):
            for field, change, v in _changes(kept_value, False, every, kept=False):
                copy = value._make(value)
                vars(copy).update(vars(value), **{name: v})
                yield f"{name}.{field}", change, copy


def _reads(name: str, seen: set) -> set:
    """The parts and methods of ``Structure`` that ``name`` reads, as its
    source words them, and those that they read."""
    attr = vars(co.Structure)[name]
    source = inspect.getsource(inspect.unwrap(getattr(attr, "func", attr)))
    for ref in set(re.findall(r"\bself\.(\w+)", source)) & vars(co.Structure).keys() - seen:
        seen.add(ref)
        _reads(ref, seen)
    return seen


# each part -> the parts that read it, built again in a case that changes it
READERS = {part: {p for p in PARTS if p != part and part in _reads(p, set())} for part in PARTS}


def _cases(warm):
    """(part, key, field, change, value) of every case on ``warm``; the key
    is None for a plain part, the value None for a dropped entry."""
    for part in PARTS:
        value = vars(warm)[part]
        hint = typing.get_type_hints(vars(co.Structure)[part].func).get("return")
        record = typing.get_origin(hint) is tuple and typing.get_args(hint)[-1] is not Ellipsis
        if not isinstance(value, co._Kept):
            yield from ((part, None, *change) for change in _changes(value, record, True))
            continue
        entries = list(value.items())
        for n, (key, entry) in enumerate(entries):
            yield part, key, None, "dropped", None
            other = next((v for _, v in entries[n + 1:] + entries[:n] if v != entry), None)
            if other is not None:
                yield part, key, None, "given another entry's value", other
            if entry is not None:
                yield from ((part, key, *change) for change in _changes(entry, record, part in FULL or n == 0))


def _seeded(warm, case):
    """A structure with the parts of ``warm`` but the readers of the part
    that ``case`` changes, and with that change."""
    part, key, _, change, value = case
    st = co.Structure()
    for name in (p for p in PARTS if p in vars(warm) and p not in READERS[part]):
        if isinstance(vars(warm)[name], co._Kept):
            getattr(st, name).update(vars(warm)[name])
        else:
            vars(st)[name] = vars(warm)[name]
    if key is None:
        vars(st)[part] = value
    elif change == "dropped":
        del getattr(st, part)[key]
    else:
        getattr(st, part)[key] = value
    return st


def _expected(case) -> str:
    part, key, field, change, value = case
    if change == "dropped" or (part, field, change) in REBUILT:
        return "same bytes"
    if part in DISPLAY or (part, field) in ORDER_FREE and change in REORDERS:
        return "same verdicts"
    if part == "isomorphism" and value is not None and oracle.mask_maps_onto(value, *key):
        return "same verdicts"  # another witness of the same two graphs
    return "fails"


def _cache_sizes() -> dict:
    # the entry count of each functools cache bound in a ringline module
    modules = [m for name, m in sys.modules.items() if name.startswith("ringline.")]
    return {(m.__name__, k): f.cache_info().currsize for m in modules
            for k, f in vars(m).items() if hasattr(f, "cache_info")}


def _failed(report) -> set:
    failed = {(report.title, c.name) for c in report.checks if not c.passed}
    return failed.union(*map(_failed, report.subreports))


def _checks(*names: str) -> set:
    # each "title: check" as (title, check)
    return {tuple(name.split(": ", 1)) for name in names}


def _exact(st) -> dict:
    """(part, key, field, change) -> the exact failing set of that case on
    the warm structure ``st``."""
    ovoids, grid, (_, u, v, pts, _) = [h.points for h in st.by_kind["ovoid"]], st.by_kind["grid"][0].points, st.sub
    perp, ovoid_row = "hyperplane trinity: perp row: 15 perp sets, gf2dual sublines, six commuting partners", \
        "hyperplane trinity: ovoid row: 6 ovoids, gf4 sublines, mutually non-commuting fives"
    grid_row, clique = "hyperplane trinity: grid row: 10 grids, gf2xgf2 sublines, magic squares", \
        "sub-configuration: maximum neighbor clique is 3"
    spread_row = "hyperplane trinity: spread bonus: 6 spreads, unbiased bases"
    # with no hyperplanes, the stages that read them fail, and each row of the trinity
    stages = ("quadrangle structure: self-duality isomorphism found", "Petersen complements: Petersen complements",
              "hyperplane census: hyperplane census", "10 plus 5 factorization: 10 plus 5 factorization",
              "perp-set sublines: perp-set sublines", "magic squares: 10 grid hyperplanes",
              ovoid_row, perp, grid_row, spread_row)
    operators = "relation sign matrix: geometry vs operators", "relation sign matrix: operators vs fixture"
    exact = {
        ("signs", None, None, "first cell 0 flipped"): _checks(
            "relation sign matrix: diagonal is self-neighbor throughout", "relation sign matrix: geometry vs fixture",
            operators[0], "sub-configuration: induced matrix equals fixture",
            "sub-configuration: each point has 6 neighbors and 8 distant partners"),
        ("operator_signs", None, None, "first cell 0 flipped"): _checks(*operators),
        ("triangles", None, None, "first dropped"): _checks(clique),
        ("triangles", None, None, "first repeated"): _checks(clique),
        ("gq", None, "lines", "first dropped"): _checks(
            *stages, "quadrangle structure: quadrangle axioms hold", "quadrangle structure: 15 points and 15 lines",
            "unbiased bases: 6 spreads to examine"),
        ("gq", None, "lines", "first replaced by the second"): _checks(
            *stages, "quadrangle structure: quadrangle axioms hold"),
        ("gq", None, "collinearity_graph.edges", "least dropped"): _checks(*stages),
        ("gq", None, "dual_structure.lines", "first replaced by the second"): _checks(stages[0]),
        ("gq", None, "dual_structure.lines", "first repeated"): _checks(stages[0]),
        ("spreads", None, None, "first dropped"): _checks(
            "hyperplane census: 6 spreads", "hyperplane census: spreads are the ovoids of the dual",
            spread_row, "unbiased bases: 6 spreads to examine"),
        ("hyperplanes", None, None, "first dropped"): _checks(
            "10 plus 5 factorization: 6 ovoids to examine", "hyperplane census: 6 ovoids", ovoid_row,
            "10 plus 5 factorization: the published sample ovoid is among them",
            "hyperplane census: direct ovoid search agrees", "hyperplane census: 31 hyperplanes in total"),
        ("by_kind", "ovoid", None, "first dropped"): _checks(
            "10 plus 5 factorization: 6 ovoids to examine", "hyperplane census: 6 ovoids", ovoid_row,
            "10 plus 5 factorization: the published sample ovoid is among them",
            "hyperplane census: direct ovoid search agrees"),
        ("by_kind", "perp_set", None, "first dropped"): _checks(
            "hyperplane census: 15 perp sets", perp, "perp-set sublines: perp set of C1"),
        ("by_kind", "grid", None, "first dropped"): _checks(
            "hyperplane census: 10 grids", "magic squares: 10 grid hyperplanes", grid_row),
        ("centre", 1, 1, "first dropped"): _checks("perp-set sublines: perp set of C1", perp),
        ("grid_cells", grid, None, "first dropped"): _checks(
            f"magic squares: grid {co._cset(grid)} admits a magic arrangement", grid_row),
    }
    # one bit flipped in the kept masks of a sub-line, an ovoid complement, or
    # two images swapped in a Petersen mapping: the checks that use it
    for ovoid in ovoids:
        labels = co._cset(ovoid)
        petersen = _checks(f"Petersen complements: complement of {labels} is Petersen",
                           f"10 plus 5 factorization: ovoid {labels}", ovoid_row)
        exact["complement", ovoid, 1, "first bit 1 flipped"] = petersen
        search = st.complement[ovoid][1], petersen_graph().masks
        exact["isomorphism", search, None, "first two values swapped"] = petersen
        exact["induced", tuple(pts[i - 1] for i in sorted(ovoid)), 1, "first bit 1 flipped"] = _checks(
            f"10 plus 5 factorization: ovoid {labels}", ovoid_row)
    for x in range(1, 16):
        exact["induced", tuple(pts[i - 1] for i in sorted(st.graph.neighbors(x))), 1, "first bit 1 flipped"] = _checks(
            f"perp-set sublines: perp set of C{x}", perp)
    exact["induced", tuple(pts[6:]), 1, "first bit 1 flipped"] = _checks(
        "9 plus 6 factorization: nine common neighbors model the line over gf2xgf2",
        "9 plus 6 factorization: each of the nine has 4 neighbor and 4 distant partners inside")
    for triple in golden.TRIPLE_SPLIT:
        exact["induced", (*(pts[i - 1] for i in sorted(triple)), u, v), 1, "first bit 1 flipped"] = _checks(
            "9 plus 6 factorization: exactly one split of the six into two gf4 triples")
    return exact


# a warm structure, the text and JSON of its certificate, its cases and its exact rows
WARM = co.Structure()
INTACT = co._run(WARM, "full verification certificate", {})
BYTES = INTACT.to_text(), json.dumps(INTACT.to_json_dict())
CASES = list(_cases(WARM))
EXACT = _exact(WARM)


@pytest.mark.parametrize("part", PARTS)
def test_every_change_of_a_kept_part_fails_by_name_or_keeps_its_verdicts(part):
    """Each case of the part gives what ``_expected`` asks, each ``_exact``
    row its failing set, nothing raises and no cache of a ringline module
    gains an entry: 713 cases over the 21 parts."""
    wrong, caches = [], _cache_sizes()
    for case in (c for c in CASES if c[0] == part):
        try:
            report = co._run(_seeded(WARM, case), "full verification certificate", {})
        except Exception as exc:  # the harness reports whatever raises
            wrong.append(f"{case[1]!r:.40} {case[2]} {case[3]}: raised {exc!r}")
            continue
        failed, want = _failed(report), _expected(case)
        got = "fails" if failed else \
            "same bytes" if (report.to_text(), json.dumps(report.to_json_dict())) == BYTES else "same verdicts"
        if got != want and (want, got) != ("same verdicts", "same bytes") or EXACT.get(case[:4], failed) != failed:
            wrong.append(f"{case[1]!r:.40} {case[2]} {case[3]}: {got} {sorted(failed)}, expected {want}")
    assert not wrong, "\n".join(wrong)
    assert _cache_sizes() == caches


def test_the_harness_reaches_every_part_and_each_listed_case():
    """The warm structure passes; every part has cases, and each exact row,
    order-free field and rebuilt change is a case; the harness has 713."""
    assert INTACT.tally() == (100, 0)
    assert {c[0] for c in CASES} == set(PARTS) and len(CASES) == 713
    assert set(EXACT) <= {c[:4] for c in CASES}
    assert set(ORDER_FREE) <= {(c[0], c[2]) for c in CASES if c[3] in REORDERS}
    assert set(REBUILT) <= {(c[0], c[2], c[3]) for c in CASES} and DISPLAY | FULL <= set(PARTS)
    assert READERS["gq"] >= {"hyperplanes", "complement", "grid_cells", "words"} and not READERS["isomorphism"]


@pytest.mark.parametrize("row", EXACT, ids=[f"{row[0]}-{row[2]}-{row[3]}-{n}" for n, row in enumerate(EXACT)])
def test_an_exact_row_fails_the_cli_without_traceback(row, monkeypatch, capsys):
    """The case of each exact row fails ``ringline verify all`` too, which
    exits 1 and names each failed check, with nothing on stderr."""
    monkeypatch.setattr(co, "STRUCTURE", _seeded(WARM, next(c for c in CASES if c[:4] == row)))
    assert cli.main(["verify", "all"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and all(f"[FAIL] {name}" in out for _, name in EXACT[row])
