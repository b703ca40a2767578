"""Command line front end.

Every subcommand is a reproducible batch operation: output depends only on
the arguments, so repeated runs are byte-identical.  Exit codes: 0 when all
requested checks pass, 1 on a verification mismatch (a diff is printed),
2 on a usage or input error.

One output path serves every command.  The parser is built from
``COMMANDS``, one (help, formats, arguments, renderer) entry per command.  A
renderer returns ``(text, exit_code)``; ``main`` checks ``--format``, calls
it and prints the text in one write, so a usage error prints nothing to
stdout.  ``export`` finds the renderer for (what, format) in ``EXPORTS`` and
writes its text to ``--out``, so a target that a command also prints holds
the same bytes.

Loading this module loads no layer: each renderer imports what it calls.
``ring show`` loads ``rings`` and ``gf2``; the ``line`` commands and
``export --what line`` add ``projline`` and ``export``; the ``gq``,
``pauli`` and ``verify`` commands and most exports load ``correspondence``
and with it every layer.  A usage error raised before any work (a bad
``--format`` or export target, an out-of-range ``--ovoid`` or ``--spread``,
an unwritable ``--out``) loads at most ``golden``, or ``rings`` for the
``--ring`` of a line export.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Sequence

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


# projline.DISTANT and projline.NEIGHBOR, the --edge-sign choices, restated
# so that building the parser loads no layer; a test keeps them equal
DISTANT, NEIGHBOR = "+", "-"


class InputError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _text(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _report(args: argparse.Namespace, report, header: bool = True) -> tuple[str, int]:
    """A verifier Report in the command's format, and its exit code."""
    if args.format == "json":
        text = _json(report.to_json_dict())
    else:
        text = report.to_text(header=header)
    return text, EXIT_OK if report.passed else EXIT_MISMATCH


def _failed(args: argparse.Namespace, check) -> tuple[str, int]:
    """One failed check as a report in the command's format."""
    from .correspondence import Report

    return _report(args, Report(f"ringline {args.group} {args.verb}", (check,)))


def _check_index(value: int | None, option: str) -> None:
    """Reject an --ovoid or --spread index outside the census, before any work."""
    from .golden import OVOID_SPREAD_COUNT

    if value is not None and not 0 <= value < OVOID_SPREAD_COUNT:
        raise InputError(f"--{option} must lie in 0..{OVOID_SPREAD_COUNT - 1}")


def _ring(name: str):
    from .rings import ring_by_name, ring_names

    try:
        return ring_by_name(name)
    except ValueError:
        raise InputError(
            f"unknown ring {name!r} (available: {', '.join(ring_names())})"
        ) from None


# ---------------------------------------------------------------------------
# ring


def render_ring_show(args: argparse.Namespace) -> tuple[str, int]:
    from .rings import ring_to_json_dict, units

    ring = _ring(args.name)
    if args.format == "json":
        return _json(ring_to_json_dict(ring)), EXIT_OK
    if args.format == "csv":
        lines = ["table,row,col,value"]
        for kind, table in (("add", ring.add_table), ("mul", ring.mul_table)):
            for i, row in enumerate(table):
                for j, v in enumerate(row):
                    lines.append(f"{kind},{i},{j},{v}")
        return _text(lines), EXIT_OK
    width = len(str(ring.order - 1))
    lines = [
        f"ring {ring.name}, order {ring.order}",
        "units: " + " ".join(str(u) for u in sorted(units(ring))),
    ]
    for kind, table in (("addition", ring.add_table), ("multiplication", ring.mul_table)):
        lines.append(f"{kind}:")
        lines += ["  " + " ".join(f"{v:{width}d}" for v in row) for row in table]
    return _text(lines), EXIT_OK


def render_ring_validate(args: argparse.Namespace) -> tuple[str, int]:
    from .rings import validate_ring

    ring = _ring(args.name)
    problems = validate_ring(ring)
    code = EXIT_MISMATCH if problems else EXIT_OK
    if args.format == "json":
        return _json({"schema": 1, "ring": ring.name, "problems": list(problems)}), code
    lines = [f"FAIL {p}" for p in problems] or [f"ring {ring.name}: all axioms hold"]
    return _text(lines), code


# ---------------------------------------------------------------------------
# line


def _parse_pair(text: str, order: int) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected a pair like 1,0 but got {text!r}")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise InputError(f"pair entries must be integers: {text!r}") from None
    if not (0 <= a < order and 0 <= b < order):
        raise InputError(f"pair entries must lie in 0..{order - 1}: {text!r}")
    return a, b


def render_line_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    from . import export
    from .projline import enumerate_line, line_to_json_dict

    line = enumerate_line(_ring(args.ring))
    if args.format == "json":
        return _json(line_to_json_dict(line)), EXIT_OK
    if args.format == "csv":
        return export.line_points_csv(line), EXIT_OK
    lines = [
        f"{i:3d}: {pt.canonical}  orbit size {len(pt.members)}"
        for i, pt in enumerate(line.points)
    ]
    lines.append(f"total: {len(line.points)} points")
    return _text(lines), EXIT_OK


def render_line_relations(args: argparse.Namespace) -> tuple[str, int]:
    from . import export
    from .projline import enumerate_line, line_to_json_dict

    line = enumerate_line(_ring(args.ring))
    labels = [f"P{i}" for i in range(len(line.points))]
    if args.format == "json":
        return _json(line_to_json_dict(line)), EXIT_OK
    if args.format == "csv":
        return export.sign_matrix_csv(line.relation, labels), EXIT_OK
    if args.format == "dot":
        return export.sign_matrix_dot(line.relation, labels, args.edge_sign), EXIT_OK
    return _text(f"{label:>4s} {row}" for label, row in zip(labels, line.relation)), EXIT_OK


def render_line_subconfig(args: argparse.Namespace) -> tuple[str, int]:
    ring = _ring(args.ring)
    u = _parse_pair(args.u, ring.order)
    v = _parse_pair(args.v, ring.order)
    from .projline import enumerate_line, induced_signs, simultaneous_subconfig

    line = enumerate_line(ring)
    try:
        fam_distant, fam_neighbor = simultaneous_subconfig(line, u, v)
    except (KeyError, ValueError) as e:
        raise InputError(f"bad base points: {e}") from None
    signs = induced_signs(line, fam_distant + fam_neighbor)
    if args.format == "json":
        return _json(
            {
                "schema": 1,
                "ring": ring.name,
                "u": list(u),
                "v": list(v),
                "distant_family": [list(p.canonical) for p in fam_distant],
                "neighbor_family": [list(p.canonical) for p in fam_neighbor],
                "signs": list(signs),
            }
        ), EXIT_OK
    lines = [f"base points {u} and {v} over {ring.name}"]
    lines.append(f"distant from both ({len(fam_distant)}):")
    lines += [f"  C{i} = {p.canonical}" for i, p in enumerate(fam_distant, start=1)]
    lines.append(f"neighbor to both ({len(fam_neighbor)}):")
    lines += [
        f"  C{i} = {p.canonical}"
        for i, p in enumerate(fam_neighbor, start=len(fam_distant) + 1)
    ]
    lines.append("induced relation:")
    lines += [f"  C{i:<3d} {row}" for i, row in enumerate(signs, start=1)]
    return _text(lines), EXIT_OK


# ---------------------------------------------------------------------------
# gq


def render_gq_build(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from . import export
    from .golden import c_label

    s = co.canonical_gq()
    if args.format == "json":
        return _json(export.structure_to_json_dict(s)), EXIT_OK
    lines = [f"{len(s.points)} points, {len(s.lines)} lines"]
    lines += [
        f"  line {i:2d}: " + " ".join(c_label(p) for p in sorted(line))
        for i, line in enumerate(s.lines)
    ]
    return _text(lines), EXIT_OK


def render_gq_axioms(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co

    problems, iso = co.quadrangle_axioms(co.canonical_gq())
    self_dual = iso is not None
    code = EXIT_OK if not problems and self_dual else EXIT_MISMATCH
    if args.format == "json":
        return _json({"schema": 1, "problems": list(problems), "self_dual": self_dual}), code
    lines = [f"FAIL {p}" for p in problems] or ["all quadrangle axioms hold"]
    lines.append(f"self-dual: {'yes' if self_dual else 'no'}")
    return _text(lines), code


def render_gq_ovoids(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from .golden import c_label
    from .quadrangle import OVOID

    ovoids = [h for h in co.canonical_hyperplanes() if h.kind == OVOID]
    if args.format == "json":
        return _json({"schema": 1, "ovoids": [sorted(h.points) for h in ovoids]}), EXIT_OK
    return _text(
        f"ovoid {i}: " + " ".join(c_label(p) for p in sorted(h.points))
        for i, h in enumerate(ovoids)
    ), EXIT_OK


def render_gq_spreads(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from .golden import c_label

    s = co.canonical_gq()
    spreads = co.canonical_spreads()
    if args.format == "json":
        return _json(
            {
                "schema": 1,
                "spreads": [
                    {"lines": list(sp), "triples": [sorted(s.lines[i]) for i in sp]}
                    for sp in spreads
                ],
            }
        ), EXIT_OK
    return _text(
        f"spread {i}: "
        + " | ".join(",".join(c_label(p) for p in sorted(s.lines[j])) for j in sp)
        for i, sp in enumerate(spreads)
    ), EXIT_OK


def render_gq_hyperplanes(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from . import export
    from .golden import c_label

    planes = co.canonical_hyperplanes()
    spreads = co.canonical_spreads()
    if args.format == "json":
        return _json(export.hyperplane_catalog_to_json_dict(planes, spreads)), EXIT_OK
    lines = []
    for h in planes:
        pts = " ".join(c_label(p) for p in sorted(h.points))
        tail = f" (center {c_label(h.center)})" if h.center is not None else ""
        lines.append(f"{h.kind:8s} {pts}{tail}")
    lines.append(f"total: {len(planes)} hyperplanes, {len(spreads)} spreads")
    return _text(lines), EXIT_OK


def render_gq_petersen(args: argparse.Namespace) -> tuple[str, int]:
    _check_index(args.ovoid, "ovoid")
    from . import correspondence as co
    from .golden import OVOID_SPREAD_COUNT, c_label
    from .quadrangle import OVOID

    ovoids = [h for h in co.canonical_hyperplanes() if h.kind == OVOID]
    if len(ovoids) != OVOID_SPREAD_COUNT:
        return _failed(args, co.CheckResult(
            f"{OVOID_SPREAD_COUNT} ovoids", False, f"{len(ovoids)} computed"
        ))
    if args.ovoid is not None:
        ovoids = [ovoids[args.ovoid]]
    results = [(h, co.petersen_witness(h.points)) for h in ovoids]
    code = EXIT_OK if all(witness is not None for _, witness in results) else EXIT_MISMATCH
    if args.format == "json":
        return _json(
            {
                "schema": 1,
                "results": [
                    {
                        "ovoid": sorted(h.points),
                        "petersen": witness is not None,
                        "witness": None
                        if witness is None
                        else [[p, list(q)] for p, q in sorted(witness.items())],
                    }
                    for h, witness in results
                ],
            }
        ), code
    lines = []
    for h, witness in results:
        pts = " ".join(c_label(p) for p in sorted(h.points))
        if witness is None:
            lines.append(f"ovoid {pts}: NOT Petersen")
        else:
            lines.append(f"ovoid {pts}: Petersen")
            pairs = ", ".join(
                f"{c_label(p)}->{q}" for p, q in sorted(witness.items())
            )
            lines.append(f"  witness: {pairs}")
    return _text(lines), code


# ---------------------------------------------------------------------------
# pauli


def render_pauli_table(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from . import export
    from .golden import c_label
    from .pauli import standard_labeling

    ops = standard_labeling()
    signs = co.operator_signs()
    labels = [c_label(i) for i in range(1, len(ops) + 1)]
    if args.format == "json":
        return _json(
            {
                "schema": 1,
                "operators": [
                    {"point": label, "operator": op.label}
                    for label, op in zip(labels, ops)
                ],
                "signs": list(signs),
            }
        ), EXIT_OK
    if args.format == "csv":
        return export.sign_matrix_csv(signs, labels), EXIT_OK
    return _text(
        f"{label:>4s} {op.label}  {row}" for label, op, row in zip(labels, ops, signs)
    ), EXIT_OK


def render_pauli_mermin(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from .pauli import standard_labeling

    ops = standard_labeling()
    rows = co.STANDARD_ROWS
    try:
        result = co.standard_square()
    except ValueError as exc:
        return _failed(args, co.stage_failure("standard grid is magic", exc))
    code = EXIT_OK if result.magic else EXIT_MISMATCH
    if args.format == "json":
        return _json(
            {
                "schema": 1,
                "rows": [list(r) for r in rows],
                "row_signs": list(result.row_signs),
                "col_signs": list(result.col_signs),
                "magic": result.magic,
            }
        ), code
    lines = ["  " + " ".join(f"{ops[i - 1].label:>2s}" for i in r) for r in rows]
    lines.append(f"row signs: {result.row_signs}")
    lines.append(f"column signs: {result.col_signs}")
    lines.append(f"magic: {'yes' if result.magic else 'no'}")
    return _text(lines), code


def render_pauli_mub(args: argparse.Namespace) -> tuple[str, int]:
    _check_index(args.spread, "spread")
    from . import correspondence as co
    from .golden import OVOID_SPREAD_COUNT, c_label

    spreads = co.canonical_spreads()
    if len(spreads) != OVOID_SPREAD_COUNT:
        return _failed(args, co.CheckResult(
            f"{OVOID_SPREAD_COUNT} spreads", False, f"{len(spreads)} computed"
        ))
    if args.spread is not None:
        spreads = (spreads[args.spread],)
    try:
        results = [co.spread_unbiased(sp) for sp in spreads]
    except ValueError as exc:
        return _failed(args, co.stage_failure("unbiased bases", exc))
    code = EXIT_OK if all(good for _, good in results) else EXIT_MISMATCH
    if args.format == "json":
        return _json(
            {
                "schema": 1,
                "results": [
                    {"triples": [list(t) for t in triples], "unbiased": good}
                    for triples, good in results
                ],
            }
        ), code
    return _text(
        f"{'PASS' if good else 'FAIL'} "
        + " | ".join(",".join(c_label(p) for p in t) for t in triples)
        for triples, good in results
    ), code


# ---------------------------------------------------------------------------
# verify


# verify WHAT -> the correspondence function that builds its report
VERIFIERS = {
    "table2": "verify_relation_signs",
    "factor96": "verify_split_9_6",
    "factor105": "verify_split_10_5",
    "trinity": "trinity_report",
    "all": "verify_all",
}


def _load_fixture(path: str) -> tuple[str, ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read fixture {path}: {e}") from None
    rows = [
        line.strip()
        for line in raw.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return tuple(rows)


def render_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.fixture is not None and args.what != "table2":
        raise InputError("--fixture only applies to 'verify table2'")
    reference = () if args.fixture is None else (_load_fixture(args.fixture),)
    from . import correspondence as co

    report = getattr(co, VERIFIERS[args.what])(*reference)
    return _report(args, report, header=not args.no_header)


# ---------------------------------------------------------------------------
# export: targets no command prints


def render_signs(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from . import export
    from .golden import c_label

    signs = co.geometric_signs()
    labels = [c_label(i) for i in range(1, len(signs) + 1)]
    if args.format == "csv":
        return export.sign_matrix_csv(signs, labels), EXIT_OK
    if args.format == "dot":
        return export.sign_matrix_dot(signs, labels, args.edge_sign), EXIT_OK
    return _json({"schema": 1, "labels": labels, "signs": list(signs)}), EXIT_OK


def render_gq_dot(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from . import export
    from .golden import c_label

    graph = co.canonical_gq().collinearity_graph
    return export.graph_dot(graph, name="collinearity", label=c_label), EXIT_OK


def render_petersen(args: argparse.Namespace) -> tuple[str, int]:
    from . import export
    from .quadrangle import petersen_graph

    g = petersen_graph()
    if args.format == "dot":
        return export.graph_dot(g, name="petersen"), EXIT_OK
    return _json(
        {
            "schema": 1,
            "vertices": [list(v) for v in g.vertices],
            "edges": [[list(u), list(v)] for u, v in g.sorted_edges()],
        }
    ), EXIT_OK


# export (what, format) -> the renderer whose text is written to --out; the
# --what and --format choices are the keys' parts, in first-seen order
EXPORTS = {
    ("signs", "json"): render_signs,
    ("signs", "csv"): render_signs,
    ("signs", "dot"): render_signs,
    ("line", "json"): render_line_enumerate,
    ("line", "csv"): render_line_enumerate,
    ("line", "dot"): render_line_relations,
    ("gq", "json"): render_gq_build,
    ("gq", "dot"): render_gq_dot,
    ("hyperplanes", "json"): render_gq_hyperplanes,
    ("petersen", "json"): render_petersen,
    ("petersen", "dot"): render_petersen,
}


def render_export(args: argparse.Namespace) -> tuple[str, int]:
    what, fmt = args.what, args.format
    render = EXPORTS.get((what, fmt))
    if render is None:
        if what == "hyperplanes":
            raise InputError("hyperplane catalog exports as json only")
        raise InputError(f"cannot export {what} as {fmt}")
    if what == "line":
        _ring(args.ring)  # an unknown ring is refused before --out is created
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            text, code = render(args)
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {args.out}: {e}") from None
    return "", code


# ---------------------------------------------------------------------------
# parser


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call of a command, kept as data."""
    return flags, options


TEXT_JSON = ("text", "json")
RING = _arg("--ring", default="m2f2")
EDGE_SIGN = {"default": NEIGHBOR, "choices": [DISTANT, NEIGHBOR]}

# (group, verb) -> (help, formats, arguments, renderer); a verb of None makes
# the group itself the command, and formats of None leave --format to the
# arguments
COMMANDS = {
    ("ring", "show"): (
        "print the addition and multiplication tables",
        ("text", "json", "csv"),
        (_arg("name"),),
        render_ring_show,
    ),
    ("ring", "validate"): (
        "check every ring axiom exhaustively", TEXT_JSON, (_arg("name"),), render_ring_validate
    ),
    ("line", "enumerate"): (
        "list the points of the line", ("text", "json", "csv"), (RING,), render_line_enumerate
    ),
    ("line", "relations"): (
        "print the distant/neighbor matrix",
        ("text", "json", "csv", "dot"),
        (RING, _arg("--edge-sign", **EDGE_SIGN, help="which relation becomes a dot edge")),
        render_line_relations,
    ),
    ("line", "subconfig"): (
        "the points seen from two distant base points",
        TEXT_JSON,
        (
            RING,
            _arg("--u", default="1,0", help="first base point, e.g. 1,0"),
            _arg("--v", default="0,1", help="second base point, e.g. 0,1"),
        ),
        render_line_subconfig,
    ),
    ("gq", "build"): ("points and lines of the quadrangle", TEXT_JSON, (), render_gq_build),
    ("gq", "axioms"): (
        "check the quadrangle axioms and self-duality", TEXT_JSON, (), render_gq_axioms
    ),
    ("gq", "ovoids"): ("list the ovoids", TEXT_JSON, (), render_gq_ovoids),
    ("gq", "spreads"): ("list the spreads", TEXT_JSON, (), render_gq_spreads),
    ("gq", "hyperplanes"): ("the full hyperplane catalog", TEXT_JSON, (), render_gq_hyperplanes),
    ("gq", "petersen"): (
        "ovoid complements against the Petersen graph",
        TEXT_JSON,
        (_arg("--ovoid", type=int, default=None, help="check one ovoid by index"),),
        render_gq_petersen,
    ),
    ("pauli", "table"): (
        "operators and their commutation signs", ("text", "json", "csv"), (), render_pauli_table
    ),
    ("pauli", "mermin"): ("the standard magic square", TEXT_JSON, (), render_pauli_mermin),
    ("pauli", "mub"): (
        "unbiased-bases check per spread",
        TEXT_JSON,
        (_arg("--spread", type=int, default=None, help="check one spread by index"),),
        render_pauli_mub,
    ),
    ("verify", None): (
        "verification certificates",
        TEXT_JSON,
        (
            _arg("what", choices=list(VERIFIERS)),
            _arg("--fixture", default=None,
                 help="file with 15 rows of +/- signs replacing the stored fixture"),
            _arg("--no-header", action="store_true",
                 help="omit the title banner from text output"),
        ),
        render_verify,
    ),
    ("export", None): (
        "write a machine-readable artifact",
        None,
        (
            _arg("--what", required=True, choices=list(dict.fromkeys(w for w, _ in EXPORTS))),
            _arg("--format", required=True, choices=list(dict.fromkeys(f for _, f in EXPORTS))),
            _arg("--out", required=True),
            RING,
            _arg("--edge-sign", **EDGE_SIGN),
        ),
        render_export,
    ),
}

# help for the groups whose commands are verbs
GROUPS = {
    "ring": "ring tables and axioms",
    "line": "projective line construction",
    "gq": "the generalized quadrangle",
    "pauli": "two-qubit operator side",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringline",
        description="projective lines over small finite rings, the two-qubit "
        "operator correspondence, and the order-two generalized quadrangle",
    )
    top = parser.add_subparsers(dest="group", required=True)
    verbs = {}
    for (group, verb), (summary, formats, arguments, render) in COMMANDS.items():
        if verb is None:
            p = top.add_parser(group, help=summary)
        else:
            if group not in verbs:
                verbs[group] = top.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest="verb", required=True
                )
            p = verbs[group].add_parser(verb, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if formats is not None:
            p.add_argument("--format", default="text", help="output format")
        p.set_defaults(formats=formats, render=render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        if args.formats is not None and args.format not in args.formats:
            raise InputError(
                f"format {args.format!r} not supported here "
                f"(choose from {', '.join(args.formats)})"
            )
        text, code = args.render(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
