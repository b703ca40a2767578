"""Command line front end.

Every subcommand is a reproducible batch operation: output depends only on
the arguments, so repeated runs are byte-identical.  Exit codes: 0 when all
requested checks pass, 1 on a verification mismatch (a diff is printed),
2 on a usage or input error.

Loading this module loads no layer of the package: the parser is built from
constants kept here, and each ``cmd_*`` handler imports the layer modules it
calls when it runs.  A cold ``ring show`` loads ``rings`` and ``gf2``; the
``line`` commands add ``projline`` and ``export``; the ``gq``, ``pauli``,
``verify`` and most ``export`` commands load ``correspondence`` and with it
every layer.  A usage error found before dispatch (a bad ``--format``, an
out-of-range ``--ovoid`` or ``--spread``) loads nothing beyond ``golden``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


# projline.DISTANT and projline.NEIGHBOR, the --edge-sign choices, restated
# so that building the parser loads no layer; a test keeps them equal
DISTANT, NEIGHBOR = "+", "-"


class InputError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _failed(args: argparse.Namespace, check) -> int:
    """Render one failed check as a report in the command's format."""
    from .correspondence import Report

    report = Report(f"ringline {args.group} {args.verb}", (check,))
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        _emit(report.to_text())
    return EXIT_MISMATCH


def _census_failed(args: argparse.Namespace, kind: str, found: int) -> int:
    """Report computed ovoids or spreads that differ from the census."""
    from .correspondence import CheckResult
    from .golden import OVOID_SPREAD_COUNT

    return _failed(
        args, CheckResult(f"{OVOID_SPREAD_COUNT} {kind}", False, f"{found} computed")
    )


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


def cmd_ring_show(args: argparse.Namespace) -> int:
    from .rings import ring_to_json_dict, units

    ring = _ring(args.name)
    if args.format == "json":
        _emit_json(ring_to_json_dict(ring))
    elif args.format == "csv":
        lines = ["table,row,col,value"]
        for kind, table in (("add", ring.add_table), ("mul", ring.mul_table)):
            for i, row in enumerate(table):
                for j, v in enumerate(row):
                    lines.append(f"{kind},{i},{j},{v}")
        _emit("\n".join(lines) + "\n")
    else:
        width = len(str(ring.order - 1))
        _emit(f"ring {ring.name}, order {ring.order}\n")
        us = sorted(units(ring))
        _emit("units: " + " ".join(str(u) for u in us) + "\n")
        for kind, table in (("addition", ring.add_table), ("multiplication", ring.mul_table)):
            _emit(f"{kind}:\n")
            for row in table:
                _emit("  " + " ".join(f"{v:{width}d}" for v in row) + "\n")
    return EXIT_OK


def cmd_ring_validate(args: argparse.Namespace) -> int:
    from .rings import validate_ring

    ring = _ring(args.name)
    problems = validate_ring(ring)
    if args.format == "json":
        _emit_json({"schema": 1, "ring": ring.name, "problems": list(problems)})
    else:
        if problems:
            for p in problems:
                _emit(f"FAIL {p}\n")
        else:
            _emit(f"ring {ring.name}: all axioms hold\n")
    return EXIT_OK if not problems else EXIT_MISMATCH


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


def cmd_line_enumerate(args: argparse.Namespace) -> int:
    from . import export
    from .projline import enumerate_line, line_to_json_dict

    line = enumerate_line(_ring(args.ring))
    if args.format == "json":
        _emit_json(line_to_json_dict(line))
    elif args.format == "csv":
        _emit(export.line_points_csv(line))
    else:
        for i, pt in enumerate(line.points):
            _emit(f"{i:3d}: {pt.canonical}  orbit size {len(pt.members)}\n")
        _emit(f"total: {len(line.points)} points\n")
    return EXIT_OK


def cmd_line_relations(args: argparse.Namespace) -> int:
    from . import export
    from .projline import enumerate_line, line_to_json_dict

    line = enumerate_line(_ring(args.ring))
    labels = [f"P{i}" for i in range(len(line.points))]
    if args.format == "json":
        _emit_json(line_to_json_dict(line))
    elif args.format == "csv":
        _emit(export.sign_matrix_csv(line.relation, labels))
    elif args.format == "dot":
        _emit(export.sign_matrix_dot(line.relation, labels, args.edge_sign))
    else:
        for label, row in zip(labels, line.relation):
            _emit(f"{label:>4s} {row}\n")
    return EXIT_OK


def cmd_line_subconfig(args: argparse.Namespace) -> int:
    ring = _ring(args.ring)
    u = _parse_pair(args.u, ring.order)
    v = _parse_pair(args.v, ring.order)
    from .projline import enumerate_line, induced_signs, simultaneous_subconfig

    line = enumerate_line(ring)
    try:
        fam_distant, fam_neighbor = simultaneous_subconfig(line, u, v)
    except (KeyError, ValueError) as e:
        raise InputError(f"bad base points: {e}") from None
    pts = fam_distant + fam_neighbor
    signs = induced_signs(line, pts)
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "ring": ring.name,
                "u": list(u),
                "v": list(v),
                "distant_family": [list(p.canonical) for p in fam_distant],
                "neighbor_family": [list(p.canonical) for p in fam_neighbor],
                "signs": list(signs),
            }
        )
    else:
        _emit(f"base points {u} and {v} over {ring.name}\n")
        _emit(f"distant from both ({len(fam_distant)}):\n")
        for i, p in enumerate(fam_distant, start=1):
            _emit(f"  C{i} = {p.canonical}\n")
        _emit(f"neighbor to both ({len(fam_neighbor)}):\n")
        for i, p in enumerate(fam_neighbor, start=len(fam_distant) + 1):
            _emit(f"  C{i} = {p.canonical}\n")
        _emit("induced relation:\n")
        for i, row in enumerate(signs, start=1):
            _emit(f"  C{i:<3d} {row}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gq


def cmd_gq_build(args: argparse.Namespace) -> int:
    from . import correspondence as co
    from . import export

    s = co.canonical_gq()
    if args.format == "json":
        _emit_json(export.structure_to_json_dict(s))
    else:
        _emit(f"{len(s.points)} points, {len(s.lines)} lines\n")
        for i, line in enumerate(s.lines):
            _emit(f"  line {i:2d}: " + " ".join(export.c_label(p) for p in sorted(line)) + "\n")
    return EXIT_OK


def cmd_gq_axioms(args: argparse.Namespace) -> int:
    from . import correspondence as co

    problems, iso = co.quadrangle_axioms(co.canonical_gq())
    self_dual = iso is not None
    if args.format == "json":
        _emit_json(
            {"schema": 1, "problems": list(problems), "self_dual": self_dual}
        )
    else:
        if problems:
            for p in problems:
                _emit(f"FAIL {p}\n")
        else:
            _emit("all quadrangle axioms hold\n")
        _emit(f"self-dual: {'yes' if self_dual else 'no'}\n")
    return EXIT_OK if not problems and self_dual else EXIT_MISMATCH


def cmd_gq_ovoids(args: argparse.Namespace) -> int:
    from . import correspondence as co
    from . import export
    from .quadrangle import OVOID

    ovoids = [h for h in co.canonical_hyperplanes() if h.kind == OVOID]
    if args.format == "json":
        _emit_json(
            {"schema": 1, "ovoids": [sorted(h.points) for h in ovoids]}
        )
    else:
        for i, h in enumerate(ovoids):
            _emit(f"ovoid {i}: " + " ".join(export.c_label(p) for p in sorted(h.points)) + "\n")
    return EXIT_OK


def cmd_gq_spreads(args: argparse.Namespace) -> int:
    from . import correspondence as co
    from . import export

    s = co.canonical_gq()
    spreads = co.canonical_spreads()
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "spreads": [
                    {
                        "lines": list(sp),
                        "triples": [sorted(s.lines[i]) for i in sp],
                    }
                    for sp in spreads
                ],
            }
        )
    else:
        for i, sp in enumerate(spreads):
            triples = " | ".join(
                ",".join(export.c_label(p) for p in sorted(s.lines[j])) for j in sp
            )
            _emit(f"spread {i}: {triples}\n")
    return EXIT_OK


def cmd_gq_hyperplanes(args: argparse.Namespace) -> int:
    from . import correspondence as co
    from . import export

    planes = co.canonical_hyperplanes()
    spreads = co.canonical_spreads()
    if args.format == "json":
        _emit_json(export.hyperplane_catalog_to_json_dict(planes, spreads))
    else:
        for h in planes:
            pts = " ".join(export.c_label(p) for p in sorted(h.points))
            tail = f" (center {export.c_label(h.center)})" if h.center is not None else ""
            _emit(f"{h.kind:8s} {pts}{tail}\n")
        _emit(f"total: {len(planes)} hyperplanes, {len(spreads)} spreads\n")
    return EXIT_OK


def cmd_gq_petersen(args: argparse.Namespace) -> int:
    _check_index(args.ovoid, "ovoid")
    from . import correspondence as co
    from . import export
    from .golden import OVOID_SPREAD_COUNT
    from .quadrangle import OVOID

    ovoids = [h for h in co.canonical_hyperplanes() if h.kind == OVOID]
    if len(ovoids) != OVOID_SPREAD_COUNT:
        return _census_failed(args, "ovoids", len(ovoids))
    if args.ovoid is not None:
        ovoids = [ovoids[args.ovoid]]
    results = [(h, co.petersen_witness(h.points)) for h in ovoids]
    ok = all(witness is not None for _, witness in results)
    if args.format == "json":
        _emit_json(
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
        )
    else:
        for h, witness in results:
            pts = " ".join(export.c_label(p) for p in sorted(h.points))
            if witness is None:
                _emit(f"ovoid {pts}: NOT Petersen\n")
            else:
                _emit(f"ovoid {pts}: Petersen\n")
                pairs = ", ".join(
                    f"{export.c_label(p)}->{q}" for p, q in sorted(witness.items())
                )
                _emit(f"  witness: {pairs}\n")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# pauli


def cmd_pauli_table(args: argparse.Namespace) -> int:
    from . import correspondence as co
    from . import export
    from .pauli import standard_labeling

    ops = standard_labeling()
    signs = co.operator_signs()
    labels = [export.c_label(i) for i in range(1, len(ops) + 1)]
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "operators": [
                    {"point": label, "operator": op.label}
                    for label, op in zip(labels, ops)
                ],
                "signs": list(signs),
            }
        )
    elif args.format == "csv":
        _emit(export.sign_matrix_csv(signs, labels))
    else:
        for label, op, row in zip(labels, ops, signs):
            _emit(f"{label:>4s} {op.label}  {row}\n")
    return EXIT_OK


def cmd_pauli_mermin(args: argparse.Namespace) -> int:
    from . import correspondence as co
    from .pauli import standard_labeling

    ops = standard_labeling()
    rows = co.STANDARD_ROWS
    try:
        result = co.standard_square()
    except ValueError as exc:
        return _failed(args, co.stage_failure("standard grid is magic", exc))
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "rows": [list(r) for r in rows],
                "row_signs": list(result.row_signs),
                "col_signs": list(result.col_signs),
                "magic": result.magic,
            }
        )
    else:
        for r in rows:
            _emit("  " + " ".join(f"{ops[i - 1].label:>2s}" for i in r) + "\n")
        _emit(f"row signs: {result.row_signs}\n")
        _emit(f"column signs: {result.col_signs}\n")
        _emit(f"magic: {'yes' if result.magic else 'no'}\n")
    return EXIT_OK if result.magic else EXIT_MISMATCH


def cmd_pauli_mub(args: argparse.Namespace) -> int:
    _check_index(args.spread, "spread")
    from . import correspondence as co
    from . import export
    from .golden import OVOID_SPREAD_COUNT

    spreads = co.canonical_spreads()
    if len(spreads) != OVOID_SPREAD_COUNT:
        return _census_failed(args, "spreads", len(spreads))
    if args.spread is not None:
        spreads = (spreads[args.spread],)
    try:
        results = [co.spread_unbiased(sp) for sp in spreads]
    except ValueError as exc:
        return _failed(args, co.stage_failure("unbiased bases", exc))
    ok = all(good for _, good in results)
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "results": [
                    {"triples": [list(t) for t in triples], "unbiased": good}
                    for triples, good in results
                ],
            }
        )
    else:
        for triples, good in results:
            txt = " | ".join(
                ",".join(export.c_label(p) for p in t) for t in triples
            )
            _emit(f"{'PASS' if good else 'FAIL'} {txt}\n")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# verify / export


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


def cmd_verify(args: argparse.Namespace) -> int:
    if args.fixture is not None and args.what != "table2":
        raise InputError("--fixture only applies to 'verify table2'")
    from . import correspondence as co

    if args.what == "table2":
        reference = _load_fixture(args.fixture) if args.fixture else None
        report = co.verify_relation_signs(reference)
    elif args.what == "factor96":
        report = co.verify_split_9_6()
    elif args.what == "factor105":
        report = co.verify_split_10_5()
    elif args.what == "trinity":
        report = co.trinity_report()
    else:
        report = co.verify_all()
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        _emit(report.to_text(header=not args.no_header))
    return EXIT_OK if report.passed else EXIT_MISMATCH


# the formats each export target supports, checked before any work
EXPORT_FORMATS = {
    "signs": ("csv", "dot", "json"),
    "line": ("json", "csv", "dot"),
    "gq": ("json", "dot"),
    "hyperplanes": ("json",),
    "petersen": ("dot", "json"),
}


def cmd_export(args: argparse.Namespace) -> int:
    what, fmt = args.what, args.format
    if fmt not in EXPORT_FORMATS[what]:
        if what == "hyperplanes":
            raise InputError("hyperplane catalog exports as json only")
        raise InputError(f"cannot export {what} as {fmt}")
    from . import export

    if what == "signs":
        from . import correspondence as co

        signs = co.geometric_signs()
        labels = [export.c_label(i) for i in range(1, len(signs) + 1)]
        if fmt == "csv":
            payload = export.sign_matrix_csv(signs, labels)
        elif fmt == "dot":
            payload = export.sign_matrix_dot(signs, labels, args.edge_sign)
        else:
            payload = json.dumps(
                {"schema": 1, "labels": labels, "signs": list(signs)},
                indent=2,
            ) + "\n"
    elif what == "line":
        from .projline import enumerate_line, line_to_json_dict

        line = enumerate_line(_ring(args.ring))
        labels = [f"P{i}" for i in range(len(line.points))]
        if fmt == "json":
            payload = json.dumps(line_to_json_dict(line), indent=2) + "\n"
        elif fmt == "csv":
            payload = export.line_points_csv(line)
        else:
            payload = export.sign_matrix_dot(line.relation, labels, args.edge_sign)
    elif what == "gq":
        from . import correspondence as co

        s = co.canonical_gq()
        if fmt == "json":
            payload = json.dumps(export.structure_to_json_dict(s), indent=2) + "\n"
        else:
            payload = export.graph_dot(
                s.collinearity_graph(), name="collinearity", label=export.c_label
            )
    elif what == "hyperplanes":
        from . import correspondence as co

        payload = json.dumps(
            export.hyperplane_catalog_to_json_dict(
                co.canonical_hyperplanes(), co.canonical_spreads()
            ),
            indent=2,
        ) + "\n"
    else:
        from .quadrangle import petersen_graph

        g = petersen_graph()
        if fmt == "dot":
            payload = export.graph_dot(g, name="petersen")
        else:
            payload = json.dumps(
                {
                    "schema": 1,
                    "vertices": [list(v) for v in g.vertices],
                    "edges": [[list(u), list(v)] for u, v in g.sorted_edges()],
                },
                indent=2,
            ) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as e:
        raise InputError(f"cannot write {args.out}: {e}") from None
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringline",
        description="projective lines over small finite rings, the two-qubit "
        "operator correspondence, and the order-two generalized quadrangle",
    )
    top = parser.add_subparsers(dest="group", required=True)
    text_json = ("text", "json")

    def add_format(p, formats):
        p.add_argument("--format", default="text", help="output format")
        p.set_defaults(formats=formats)

    ring = top.add_parser("ring", help="ring tables and axioms")
    ring_sub = ring.add_subparsers(dest="verb", required=True)
    p = ring_sub.add_parser("show", help="print the addition and multiplication tables")
    p.add_argument("name")
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_ring_show)
    p = ring_sub.add_parser("validate", help="check every ring axiom exhaustively")
    p.add_argument("name")
    add_format(p, text_json)
    p.set_defaults(func=cmd_ring_validate)

    line = top.add_parser("line", help="projective line construction")
    line_sub = line.add_subparsers(dest="verb", required=True)
    p = line_sub.add_parser("enumerate", help="list the points of the line")
    p.add_argument("--ring", default="m2f2")
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_line_enumerate)
    p = line_sub.add_parser("relations", help="print the distant/neighbor matrix")
    p.add_argument("--ring", default="m2f2")
    p.add_argument("--edge-sign", default=NEIGHBOR, choices=[DISTANT, NEIGHBOR],
                   help="which relation becomes a dot edge")
    add_format(p, ("text", "json", "csv", "dot"))
    p.set_defaults(func=cmd_line_relations)
    p = line_sub.add_parser(
        "subconfig", help="the points seen from two distant base points"
    )
    p.add_argument("--ring", default="m2f2")
    p.add_argument("--u", default="1,0", help="first base point, e.g. 1,0")
    p.add_argument("--v", default="0,1", help="second base point, e.g. 0,1")
    add_format(p, text_json)
    p.set_defaults(func=cmd_line_subconfig)

    gq = top.add_parser("gq", help="the generalized quadrangle")
    gq_sub = gq.add_subparsers(dest="verb", required=True)
    p = gq_sub.add_parser("build", help="points and lines of the quadrangle")
    add_format(p, text_json)
    p.set_defaults(func=cmd_gq_build)
    p = gq_sub.add_parser("axioms", help="check the quadrangle axioms and self-duality")
    add_format(p, text_json)
    p.set_defaults(func=cmd_gq_axioms)
    p = gq_sub.add_parser("ovoids", help="list the ovoids")
    add_format(p, text_json)
    p.set_defaults(func=cmd_gq_ovoids)
    p = gq_sub.add_parser("spreads", help="list the spreads")
    add_format(p, text_json)
    p.set_defaults(func=cmd_gq_spreads)
    p = gq_sub.add_parser("hyperplanes", help="the full hyperplane catalog")
    add_format(p, text_json)
    p.set_defaults(func=cmd_gq_hyperplanes)
    p = gq_sub.add_parser("petersen", help="ovoid complements against the Petersen graph")
    p.add_argument("--ovoid", type=int, default=None, help="check one ovoid by index")
    add_format(p, text_json)
    p.set_defaults(func=cmd_gq_petersen)

    pauli = top.add_parser("pauli", help="two-qubit operator side")
    pauli_sub = pauli.add_subparsers(dest="verb", required=True)
    p = pauli_sub.add_parser("table", help="operators and their commutation signs")
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_pauli_table)
    p = pauli_sub.add_parser("mermin", help="the standard magic square")
    add_format(p, text_json)
    p.set_defaults(func=cmd_pauli_mermin)
    p = pauli_sub.add_parser("mub", help="unbiased-bases check per spread")
    p.add_argument("--spread", type=int, default=None, help="check one spread by index")
    add_format(p, text_json)
    p.set_defaults(func=cmd_pauli_mub)

    verify = top.add_parser("verify", help="verification certificates")
    verify.add_argument(
        "what", choices=["table2", "factor96", "factor105", "trinity", "all"]
    )
    verify.add_argument("--fixture", default=None,
                        help="file with 15 rows of +/- signs replacing the stored fixture")
    verify.add_argument("--no-header", action="store_true",
                        help="omit the title banner from text output")
    add_format(verify, text_json)
    verify.set_defaults(func=cmd_verify)

    exp = top.add_parser("export", help="write a machine-readable artifact")
    exp.add_argument("--what", required=True,
                     choices=list(EXPORT_FORMATS))
    exp.add_argument("--format", required=True, choices=["json", "csv", "dot"])
    exp.add_argument("--out", required=True)
    exp.add_argument("--ring", default="m2f2")
    exp.add_argument("--edge-sign", default=NEIGHBOR, choices=[DISTANT, NEIGHBOR])
    exp.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        formats = getattr(args, "formats", None)
        if formats is not None and args.format not in formats:
            raise InputError(
                f"format {args.format!r} not supported here "
                f"(choose from {', '.join(formats)})"
            )
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
