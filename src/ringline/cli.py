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

A cold command compiles only what it runs.  This module holds the tables,
the shared helpers and ``main``; the renderers live in one module per
command group (``cli_ring``, ``cli_line``, ``cli_gq``, ``cli_pauli``,
``cli_verify``, ``cli_export``), and a table entry names its renderer as
``"module.function"``, so ``main`` loads only that renderer's module.  An
export loads ``cli_export`` and the module of the renderer it writes with.
``main`` parses with a parser built for just the command that argv names;
the full parser, with all 21 of its parsers, is built only when argv names
no command or that parse reaches help or a usage error, so every help text
and usage message is the full parser's.  ``json`` loads only where a
command writes JSON.

Loading this module loads no layer: each renderer imports what it calls.
``ring show`` loads ``rings`` and ``gf2``; the ``line`` commands and
``export --what line`` add ``projline`` and ``export``; the ``gq``,
``pauli`` and ``verify`` commands and most exports load ``correspondence``
and with it every layer.  A usage error raised before any work (a bad
``--format`` or export target, an out-of-range ``--ovoid`` or ``--spread``,
an unwritable ``--out``) loads at most the command's renderer module and
``golden``, or ``rings`` for the ``--ring`` of a line export.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Sequence
from importlib import import_module

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


# projline.DISTANT and projline.NEIGHBOR, the --edge-sign choices, restated
# so that building the parser loads no layer; a test keeps them equal
DISTANT, NEIGHBOR = "+", "-"


class InputError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


def _json(doc: dict) -> str:
    import json

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
    """One failed check as a report, titled by the command, in its format."""
    from .correspondence import Report

    return _report(args, Report(args.title, (check,)))


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


def _renderer(name: str):
    """The renderer ``module.function`` names; its module loads now."""
    module, _, function = name.partition(".")
    return getattr(import_module(f"{__package__}.{module}"), function)


# verify WHAT -> the title of its report, a key of ``correspondence.STAGES``
VERIFIERS = {
    "table2": "relation sign matrix",
    "factor96": "9 plus 6 factorization",
    "factor105": "10 plus 5 factorization",
    "trinity": "hyperplane trinity",
    "all": "full verification certificate",
}

# export (what, format) -> the renderer whose text is written to --out; the
# --what and --format choices are the keys' parts, in first-seen order
EXPORTS = {
    ("signs", "json"): "cli_export.render_signs",
    ("signs", "csv"): "cli_export.render_signs",
    ("signs", "dot"): "cli_export.render_signs",
    ("line", "json"): "cli_line.render_line_enumerate",
    ("line", "csv"): "cli_line.render_line_enumerate",
    ("line", "dot"): "cli_line.render_line_relations",
    ("gq", "json"): "cli_gq.render_gq_build",
    ("gq", "dot"): "cli_export.render_gq_dot",
    ("hyperplanes", "json"): "cli_gq.render_gq_hyperplanes",
    ("petersen", "json"): "cli_export.render_petersen",
    ("petersen", "dot"): "cli_export.render_petersen",
}


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call of a command, kept as data."""
    return flags, options


TEXT_JSON = ("text", "json")
RING = _arg("--ring", default="m2f2")
EDGE_SIGN = {"default": NEIGHBOR, "choices": [DISTANT, NEIGHBOR]}

# (group, verb) -> (help, formats, arguments, renderer); a verb of None makes
# the group itself the command, and formats of None leave --format to the
# arguments.  A renderer is named "module.function", its module one per
# group, and is loaded only when its command runs.
COMMANDS = {
    ("ring", "show"): (
        "print the addition and multiplication tables",
        ("text", "json", "csv"),
        (_arg("name"),),
        "cli_ring.render_ring_show",
    ),
    ("ring", "validate"): (
        "check every ring axiom exhaustively",
        TEXT_JSON,
        (_arg("name"),),
        "cli_ring.render_ring_validate",
    ),
    ("line", "enumerate"): (
        "list the points of the line",
        ("text", "json", "csv"),
        (RING,),
        "cli_line.render_line_enumerate",
    ),
    ("line", "relations"): (
        "print the distant/neighbor matrix",
        ("text", "json", "csv", "dot"),
        (RING, _arg("--edge-sign", **EDGE_SIGN, help="which relation becomes a dot edge")),
        "cli_line.render_line_relations",
    ),
    ("line", "subconfig"): (
        "the points seen from two distant base points",
        TEXT_JSON,
        (
            RING,
            _arg("--u", default="1,0", help="first base point, e.g. 1,0"),
            _arg("--v", default="0,1", help="second base point, e.g. 0,1"),
        ),
        "cli_line.render_line_subconfig",
    ),
    ("gq", "build"): (
        "points and lines of the quadrangle", TEXT_JSON, (), "cli_gq.render_gq_build"
    ),
    ("gq", "axioms"): (
        "check the quadrangle axioms and self-duality", TEXT_JSON, (), "cli_gq.render_gq_axioms"
    ),
    ("gq", "ovoids"): ("list the ovoids", TEXT_JSON, (), "cli_gq.render_gq_ovoids"),
    ("gq", "spreads"): ("list the spreads", TEXT_JSON, (), "cli_gq.render_gq_spreads"),
    ("gq", "hyperplanes"): (
        "the full hyperplane catalog", TEXT_JSON, (), "cli_gq.render_gq_hyperplanes"
    ),
    ("gq", "petersen"): (
        "ovoid complements against the Petersen graph",
        TEXT_JSON,
        (_arg("--ovoid", type=int, default=None, help="check one ovoid by index"),),
        "cli_gq.render_gq_petersen",
    ),
    ("pauli", "table"): (
        "operators and their commutation signs",
        ("text", "json", "csv"),
        (),
        "cli_pauli.render_pauli_table",
    ),
    ("pauli", "mermin"): (
        "the standard magic square", TEXT_JSON, (), "cli_pauli.render_pauli_mermin"
    ),
    ("pauli", "mub"): (
        "unbiased-bases check per spread",
        TEXT_JSON,
        (_arg("--spread", type=int, default=None, help="check one spread by index"),),
        "cli_pauli.render_pauli_mub",
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
        "cli_verify.render_verify",
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
        "cli_export.render_export",
    ),
}

# help for the groups whose commands are verbs
GROUPS = {
    "ring": "ring tables and axioms",
    "line": "projective line construction",
    "gq": "the generalized quadrangle",
    "pauli": "two-qubit operator side",
}


class _Retry(Exception):
    """A narrow parse reached help or a usage error."""


class _NarrowParser(argparse.ArgumentParser):
    """A parser for some commands only.  It prints nothing, since its help
    and usage texts would list only those commands: help and usage errors
    raise ``_Retry`` instead, and ``main`` parses again with the full parser."""

    def print_help(self, file=None):
        raise _Retry

    def error(self, message):
        raise _Retry


def build_parser(keys: Iterable[tuple] | None = None) -> argparse.ArgumentParser:
    """The parser for the ``COMMANDS`` keys KEYS, or for every command."""
    parser = (argparse.ArgumentParser if keys is None else _NarrowParser)(
        prog="ringline",
        description="projective lines over small finite rings, the two-qubit "
        "operator correspondence, and the order-two generalized quadrangle",
    )
    top = parser.add_subparsers(dest="group", required=True)
    verbs = {}
    for group, verb in COMMANDS if keys is None else keys:
        summary, formats, arguments, render = COMMANDS[group, verb]
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
        p.set_defaults(formats=formats, render=render, title=f"ringline {group} {verb or ''}".rstrip())
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """ARGV parsed by a parser built for the one command it names.  When it
    names none, or that parse reaches help or a usage error, the full parser
    parses it, prints its texts and exits."""
    key = tuple(argv[:2])
    if key not in COMMANDS:
        key = (*argv[:1], None)
    if key in COMMANDS:
        try:
            return build_parser([key]).parse_args(argv)
        except _Retry:
            pass
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        if args.formats is not None and args.format not in args.formats:
            raise InputError(
                f"format {args.format!r} not supported here "
                f"(choose from {', '.join(args.formats)})"
            )
        text, code = _renderer(args.render)(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # a layer refused its input, such as a ring that fails its axioms
        from .correspondence import stage_failure

        text, code = _failed(args, stage_failure(args.title, exc))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    # Run as ``python -m ringline.cli``, this file is ``__main__``; dispatch
    # through ``ringline.cli``, the module whose InputError the renderers raise.
    from ringline.cli import main

    raise SystemExit(main())
