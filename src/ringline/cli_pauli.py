"""Renderers of the ``pauli`` commands: operators, magic square, unbiased bases."""

from __future__ import annotations

import argparse

from .cli import EXIT_MISMATCH, EXIT_OK, _check_index, _failed, _json, _text


def render_pauli_table(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
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
        from . import export
        return export.sign_matrix_csv(signs, labels), EXIT_OK
    return _text(
        f"{label:>4s} {op.label}  {row}" for label, op, row in zip(labels, ops, signs)
    ), EXIT_OK


def render_pauli_mermin(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from .pauli import standard_labeling

    ops = standard_labeling()
    rows = co.STANDARD_ROWS
    result = co.run("standard square")
    if isinstance(result, ValueError):
        raise result
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

    spreads = co.STRUCTURE.spreads
    if len(spreads) != OVOID_SPREAD_COUNT:
        return _failed(args, co.CheckResult(
            f"{OVOID_SPREAD_COUNT} spreads", False, f"{len(spreads)} computed"
        ))
    if args.spread is not None:
        spreads = (spreads[args.spread],)
    lines = co.line_table(co.STRUCTURE)
    results = [co.spread_unbiased(co.STRUCTURE, sp, lines) for sp in spreads]
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
