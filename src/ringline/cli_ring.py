"""Renderers of the ``ring`` commands: tables and axioms of one ring."""

from __future__ import annotations

import argparse

from .cli import EXIT_MISMATCH, EXIT_OK, _json, _ring, _text


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
