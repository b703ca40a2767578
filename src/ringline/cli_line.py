"""Renderers of the ``line`` commands: points, relation and sub-configuration."""

from __future__ import annotations

import argparse

from .cli import EXIT_OK, InputError, _json, _ring, _text


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
    from .projline import enumerate_line, line_to_json_dict

    line = enumerate_line(_ring(args.ring))
    if args.format == "json":
        return _json(line_to_json_dict(line)), EXIT_OK
    if args.format == "csv":
        from . import export
        return export.line_points_csv(line), EXIT_OK
    lines = [
        f"{i:3d}: {pt.canonical}  orbit size {len(pt.members)}"
        for i, pt in enumerate(line.points)
    ]
    lines.append(f"total: {len(line.points)} points")
    return _text(lines), EXIT_OK


def render_line_relations(args: argparse.Namespace) -> tuple[str, int]:
    from .projline import enumerate_line, line_to_json_dict

    line = enumerate_line(_ring(args.ring))
    labels = [f"P{i}" for i in range(len(line.points))]
    if args.format == "json":
        return _json(line_to_json_dict(line)), EXIT_OK
    if args.format == "csv":
        from . import export
        return export.sign_matrix_csv(line.relation, labels), EXIT_OK
    if args.format == "dot":
        from . import export
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
