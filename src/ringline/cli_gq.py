"""Renderers of the ``gq`` commands: the quadrangle, its hyperplanes, Petersen."""

from __future__ import annotations

import argparse

from .cli import EXIT_MISMATCH, EXIT_OK, _check_index, _failed, _json, _text


def render_gq_build(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from .golden import c_label

    s = co.canonical_gq()
    if args.format == "json":
        from . import export
        return _json(export.structure_to_json_dict(s)), EXIT_OK
    lines = [f"{len(s.points)} points, {len(s.lines)} lines"]
    lines += [
        f"  line {i:2d}: " + " ".join(c_label(p) for p in sorted(line))
        for i, line in enumerate(s.lines)
    ]
    return _text(lines), EXIT_OK


def render_gq_axioms(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co

    problems, iso = co.quadrangle_axioms()
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
    from .golden import c_label

    planes = co.canonical_hyperplanes()
    spreads = co.canonical_spreads()
    if args.format == "json":
        from . import export
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
