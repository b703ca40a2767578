"""Renderer of ``export``, and of the targets that no command prints."""

from __future__ import annotations

import argparse
import os

from .cli import EXIT_OK, EXPORTS, InputError, _json, _renderer, _ring


def render_signs(args: argparse.Namespace) -> tuple[str, int]:
    from . import correspondence as co
    from . import export
    from .golden import c_label

    signs = co.STRUCTURE.signs
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

    graph = co.STRUCTURE.gq.collinearity_graph
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


def render_export(args: argparse.Namespace) -> tuple[str, int]:
    what, fmt = args.what, args.format
    name = EXPORTS.get((what, fmt))
    if name is None:
        if what == "hyperplanes":
            raise InputError("hyperplane catalog exports as json only")
        raise InputError(f"cannot export {what} as {fmt}")
    if what == "line":
        _ring(args.ring)  # an unknown ring is refused before --out is created
    existed = os.path.lexists(args.out)
    try:
        # checked before any work, written only once the renderer returns
        open(args.out, "a", encoding="utf-8").close()
        try:
            text, code = _renderer(name)(args)
        except BaseException:
            if not existed:
                os.remove(args.out)  # a failed export leaves no file of its own behind
            raise
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {args.out}: {e}") from None
    return "", code
