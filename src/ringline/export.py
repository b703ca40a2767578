"""Serialization helpers: CSV sign matrices, DOT graphs, JSON catalogs.

All output is deterministic (fixed orderings, no timestamps) so repeated
exports are byte-identical.  Only ``projline`` is loaded with this module;
quadrangle types are named in annotations only, so exporting a line does
not load the quadrangle layer.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .projline import DISTANT, NEIGHBOR

if TYPE_CHECKING:
    from .projline import ProjectiveLine
    from .quadrangle import Graph, Hyperplane, IncidenceStructure

__all__ = [
    "sign_matrix_csv",
    "sign_matrix_dot",
    "graph_dot",
    "line_points_csv",
    "structure_to_json_dict",
    "hyperplane_catalog_to_json_dict",
]


def sign_matrix_csv(rows: Sequence[str], labels: Sequence[str]) -> str:
    """The +/- matrix as CSV with row and column headers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(labels))
    for label, row in zip(labels, rows, strict=True):
        writer.writerow([label] + list(row))
    return buf.getvalue()


def sign_matrix_dot(rows: Sequence[str], labels: Sequence[str], edge_sign: str = NEIGHBOR) -> str:
    """The matrix as an undirected DOT graph named ``relation``.

    ``edge_sign`` selects which relation becomes an edge: "-" draws the
    neighbor (commuting) graph, "+" the distant (non-commuting) one.
    """
    if edge_sign not in (DISTANT, NEIGHBOR):
        raise ValueError(f"edge_sign must be '{DISTANT}' or '{NEIGHBOR}'")
    lines = ["graph relation {"]
    for label in labels:
        lines.append(f"  {label};")
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] == edge_sign:
                lines.append(f"  {labels[i]} -- {labels[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_dot(g: Graph, name: str = "g", label: Callable[..., str] = str) -> str:
    """An undirected graph in DOT form, vertices in their stored order."""
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f'  "{label(v)}";')
    for u, v in g.sorted_edges():
        lines.append(f'  "{label(u)}" -- "{label(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def line_points_csv(line: ProjectiveLine) -> str:
    """Point table of a projective line: id, canonical pair, orbit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "a", "b", "orbit"])
    for i, pt in enumerate(line.points):
        orbit = " ".join(f"({a},{b})" for a, b in sorted(pt.members))
        writer.writerow([i, pt.canonical[0], pt.canonical[1], orbit])
    return buf.getvalue()


def structure_to_json_dict(s: IncidenceStructure) -> dict:
    return {
        "schema": 1,
        "points": list(s.points),
        "lines": [sorted(line) for line in s.lines],
    }


def hyperplane_catalog_to_json_dict(
    planes: Iterable[Hyperplane], spreads: Iterable[Sequence[int]]
) -> dict:
    """The full catalog: ovoids, perp sets, grids, spreads."""
    from .quadrangle import hyperplane_catalog

    return {"schema": 1, **hyperplane_catalog(planes, spreads)}
