"""The verification layer tying the three faces of the structure together.

One and the same 15x15 sign matrix is produced three ways: from the ring
geometry (the sub-configuration of the projective line over the 2x2 matrix
ring), from two-qubit operator commutation, and from the stored fixture.
The functions here check all of that cell by cell, then verify the finer
structure: the 9+6 and 10+5 factorizations, perp-set sublines, hyperplane
counts, Petersen complements, magic squares, unbiased bases, and the
transitivity of the invertible group on all distant triples.  Everything
is exact and enumerated; results come back as Report trees that serialize
to JSON or a plain-text certificate.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial, wraps
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import golden
from .golden import c_label
from .pauli import (
    MerminResult,
    PauliOp,
    commutes,
    commutation_table,
    line_facts,
    line_product_sign,
    mermin_square_check,
    mub_spread_check,
    signs_from_commutation,
    standard_labeling,
)
from .projline import (
    DISTANT,
    NEIGHBOR,
    PointClass,
    ProjectiveLine,
    distant_triple_witnesses,
    enumerate_line,
    induced_neighbor_masks,
    induced_signs,
    is_admissible,
    signs_graph,
    simultaneous_subconfig,
)
from .quadrangle import (
    GRID,
    OVOID,
    PERP_SET,
    Graph,
    IncidenceStructure,
    MaskMapping,
    build_gq_from_graph,
    enumerate_hyperplanes,
    enumerate_spreads,
    is_strongly_regular,
    mask_isomorphism,
    mask_maps_onto,
    petersen_graph,
    triangles,
    validate_gq_axioms,
)
from .rings import Ring, ring_by_name, units, validate_ring, zero_divisors

__all__ = [
    "CheckResult",
    "Report",
    "stage_failure",
    "Structure",
    "STRUCTURE",
    "operator_signs",
    "STANDARD_ROWS",
    "line_table",
    "quadrangle_axioms",
    "standard_square",
    "spread_unbiased",
    "verify_ring_tables",
    "verify_line_census",
    "verify_subconfig",
    "verify_relation_signs",
    "verify_gq_structure",
    "verify_hyperplane_census",
    "verify_petersen",
    "verify_split_9_6",
    "verify_split_10_5",
    "verify_perp_sublines",
    "grid_mermin_arrangement",
    "verify_mermin",
    "verify_mub",
    "verify_transitivity",
    "trinity_report",
    "STAGES",
    "CERTIFICATE",
    "run",
    "verify_all",
]


class CheckResult(NamedTuple):
    """One named pass/fail outcome with a short human-readable detail."""

    name: str
    passed: bool
    detail: str = ""


class Report(NamedTuple):
    title: str
    checks: tuple[CheckResult, ...] = ()
    # the default is shared by every Report, so it must be read-only
    data: Mapping = MappingProxyType({})
    subreports: tuple["Report", ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and all(
            r.passed for r in self.subreports
        )

    def tally(self) -> tuple[int, int]:
        """(total checks, failed checks), counted recursively."""
        total = len(self.checks)
        failed = sum(1 for c in self.checks if not c.passed)
        for r in self.subreports:
            t, f = r.tally()
            total += t
            failed += f
        return total, failed

    def to_json_dict(self) -> dict:
        # ``passed`` from the subreports' dicts, so that no subtree is walked twice
        subreports = [r.to_json_dict() for r in self.subreports]
        return {
            "schema": 1,
            "title": self.title,
            "passed": all(c.passed for c in self.checks) and all(r["passed"] for r in subreports),
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
            "data": dict(self.data),
            "subreports": subreports,
        }

    def _render(self, lines: list[str], depth: int) -> None:
        pad = "  " * depth
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            tail = f": {c.detail}" if c.detail else ""
            lines.append(f"{pad}[{mark}] {c.name}{tail}")
        for r in self.subreports:
            lines.append(f"{pad}{r.title}")
            r._render(lines, depth + 1)

    def to_text(self, header: bool = True) -> str:
        lines: list[str] = []
        if header:
            lines.append(self.title)
            lines.append("=" * len(self.title))
        self._render(lines, 0)
        total, failed = self.tally()
        verdict = "PASS" if failed == 0 else "FAIL"
        lines.append("")
        lines.append(f"checks: {total}  failed: {failed}  result: {verdict}")
        return "\n".join(lines) + "\n"


def stage_failure(stage: str, exc: ValueError) -> CheckResult:
    """The failed check reported when ``stage`` raises ValueError instead of
    answering, as the pauli layer does for a quadrangle line whose operators
    do not commute and ``enumerate_line`` for a ring that fails its axioms."""
    return CheckResult(stage, False, f"raised ValueError: {exc}")


_LABELS = tuple(map(c_label, range(16)))  # c_label(p) is _LABELS[p] for each point label p


def _cset(ids: Iterable[int]) -> str:
    return "{" + ",".join([_LABELS[i] for i in sorted(ids)]) + "}"


def _label(key: int | Iterable[int]) -> str:
    # a point as c_label words it, a set of points as _cset does
    return _LABELS[key] if type(key) is int else _cset(key)


def _name(labels: Mapping, key: tuple[str, int | Iterable[int]]) -> str:
    # the name of a check: its template, filled with the label of its points
    template, points = key
    return template.format(labels[points])


def _picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    # the entries of a sequence at ``positions``, as a tuple
    return itemgetter(*positions) if len(positions) > 1 else lambda seq: tuple(seq[i] for i in positions)


class _Kept(dict):
    """A dict that builds a missing value from its key, ``build(key)``, on
    first read and keeps it."""

    __slots__ = ("build",)

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        self[key] = value = self.build(key)
        return value


def _ring(name: str) -> Ring:
    return ring_by_name(name)  # looked up on each call, so a wrapped one is read


def _kept_per_key(build: Callable) -> Callable:
    # the method ``build(st, key)`` as a part of ``st`` for each key, kept in
    # ``st.parts`` as a cached_property keeps a part in the instance dict
    @wraps(build)
    def part(self, key):
        try:
            return self.parts[build.__name__, key]
        except KeyError:
            self.parts[build.__name__, key] = value = build(self, key)
            return value

    return part


class Structure:
    """The chain the verifiers read, each part built from ``rings`` (a ring
    name -> its Ring) on first read and kept; a part whose build raises is
    not kept, so every read of it raises.  A part is only a function of the
    structure, never a verdict: every check reads its parts on every call.
    The parts that take a key are kept in ``parts`` by (name, key), or, for
    ``labels`` and ``names``, in a dict of their own; the verifiers read all
    of these only with keys drawn from the structure's own parts."""

    def __init__(self, rings: Callable[[str], Ring] = _ring) -> None:
        self.rings = rings
        self.parts: dict = {}

    @cached_property
    def sub(self) -> tuple[ProjectiveLine, PointClass, PointClass, tuple, tuple]:
        """The m2f2 line, its two base points, the ordered 15 points, and the
        families (distant from both, neighbor of both) that they join."""
        line = enumerate_line(self.rings("m2f2"))
        u = line.class_of((line.ring.one, line.ring.zero))
        v = line.class_of((line.ring.zero, line.ring.one))
        families = simultaneous_subconfig(line, u, v)
        return line, u, v, families[0] + families[1], families

    @cached_property
    def signs(self) -> tuple[str, ...]:
        """The 15x15 relation matrix computed from the ring geometry."""
        line, _, _, pts, _ = self.sub
        return induced_signs(line, pts)

    @cached_property
    def graph(self) -> Graph:
        """The neighbor graph on point labels 1..15, read off ``signs``; the
        fixture is only compared against, never built on."""
        return signs_graph(self.signs, first=1)

    @cached_property
    def triangles(self) -> tuple[frozenset, ...]:
        return tuple(triangles(self.graph))

    @cached_property
    def operator_signs(self) -> tuple[str, ...]:
        return operator_signs()

    @cached_property
    def gq(self) -> IncidenceStructure:
        """The quadrangle recovered from ``graph``; points are 1..15."""
        return build_gq_from_graph(self.graph)

    @cached_property
    def hyperplanes(self):
        return enumerate_hyperplanes(self.gq)

    @cached_property
    def by_kind(self) -> dict[str, tuple]:
        """``hyperplanes`` of each kind, in order."""
        return {kind: tuple(h for h in self.hyperplanes if h.kind == kind) for kind in (OVOID, PERP_SET, GRID)}

    @cached_property
    def spreads(self):
        return enumerate_spreads(self.gq)

    @cached_property
    def cover_masks(self) -> tuple[frozenset[int], frozenset[int]]:
        """The ovoids of ``by_kind`` as masks over the positions of
        ``gq.points``, and ``spreads`` as masks over line indices: what the
        census's searches on ``gq`` and its dual must find."""
        bit = {p: 1 << i for i, p in enumerate(self.gq.points)}
        ovoids = frozenset(sum(map(bit.__getitem__, h.points)) for h in self.by_kind[OVOID])
        return ovoids, frozenset(sum(1 << i for i in sp) for sp in self.spreads)

    @cached_property
    def labels(self) -> Mapping:
        """The label of each point (as ``c_label`` words it) and point set
        (as ``_cset`` does) that a check shows, worded on first read."""
        return _Kept(_label)

    @cached_property
    def names(self) -> Mapping:
        """The name of each check that names a point or point set, by its
        (template, points): the template filled with their ``labels``."""
        return _Kept(partial(_name, self.labels))

    @cached_property
    def line_rows(self) -> tuple[tuple[int, tuple[int, ...], Callable], ...]:
        """Each line of ``gq`` in order: its mask (bit p - 1 for label p, as
        in ``gq.line_masks``), its labels in order and ``_picker`` of their
        positions, which picks its operators from ``standard_labeling()``."""
        s = self.gq
        return tuple((m, *self.picks(line)) for m, line in zip(s.line_masks, s.lines))

    @cached_property
    def line_keys(self) -> dict[tuple[int, ...], int]:
        """The labels of each line of ``gq``, in each of their orders -> its
        mask, the key of ``line_table``; {} when there is no quadrangle, as
        ``line_table`` is, so that a square is then evaluated where it is."""
        try:
            s = self.gq
        except ValueError:
            return {}
        return {t: m for m, line in zip(s.line_masks, s.lines) for t in itertools.permutations(sorted(line))}

    @_kept_per_key
    def picks(self, points: Iterable[int]) -> tuple[tuple[int, ...], Callable]:
        """The labels of ``points`` in order and ``_picker`` of their
        positions (label - 1): their operators from ``standard_labeling()``,
        their points from the ordered 15 of ``sub``."""
        labels = tuple(sorted(points))
        return labels, _picker([p - 1 for p in labels])

    @_kept_per_key
    def spread(self, spread: tuple[int, ...]) -> tuple[str, tuple]:
        """The check name of ``spread``, given by its line indices into
        ``gq``, and the ``line_rows`` of those lines."""
        lines, labels = self.gq.lines, self.labels
        return "spread " + " ".join(labels[lines[i]] for i in spread), tuple(map(self.line_rows.__getitem__, spread))

    @_kept_per_key
    def isomorphism(self, graphs: tuple[tuple[int, ...], tuple[int, ...]]) -> MaskMapping | None:
        """``mask_isomorphism`` of the two graphs, as their adjacency mask
        tuples, a read-only ``MaskMapping`` with its image tables, or None:
        searched once per pair of graphs a verifier relates on this one."""
        iso = mask_isomorphism(*graphs)
        return None if iso is None else MaskMapping(iso)

    @_kept_per_key
    def induced(self, points: tuple[PointClass, ...]) -> tuple[int, ...]:
        """``induced_neighbor_masks`` of ``points`` on the m2f2 line."""
        return tuple(induced_neighbor_masks(self.sub[0], points))

    @_kept_per_key
    def complement(self, ovoid: frozenset) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions in ``gq.points`` of the points off ``ovoid``, and
        the collinearity masks among them with those positions renumbered
        0, 1, ... in order."""
        s = self.gq
        masks = s.collinearity_graph.masks
        keep = tuple(i for i, p in enumerate(s.points) if p not in ovoid)
        at, off, sub = {1 << j: 1 << b for b, j in enumerate(keep)}, sum(1 << j for j in keep), []
        for i in keep:
            rest, mask = masks[i] & off, 0
            while rest:
                mask |= at[rest & -rest]
                rest &= rest - 1
            sub.append(mask)
        return keep, tuple(sub)

    @_kept_per_key
    def centre(self, x: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[frozenset, ...]]:
        """The neighbors of point ``x`` in ``graph`` in order, the pairs of
        them that are neighbors, and the points of each perp-set hyperplane
        centred at ``x``."""
        g = self.graph
        nbrs = tuple(sorted(g.neighbors(x)))
        pairs = tuple((p, q) for p, q in itertools.combinations(nbrs, 2) if g.has_edge(p, q))
        return nbrs, pairs, tuple(h.points for h in self.by_kind[PERP_SET] if h.center == x)

    @_kept_per_key
    def words(self, points: frozenset) -> str:
        """The arrangement ``cells(points)`` of a grid in words: its rows'
        ``labels`` joined by "," and the rows by " / ", "" for none."""
        return " / ".join(",".join(map(self.labels.__getitem__, row)) for row in self.cells(points) or ())

    def cells(self, points: frozenset) -> tuple | None:
        """``_arrange(points)``, kept in ``parts`` by ("cells", points) for
        the grid hyperplanes of ``by_kind`` alone: any other point set is
        arranged afresh on each call and keeps nothing."""
        try:
            return self.parts["cells", points]
        except KeyError:
            grid = self._arrange(points)
            if any(h.points == points for h in self.by_kind[GRID]):
                self.parts["cells", points] = grid
            return grid

    def _arrange(self, points: frozenset) -> tuple | None:
        """The 3x3 arrangement of grid ``points`` that ``grid_mermin_arrangement``
        evaluates, or None.  Rows and columns must be the two parallel
        classes of the six lines of ``gq`` inside ``points``.  Every
        arrangement has the same six lines, so it is consistent (each row
        meets each column in one point) when one is, and, since a line's sign
        does not depend on the order of its commuting operators, magic when
        one is.  The arrangement with the lexicographically least flattened
        label tuple is the one returned, making the result deterministic.  It is
        built directly on point masks: in either class order, the row and
        column through the grid's least point come first, the other columns
        follow by their meet with that row and the other rows by their meet
        with that column; the smaller of the two flattened tuples wins.
        """
        s = self.gq
        pmask = sum(1 << p - 1 for p in points)
        classes = _parallel_classes([m for m in s.line_masks if not m & ~pmask])
        if classes is None:
            return None
        if any((r & c).bit_count() != 1 for r in classes[0] for c in classes[1]):
            return None
        least = pmask & -pmask

        def flattened(rows: list[int], cols: list[int]) -> list[int]:
            # each meet is one point, so its mask orders as its label does
            first_row = next(r for r in rows if r & least)
            cols = sorted(cols, key=first_row.__and__)
            return [r & c for r in sorted(rows, key=cols[0].__and__) for c in cols]

        cells = min(flattened(*classes), flattened(*classes[::-1]))
        return tuple(tuple(s.points[m.bit_length() - 1] for m in cells[k : k + 3]) for k in (0, 3, 6))


# the structure that ``run`` and the commands read; nothing is built at import
STRUCTURE = Structure()


def operator_signs() -> tuple[str, ...]:
    """The 15x15 matrix computed from operator commutation, same encoding."""
    return signs_from_commutation(commutation_table(standard_labeling()))


def _ops_for(labels: Iterable[int]) -> list[PauliOp]:
    ops = standard_labeling()
    return [ops[i - 1] for i in labels]


def line_table(st: Structure) -> dict[int, tuple]:
    """Each line of ``st.gq`` by its point mask (bit p - 1 for label p, as in
    its ``line_masks``) with ``line_facts`` of its operators in label
    order: the stage "line table", built once per run, never kept.
    It is {} when there is no quadrangle or labelling to read; a line not
    in it is evaluated where it is used, so that such a run fails as without it."""
    try:
        ops = standard_labeling()
        return {m: line_facts(pick(ops)) for m, _, pick in st.line_rows}
    except ValueError:
        return {}


def _line_sign(lines: Mapping, keys: Mapping, labels: tuple[int, ...]) -> int:
    # the sign ``lines`` holds for these points, read by their ``line_keys``,
    # else line_product_sign of their operators in this order, which words
    # an error for this order
    sign = lines.get(keys.get(labels), (None,))[0]
    return sign if type(sign) is int else line_product_sign(_ops_for(labels))


# ---------------------------------------------------------------------------
# ring and line level


def verify_ring_tables(st: Structure) -> Report:
    """Generated 2x2-matrix-ring tables against the stored fixture."""
    ring = st.rings("m2f2")
    us = units(ring)
    zds = zero_divisors(ring, us)
    checks = [
        CheckResult(
            "addition table matches fixture",
            ring.add_table == golden.M2F2_ADD_TABLE,
            "256 cells",
        ),
        CheckResult(
            "multiplication table matches fixture",
            ring.mul_table == golden.M2F2_MUL_TABLE,
            "256 cells",
        ),
        CheckResult(
            "unit set",
            us == golden.M2F2_UNITS,
            "{" + ",".join(str(u) for u in sorted(us)) + "}",
        ),
        CheckResult(
            "zero divisor count",
            len(zds) == 10 and ring.zero in zds,
            "10 including zero",
        ),
    ]
    for name in ("m2f2", "gf2", "gf4", "gf2xgf2", "gf2dual"):
        problems = validate_ring(st.rings(name))
        checks.append(
            CheckResult(
                f"ring axioms hold for {name}",
                not problems,
                problems[0] if problems else "exhaustive",
            )
        )
    return Report("ring construction", tuple(checks))


def verify_line_census(st: Structure) -> Report:
    """Point counts and orbit structure of the projective lines."""
    checks = []
    line = enumerate_line(st.rings("m2f2"))
    checks.append(CheckResult("35 points over m2f2", len(line.points) == 35))
    checks.append(
        CheckResult(
            "every orbit has size 6",
            all(len(pt.members) == 6 for pt in line.points),
        )
    )
    reps_ok = all(is_admissible(line.ring, a, b) for a, b in golden.LINE_CENSUS_REPS)
    checks.append(CheckResult("published census pairs admissible", reps_ok))
    if reps_ok:
        actual = {frozenset(pt.members) for pt in line.points}
        expected = {
            frozenset(line.class_of(rep).members) for rep in golden.LINE_CENSUS_REPS
        }
        checks.append(
            CheckResult(
                "census orbit-equivalent to published list",
                len(expected) == 35 and expected == actual,
                f"{len(expected)} distinct orbits",
            )
        )
    counts = {"gf2": 3, "gf4": 5, "gf2xgf2": 9, "gf2dual": 6}
    for name, want in counts.items():
        small = enumerate_line(st.rings(name))
        checks.append(
            CheckResult(f"{want} points over {name}", len(small.points) == want)
        )
    gf4_line = enumerate_line(st.rings("gf4"))
    # each size is read from the line, which a ring source may serve at another order
    all_distant = all(c == DISTANT for i, row in enumerate(gf4_line.relation) for j, c in enumerate(row) if i != j)
    checks.append(CheckResult("gf4 line pairwise distant", all_distant))
    dual_line = enumerate_line(st.rings("gf2dual"))
    npairs = sum(row[i + 1 :].count(NEIGHBOR) for i, row in enumerate(dual_line.relation))
    checks.append(CheckResult("gf2dual line has 3 neighbor pairs", npairs == 3))
    return Report("line census", tuple(checks))


def verify_subconfig(st: Structure) -> Report:
    """The 15-point sub-configuration seen from the two standard base points."""
    line, u, v, pts, (fam_distant, fam_neighbor) = st.sub
    checks = [
        CheckResult(
            "family sizes 6 and 9",
            len(fam_distant) == 6 and len(fam_neighbor) == 9,
        )
    ]
    expected = [line.class_of(rep) for rep in golden.POINT_REPS]
    checks.append(
        CheckResult(
            "families reproduce the published points in order",
            list(pts) == expected,
            " ".join(str(pt.canonical) for pt in pts),
        )
    )
    signs = st.signs
    checks.append(
        CheckResult(
            "induced matrix equals fixture",
            signs == golden.CANONICAL_SIGNS,
            "225 cells",
        )
    )
    degree_ok = all(
        row.count(NEIGHBOR) == 7 and row.count(DISTANT) == 8 for row in signs
    )
    checks.append(
        CheckResult(
            "each point has 6 neighbors and 8 distant partners",
            degree_ok,
            "diagonal counted as self-neighbor",
        )
    )
    g, tris = st.graph, st.triangles
    has_4_clique = any(
        g.neighbors(a) & g.neighbors(b) & g.neighbors(c) for a, b, c in tris
    )
    checks.append(
        CheckResult(
            "maximum neighbor clique is 3",
            bool(tris) and not has_4_clique,
            f"{len(tris)} triangles, none extendable",
        )
    )
    return Report("sub-configuration", tuple(checks))


def _diff_cells(
    left: Sequence[str], right: Sequence[str], left_name: str, right_name: str
) -> list[str]:
    out = []
    for i in range(len(left)):
        if left[i] == right[i]:
            continue
        for j in range(len(left)):
            if left[i][j] != right[i][j]:
                out.append(
                    f"{c_label(i + 1)},{c_label(j + 1)}: {left_name} '{left[i][j]}' "
                    f"{right_name} '{right[i][j]}'"
                )
    return out


def verify_relation_signs(st: Structure, reference: Sequence[str] | None = None) -> Report:
    """Geometry, operator commutation, and the fixture agree cell for cell.

    ``reference`` substitutes for the stored fixture (the CLI loads it from
    a file); a malformed reference fails the report rather than raising.
    """
    fixture = golden.CANONICAL_SIGNS if reference is None else tuple(reference)
    checks = []
    shape_ok = len(fixture) == 15 and all(
        len(row) == 15 and set(row) <= {DISTANT, NEIGHBOR} for row in fixture
    )
    checks.append(
        CheckResult(
            "fixture well-formed",
            shape_ok,
            "15 rows of 15 signs" if shape_ok else f"got {len(fixture)} rows",
        )
    )
    data: dict = {"diffs": []}
    if shape_ok:
        geo, ops = st.signs, st.operator_signs
        comparisons = (
            ("geometry vs operators", geo, "geometry", ops, "operators"),
            ("geometry vs fixture", geo, "geometry", fixture, "fixture"),
            ("operators vs fixture", ops, "operators", fixture, "fixture"),
        )
        for name, left, lname, right, rname in comparisons:
            diffs = _diff_cells(left, right, lname, rname)
            data["diffs"].extend(diffs)
            detail = "225 cells" if not diffs else "; ".join(diffs[:4])
            if len(diffs) > 4:
                detail += f"; and {len(diffs) - 4} more"
            checks.append(CheckResult(name, not diffs, detail))
        diag_ok = all(row[i] == NEIGHBOR for i, row in enumerate(geo))
        checks.append(
            CheckResult("diagonal is self-neighbor throughout", diag_ok, "15 cells")
        )
    return Report("relation sign matrix", tuple(checks), data)


# ---------------------------------------------------------------------------
# quadrangle level


def _checked_isomorphism(st: Structure, gadj: Sequence[int], hadj: Sequence[int]) -> Mapping | None:
    """An isomorphism {i: w} between two graphs given by adjacency masks, as
    ``mask_isomorphism`` takes them, or None.  The search runs once per pair
    of mask tuples on ``st``, which keeps the mapping as its ``isomorphism``
    part; every call checks the kept mapping with ``mask_maps_onto``."""
    gadj, hadj = tuple(gadj), tuple(hadj)
    iso = st.isomorphism((gadj, hadj))
    return iso if iso is not None and mask_maps_onto(iso, gadj, hadj) else None


def quadrangle_axioms(st: Structure) -> tuple[list[str], Mapping | None]:
    """Axiom violations of ``st.gq`` and a self-duality isomorphism
    (or None): a checked isomorphism of the two collinearity graphs that
    carries every line onto a dual line."""
    s = st.gq
    d = s.dual_structure
    iso = _checked_isomorphism(st, s.collinearity_graph.masks, d.collinearity_graph.masks)
    if iso is not None:
        iso = {s.points[i]: d.points[w] for i, w in iso.items()}
        if {frozenset(map(iso.get, line)) for line in s.lines} != set(d.lines):
            iso = None
    return validate_gq_axioms(s), iso


def verify_gq_structure(st: Structure) -> Report:
    g = st.graph
    checks = [
        CheckResult(
            "neighbor graph strongly regular (15,6,1,3)",
            is_strongly_regular(g, 15, 6, 1, 3),
        )
    ]
    data: dict = {}
    try:
        s = st.gq
    except ValueError as e:
        checks.append(CheckResult("triangles recover a quadrangle", False, str(e)))
        return Report("quadrangle structure", tuple(checks), data)
    checks.append(
        CheckResult(
            "15 points and 15 lines",
            len(s.points) == 15 and len(s.lines) == 15,
        )
    )
    problems, iso = quadrangle_axioms(st)
    checks.append(
        CheckResult(
            "quadrangle axioms hold",
            not problems,
            problems[0] if problems else "exhaustive",
        )
    )
    checks.append(CheckResult("self-duality isomorphism found", iso is not None))
    if iso is not None:
        data["self_duality"] = [[p, q] for p, q in sorted(iso.items())]
    data["lines"] = [sorted(line) for line in s.lines]
    return Report("quadrangle structure", tuple(checks), data)


def verify_hyperplane_census(st: Structure) -> Report:
    s, planes, by_kind = st.gq, st.hyperplanes, st.by_kind
    checks = [
        CheckResult(
            f"{golden.OVOID_SPREAD_COUNT} ovoids",
            len(by_kind[OVOID]) == golden.OVOID_SPREAD_COUNT,
        ),
        CheckResult("15 perp sets", len(by_kind[PERP_SET]) == 15),
        CheckResult("10 grids", len(by_kind[GRID]) == 10),
        CheckResult("31 hyperplanes in total", len(planes) == 31),
    ]
    ovoids, spread_masks = st.cover_masks
    checks.append(CheckResult("direct ovoid search agrees", set(s.ovoid_masks()) == ovoids))
    spreads = st.spreads
    checks.append(
        CheckResult(
            f"{golden.OVOID_SPREAD_COUNT} spreads",
            len(spreads) == golden.OVOID_SPREAD_COUNT,
        )
    )
    dual_ovoids = s.dual_structure.ovoid_masks()
    checks.append(
        CheckResult(
            "spreads are the ovoids of the dual",
            set(dual_ovoids) == spread_masks,
            f"{len(dual_ovoids)} dual ovoids",
        )
    )
    data = {
        "ovoids": [sorted(h.points) for h in by_kind[OVOID]],
        "perp_sets": [
            {"center": h.center, "points": sorted(h.points)}
            for h in by_kind[PERP_SET]
        ],
        "grids": [sorted(h.points) for h in by_kind[GRID]],
        "spreads": [list(sp) for sp in spreads],
    }
    return Report("hyperplane census", tuple(checks), data)


def _subline_witness(st: Structure, points: Iterable[PointClass], target: str) -> Mapping | None:
    """An isomorphism from the graph of the m2f2 ``points`` (their kept
    ``st.induced`` masks) onto the line over ``target``, or None."""
    return _checked_isomorphism(st, st.induced(tuple(points)), enumerate_line(st.rings(target)).neighbor_masks)


def verify_petersen(st: Structure) -> Report:
    """Every ovoid complement is the Petersen graph, with explicit witnesses:
    an isomorphism from the collinearity graph off the ovoid onto
    ``petersen_graph()`` proves the complement cubic with girth 5."""
    s, reference, names = st.gq, petersen_graph(), st.names
    checks = []
    data: dict = {"witnesses": []}
    for h in st.by_kind[OVOID]:
        keep, sub = st.complement(h.points)
        iso = _checked_isomorphism(st, sub, reference.masks)
        checks.append(
            CheckResult(
                names["complement of {} is Petersen", h.points],
                iso is not None,
                "3-regular, girth 5, isomorphism found" if iso is not None else "",
            )
        )
        if iso is not None:
            data["witnesses"].append(
                {
                    "ovoid": sorted(h.points),
                    "mapping": sorted(
                        [s.points[keep[i]], list(reference.vertices[w])] for i, w in iso.items()
                    ),
                }
            )
    checks.append(
        CheckResult(
            "reference graph sane",
            len(reference.vertices) == 10 and len(reference.edges) == 15,
        )
    )
    return Report("Petersen complements", tuple(checks), data)


# ---------------------------------------------------------------------------
# factorizations

# The nine common neighbors as a 3x3 grid of point labels, row by row.
STANDARD_ROWS = ((7, 8, 9), (10, 11, 12), (13, 14, 15))


def standard_square(st: Structure, lines: Mapping) -> MerminResult | ValueError:
    """The stage "standard square": the Mermin check of the operators on the
    ``STANDARD_ROWS`` grid, its signs read from ``lines``, a ``line_table(st)``,
    or the ValueError it raised, returned so that only the checks that read
    it fail."""
    try:
        return mermin_square_check(STANDARD_ROWS, partial(_line_sign, lines, st.line_keys))
    except ValueError as exc:
        return exc


def _standard_square_check(stage: str, square: MerminResult | ValueError, data: dict,
                           prefix: str = "", tail: str = "") -> CheckResult:
    """The check named ``stage`` of the "standard square" result ``square``,
    whose row and column signs go into ``data`` under ``prefix``."""
    if isinstance(square, ValueError):
        return stage_failure(stage, square)
    data[prefix + "row_signs"] = list(square.row_signs)
    data[prefix + "col_signs"] = list(square.col_signs)
    detail = f"row signs {square.row_signs}, column signs {square.col_signs}{tail}"
    return CheckResult(stage, square.magic, detail)


def verify_split_9_6(st: Structure, square: MerminResult | ValueError) -> Report:
    """The 15 points split as 9 + 6 around the two base points.

    The nine points neighboring both base points carry the relation of the
    line over gf2xgf2; the six distant ones split into two triples, each
    completing the base pair to a copy of the line over gf4, with every
    cross pair a neighbor.  ``square`` is the "standard square" of the run.
    """
    line, u, v, _, (fam_distant, fam_neighbor) = st.sub
    checks = []
    data: dict = {}

    grid_line = enumerate_line(st.rings("gf2xgf2"))
    iso = _subline_witness(st, fam_neighbor, "gf2xgf2")
    checks.append(
        CheckResult(
            "nine common neighbors model the line over gf2xgf2",
            iso is not None,
            "relation-preserving bijection found" if iso else "",
        )
    )
    if iso is not None:
        data["grid_bijection"] = [
            [i + 7, grid_line.points[iso[i]].canonical] for i in sorted(iso)
        ]
    balance = all(mask.bit_count() == 4 for mask in st.induced(tuple(fam_neighbor)))
    checks.append(
        CheckResult(
            "each of the nine has 4 neighbor and 4 distant partners inside",
            balance,
            "diagonal counted as self-neighbor",
        )
    )

    splits = []
    six = range(len(fam_distant))
    at = [line.index_of(p.canonical) for p in fam_distant]
    nbrs, bits = [line.neighbor_masks[i] for i in at], [1 << i for i in at]
    every = sum(bits)
    for b, c in itertools.combinations(six[1:], 2):
        combo = (0, b, c)
        # every cross pair is a neighbor when each point of the first triple
        # has all of the second among its neighbors
        if (every ^ bits[0] ^ bits[b] ^ bits[c]) & ~(nbrs[0] & nbrs[b] & nbrs[c]):
            continue
        first = [fam_distant[i] for i in combo]
        second = [fam_distant[i] for i in six if i not in combo]
        if all(
            _subline_witness(st, t + [u, v], "gf4") is not None
            for t in (first, second)
        ):
            labels = (
                frozenset(i + 1 for i in combo),
                frozenset(i + 1 for i in six if i not in combo),
            )
            splits.append(labels)
    checks.append(
        CheckResult(
            "exactly one split of the six into two gf4 triples",
            len(splits) == 1,
            " and ".join(map(st.labels.__getitem__, splits[0])) if len(splits) == 1 else
            f"{len(splits)} splits found",
        )
    )
    if len(splits) == 1:
        data["triples"] = [sorted(t) for t in splits[0]]
        checks.append(
            CheckResult(
                "split matches the recorded one",
                set(splits[0]) == set(golden.TRIPLE_SPLIT),
            )
        )

    data["mermin_rows"] = [list(r) for r in STANDARD_ROWS]
    checks.append(_standard_square_check(
        "nine common neighbors in standard rows form a magic square", square, data, "mermin_"
    ))
    return Report("9 plus 6 factorization", tuple(checks), data)


def verify_split_10_5(st: Structure, petersen: Report) -> Report:
    """Every ovoid versus its ten-point complement, the Petersen verdicts read
    from ``petersen``, the ``verify_petersen(st)`` report of the same run."""
    witnessed = {frozenset(w["ovoid"]) for w in petersen.data.get("witnesses", ())}
    pts, ops, names = st.sub[3], standard_labeling(), st.names
    checks = []
    data: dict = {"ovoids": []}
    ovoids = st.by_kind[OVOID]
    checks.append(
        CheckResult(
            f"{golden.OVOID_SPREAD_COUNT} ovoids to examine",
            len(ovoids) == golden.OVOID_SPREAD_COUNT,
        )
    )
    checks.append(
        CheckResult(
            "the published sample ovoid is among them",
            any(h.points == golden.SAMPLE_OVOID for h in ovoids),
            st.labels[golden.SAMPLE_OVOID],
        )
    )
    for h in ovoids:
        labels, pick = st.picks(h.points)
        noncommuting = all(
            not commutes(a, b) for a, b in itertools.combinations(pick(ops), 2)
        )
        subline = _subline_witness(st, pick(pts), "gf4") is not None
        checks.append(
            CheckResult(
                names["ovoid {}", h.points],
                noncommuting and subline and h.points in witnessed,
                "pairwise non-commuting, gf4 subline, Petersen complement",
            )
        )
        data["ovoids"].append(list(labels))
    return Report("10 plus 5 factorization", tuple(checks), data)


def verify_perp_sublines(st: Structure) -> Report:
    """All fifteen perp sets, one check per center: its six neighbors pair
    off in a perfect matching of three, model the line over gf2dual and,
    with the center, make the perp-set hyperplane of that center."""
    pts, labels, names = st.sub[3], st.labels, st.names
    checks = []
    data: dict = {"pairs": {}}
    for x in range(1, 16):
        nbrs, pairs, perp = st.centre(x)
        pick = st.picks(nbrs)[1]
        # the sub-line is checked for every center, whatever else fails
        subline = _subline_witness(st, pick(pts), "gf2dual") is not None
        passed = (
            len(nbrs) == 6
            and len(pairs) == 3
            and tuple(sorted(itertools.chain.from_iterable(pairs))) == nbrs
            and subline
            and perp == (frozenset(nbrs) | {x},)
        )
        checks.append(CheckResult(names["perp set of {}", x], passed, " ".join(map(labels.__getitem__, pairs))))
        data["pairs"][str(x)] = [list(p) for p in pairs]
    return Report("perp-set sublines", tuple(checks), data)


# ---------------------------------------------------------------------------
# magic squares, unbiased bases, transitivity


def _parallel_classes(lines: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """Split six grid lines, as point masks, into two classes of three
    pairwise-disjoint lines: masks are disjoint when their popcounts add."""
    if len(lines) != 6:
        return None
    cls1 = [l for l in lines if l == lines[0] or not l & lines[0]]
    cls2 = [l for l in lines if l not in cls1]
    for cls in (cls1, cls2):
        if len(cls) != 3 or (cls[0] | cls[1] | cls[2]).bit_count() != sum(map(int.bit_count, cls)):
            return None
    return cls1, cls2


def grid_mermin_arrangement(st: Structure, points: frozenset, lines: Mapping) -> tuple | None:
    """``st.cells(points)`` if it is a magic 3x3 square, else None; the
    signs are read from ``lines``, a ``line_table(st)``."""
    grid = st.cells(points)
    return grid if grid is not None and mermin_square_check(grid, partial(_line_sign, lines, st.line_keys)).magic else None


def verify_mermin(st: Structure, lines: Mapping, square: MerminResult | ValueError) -> Report:
    """Magic squares: the standard grid, ``square`` of the run, and all ten
    grid hyperplanes, their signs read from ``lines``, a ``line_table(st)``."""
    data: dict = {"standard_rows": [list(r) for r in STANDARD_ROWS]}
    checks = [
        _standard_square_check("standard grid is magic", square, data, tail=", product of all six is -1")
    ]
    data["arrangements"] = []
    grids, names = st.by_kind[GRID], st.names
    checks.append(CheckResult("10 grid hyperplanes", len(grids) == 10))
    for h in grids:
        stage = names["grid {} admits a magic arrangement", h.points]
        try:
            arrangement = grid_mermin_arrangement(st, h.points, lines)
        except ValueError as exc:
            checks.append(stage_failure(stage, exc))
            continue
        checks.append(CheckResult(stage, arrangement is not None, st.words(h.points) if arrangement else ""))
        if arrangement is not None:
            data["arrangements"].append(
                {"grid": sorted(h.points), "rows": [list(r) for r in arrangement]}
            )
    return Report("magic squares", tuple(checks), data)


def spread_unbiased(st: Structure, spread: Sequence[int], lines: Mapping) -> tuple[list, bool]:
    """The spread's lines as sorted label tuples, and whether their
    operators' joint eigenbases are mutually unbiased, the line facts read
    from ``lines``, a ``line_table(st)``."""
    ops, rows = standard_labeling(), st.spread(tuple(spread))[1]
    triples = [labels for _, labels, _ in rows]
    return triples, mub_spread_check([pick(ops) for _, _, pick in rows], [lines[m] for m, _, _ in rows])


def verify_mub(st: Structure, lines: Mapping) -> Report:
    """Every spread's five commuting triples give mutually unbiased bases,
    the line facts read from ``lines``, a ``line_table(st)``."""
    data: dict = {"spreads": []}
    spreads, count = st.spreads, golden.OVOID_SPREAD_COUNT
    checks = [CheckResult(f"{count} spreads to examine", len(spreads) == count)]
    for sp in spreads:
        stage = st.spread(sp)[0]
        try:
            triples, ok = spread_unbiased(st, sp, lines)
        except ValueError as exc:
            checks.append(stage_failure(stage, exc))
            continue
        checks.append(CheckResult(stage, ok, "projector traces exact" if ok else ""))
        data["spreads"].append([list(t) for t in triples])
    return Report("unbiased bases", tuple(checks), data)


def verify_transitivity(st: Structure) -> Report:
    """The invertible group is transitive on ordered pairwise-distant
    triples, each witnessed, and has order orbit x stabilizer, the stabilizer
    being the diag(r, s) over units with (r, s) in the class of (1, 1)."""
    line = st.sub[0]
    ring = line.ring
    triples = line.distant_triple_count
    witnesses, failures = distant_triple_witnesses(line)
    witnessed = sum(map(int.bit_count, witnesses.values()))
    detail = f"{witnessed} of {triples} triples witnessed"
    if failures:
        detail += "; no witness for points {} and {} with unit {}".format(*failures[0])
    scalars = sorted(units(ring))
    diagonal = line.class_of((ring.one, ring.one)).members
    stabilizer = [r for r in scalars for s in scalars if (r, s) in diagonal]
    order = witnessed * len(stabilizer)
    checks = [
        CheckResult(
            "every ordered pairwise-distant triple is witnessed",
            not failures and witnessed == triples,
            detail,
        ),
        CheckResult(
            "invertible group has order 20160",
            order == 20160,
            f"orbit {witnessed} x stabilizer {len(stabilizer)} = {order}; "
            "15*14*12*8 = 20160",
        ),
    ]
    data = {
        "distant_pairs": sum(d.bit_count() for d in line.distant_masks),
        "triples": triples,
        "stabilizer": stabilizer,
    }
    return Report("transitivity of the invertible group", tuple(checks), data)


def trinity_report(st: Structure, ovoid_rep: Report, perp_rep: Report, mermin_rep: Report,
                   mub_rep: Report) -> Report:
    """The three-way table: hyperplane kind, subline model, operator meaning.

    Each row is backed by the report of its dedicated pass, given here and
    kept as a subreport; this report presents their counts side by side.
    """
    counts = {kind: len(planes) for kind, planes in st.by_kind.items()}
    checks = [
        CheckResult(
            f"ovoid row: {golden.OVOID_SPREAD_COUNT} ovoids, gf4 sublines, "
            "mutually non-commuting fives",
            counts[OVOID] == golden.OVOID_SPREAD_COUNT and ovoid_rep.passed,
        ),
        CheckResult(
            "perp row: 15 perp sets, gf2dual sublines, six commuting partners",
            counts[PERP_SET] == 15 and perp_rep.passed,
        ),
        CheckResult(
            "grid row: 10 grids, gf2xgf2 sublines, magic squares",
            counts[GRID] == 10 and mermin_rep.passed,
        ),
        CheckResult(
            f"spread bonus: {golden.OVOID_SPREAD_COUNT} spreads, unbiased bases",
            len(st.spreads) == golden.OVOID_SPREAD_COUNT and mub_rep.passed,
        ),
    ]
    rows = (
        (OVOID, "gf4", "five mutually non-commuting"),
        (PERP_SET, "gf2dual", "six commuting with a common one"),
        (GRID, "gf2xgf2", "magic three by three square"),
    )
    data = {
        "rows": [
            {"hyperplane": kind, "count": counts[kind], "subline": sub, "operators": ops}
            for kind, sub, ops in rows
        ],
        "spreads": len(st.spreads),
    }
    return Report(
        "hyperplane trinity",
        tuple(checks),
        data,
        (ovoid_rep, perp_rep, mermin_rep, mub_rep),
    )


# stage title -> (the name of its builder here, looked up on each run so
# that a patched one runs, and the titles of the stages it takes, in order);
# a builder takes the run's structure, then those stages.  Every stage but
# the last two builds a report: those two are inputs that several reports share
STAGES = {
    "ring construction": ("verify_ring_tables", ()),
    "line census": ("verify_line_census", ()),
    "sub-configuration": ("verify_subconfig", ()),
    "relation sign matrix": ("verify_relation_signs", ()),
    "quadrangle structure": ("verify_gq_structure", ()),
    "hyperplane census": ("verify_hyperplane_census", ()),
    "Petersen complements": ("verify_petersen", ()),
    "9 plus 6 factorization": ("verify_split_9_6", ("standard square",)),
    "10 plus 5 factorization": ("verify_split_10_5", ("Petersen complements",)),
    "perp-set sublines": ("verify_perp_sublines", ()),
    "magic squares": ("verify_mermin", ("line table", "standard square")),
    "unbiased bases": ("verify_mub", ("line table",)),
    "hyperplane trinity": ("trinity_report", ("10 plus 5 factorization", "perp-set sublines",
                                              "magic squares", "unbiased bases")),
    "transitivity of the invertible group": ("verify_transitivity", ()),
    "full verification certificate": ("_certificate", ()),
    "line table": ("line_table", ()),
    "standard square": ("standard_square", ("line table",)),
}

# the stages of ``verify_all()`` in order; the trinity holds four more
CERTIFICATE = (
    "ring construction", "line census", "sub-configuration", "relation sign matrix",
    "quadrangle structure", "hyperplane census", "Petersen complements",
    "9 plus 6 factorization", "hyperplane trinity", "transitivity of the invertible group",
)


def _build(st: Structure, title: str, built: dict, *args):
    # the stage on ``st``, then its inputs, each built once into ``built``, then ``args``
    if title not in built:
        name, needs = STAGES[title]
        built[title] = globals()[name](st, *[_build(st, t, built) for t in needs], *args)
    return built[title]


def _run(st: Structure, title: str, built: dict, *args) -> Report:
    try:
        return _build(st, title, built, *args)
    except ValueError as exc:
        built[title] = Report(title, (stage_failure(title, exc),))
        return built[title]


def run(title: str, *args) -> Report:
    """The result of stage ``title`` on ``STRUCTURE`` and ``args``, its inputs
    built first, each once.  A ValueError from any of these builds makes it
    one failed check named ``title``."""
    return _run(STRUCTURE, title, {}, *args)


def _certificate(st: Structure) -> Report:
    # the ``CERTIFICATE`` stages in one run; a stage that failed is read as its failed report
    built: dict = {}
    return Report("full verification certificate", (), {}, tuple(_run(st, t, built) for t in CERTIFICATE))


def verify_all() -> Report:
    """The ``CERTIFICATE`` stages in one run on ``STRUCTURE``."""
    return run("full verification certificate")
