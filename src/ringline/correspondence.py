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
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import gf2, golden
from .golden import c_label
from .pauli import (
    MerminResult,
    PauliOp,
    commutes,
    commutation_table,
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
    build_gq_from_graph,
    enumerate_hyperplanes,
    enumerate_ovoids,
    enumerate_spreads,
    is_strongly_regular,
    mask_isomorphism,
    mask_maps_onto,
    petersen_graph,
    triangles,
    validate_gq_axioms,
)
from .rings import ring_by_name, units, validate_ring, zero_divisors

__all__ = [
    "CheckResult",
    "Report",
    "stage_failure",
    "neighbor_graph",
    "canonical_gq",
    "canonical_hyperplanes",
    "canonical_spreads",
    "geometric_signs",
    "operator_signs",
    "STANDARD_ROWS",
    "quadrangle_axioms",
    "petersen_witness",
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
    "perp_subline_check",
    "verify_perp_sublines",
    "grid_mermin_arrangement",
    "verify_mermin",
    "verify_mub",
    "verify_transitivity",
    "trinity_report",
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
        return {
            "schema": 1,
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "data": dict(self.data),
            "subreports": [r.to_json_dict() for r in self.subreports],
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
    """The failed check reported when ``stage`` raises instead of answering.

    The pauli layer raises ValueError when operators break a precondition,
    such as a quadrangle line whose operators do not commute.  With wrong
    operator labels that is a failed verification, named by the stage's
    check and carrying the message, not a traceback.
    """
    return CheckResult(stage, False, f"raised ValueError: {exc}")


def _cset(ids: Iterable[int]) -> str:
    return "{" + ",".join(c_label(i) for i in sorted(ids)) + "}"


@lru_cache(maxsize=None)
def neighbor_graph() -> Graph:
    """The neighbor graph on point labels 1..15, read off the geometric sign
    matrix; the fixture is only compared against, never built on."""
    return signs_graph(geometric_signs(), first=1)


@lru_cache(maxsize=None)
def canonical_gq() -> IncidenceStructure:
    """The quadrangle recovered from the neighbor graph; points are 1..15."""
    return build_gq_from_graph(neighbor_graph())


@lru_cache(maxsize=None)
def canonical_hyperplanes():
    return enumerate_hyperplanes(canonical_gq())


@lru_cache(maxsize=None)
def canonical_spreads():
    return enumerate_spreads(canonical_gq())


@lru_cache(maxsize=None)
def _m2f2_sub() -> tuple[ProjectiveLine, PointClass, PointClass, tuple[PointClass, ...]]:
    """The m2f2 line with its two base points and the ordered 15 points."""
    line = enumerate_line(ring_by_name("m2f2"))
    u = line.class_of((line.ring.one, line.ring.zero))
    v = line.class_of((line.ring.zero, line.ring.one))
    fam_distant, fam_neighbor = simultaneous_subconfig(line, u, v)
    return line, u, v, fam_distant + fam_neighbor


@lru_cache(maxsize=None)
def geometric_signs() -> tuple[str, ...]:
    """The 15x15 relation matrix computed from the ring geometry."""
    line, _, _, pts = _m2f2_sub()
    return induced_signs(line, pts)


def operator_signs() -> tuple[str, ...]:
    """The 15x15 matrix computed from operator commutation, same encoding."""
    return signs_from_commutation(commutation_table(standard_labeling()))


def _ops_for(labels: Iterable[int]) -> list[PauliOp]:
    ops = standard_labeling()
    return [ops[i - 1] for i in labels]


# ---------------------------------------------------------------------------
# ring and line level


def verify_ring_tables() -> Report:
    """Generated 2x2-matrix-ring tables against the stored fixture."""
    ring = ring_by_name("m2f2")
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
            units(ring) == golden.M2F2_UNITS,
            "{" + ",".join(str(u) for u in sorted(units(ring))) + "}",
        ),
        CheckResult(
            "zero divisor count",
            len(zero_divisors(ring)) == 10 and ring.zero in zero_divisors(ring),
            "10 including zero",
        ),
    ]
    for name in ("m2f2", "gf2", "gf4", "gf2xgf2", "gf2dual"):
        problems = validate_ring(ring_by_name(name))
        checks.append(
            CheckResult(
                f"ring axioms hold for {name}",
                not problems,
                problems[0] if problems else "exhaustive",
            )
        )
    return Report("ring construction", tuple(checks))


def verify_line_census() -> Report:
    """Point counts and orbit structure of the projective lines."""
    checks = []
    line = enumerate_line(ring_by_name("m2f2"))
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
                "35 distinct orbits",
            )
        )
    counts = {"gf2": 3, "gf4": 5, "gf2xgf2": 9, "gf2dual": 6}
    for name, want in counts.items():
        small = enumerate_line(ring_by_name(name))
        checks.append(
            CheckResult(f"{want} points over {name}", len(small.points) == want)
        )
    gf4_line = enumerate_line(ring_by_name("gf4"))
    all_distant = all(
        gf4_line.relation[i][j] == DISTANT
        for i in range(5)
        for j in range(5)
        if i != j
    )
    checks.append(CheckResult("gf4 line pairwise distant", all_distant))
    dual_line = enumerate_line(ring_by_name("gf2dual"))
    npairs = sum(
        1
        for i in range(6)
        for j in range(i + 1, 6)
        if dual_line.relation[i][j] == NEIGHBOR
    )
    checks.append(CheckResult("gf2dual line has 3 neighbor pairs", npairs == 3))
    return Report("line census", tuple(checks))


def verify_subconfig() -> Report:
    """The 15-point sub-configuration seen from the two standard base points."""
    line, u, v, pts = _m2f2_sub()
    fam_distant, fam_neighbor = pts[:6], pts[6:]
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
    signs = geometric_signs()
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
    g = neighbor_graph()
    tris = triangles(g)
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


def verify_relation_signs(reference: Sequence[str] | None = None) -> Report:
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
        geo = geometric_signs()
        ops = operator_signs()
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


@lru_cache(maxsize=None)
def _kept_isomorphism(gadj: tuple[int, ...], hadj: tuple[int, ...]) -> Mapping | None:
    # derived structure: searched once per pair of graphs, so the mapping is read-only
    iso = mask_isomorphism(gadj, hadj)
    return None if iso is None else MappingProxyType(iso)


def _checked_isomorphism(gadj: Sequence[int], hadj: Sequence[int]) -> Mapping | None:
    """An isomorphism {i: w} between two graphs given by adjacency masks, as
    ``mask_isomorphism`` takes them, or None.  The search runs once per pair
    of mask tuples; every call checks the kept mapping with ``mask_maps_onto``."""
    gadj, hadj = tuple(gadj), tuple(hadj)
    iso = _kept_isomorphism(gadj, hadj)
    return iso if iso is not None and mask_maps_onto(iso, gadj, hadj) else None


def quadrangle_axioms() -> tuple[list[str], Mapping | None]:
    """Axiom violations of ``canonical_gq()`` and a self-duality isomorphism
    (or None): a checked isomorphism of the two collinearity graphs that
    carries every line onto a dual line."""
    s = canonical_gq()
    d = s.dual_structure
    iso = _checked_isomorphism(s.collinearity_graph.masks, d.collinearity_graph.masks)
    if iso is not None:
        iso = {s.points[i]: d.points[w] for i, w in iso.items()}
        if {frozenset(map(iso.get, line)) for line in s.lines} != set(d.lines):
            iso = None
    return validate_gq_axioms(s), iso


def verify_gq_structure() -> Report:
    g = neighbor_graph()
    checks = [
        CheckResult(
            "neighbor graph strongly regular (15,6,1,3)",
            is_strongly_regular(g, 15, 6, 1, 3),
        )
    ]
    data: dict = {}
    try:
        s = canonical_gq()
    except ValueError as e:
        checks.append(CheckResult("triangles recover a quadrangle", False, str(e)))
        return Report("quadrangle structure", tuple(checks), data)
    checks.append(
        CheckResult(
            "15 points and 15 lines",
            len(s.points) == 15 and len(s.lines) == 15,
        )
    )
    problems, iso = quadrangle_axioms()
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


def verify_hyperplane_census() -> Report:
    s = canonical_gq()
    planes = canonical_hyperplanes()
    by_kind = {OVOID: [], PERP_SET: [], GRID: []}
    for h in planes:
        by_kind[h.kind].append(h)
    checks = [
        CheckResult(
            f"{golden.OVOID_SPREAD_COUNT} ovoids",
            len(by_kind[OVOID]) == golden.OVOID_SPREAD_COUNT,
        ),
        CheckResult("15 perp sets", len(by_kind[PERP_SET]) == 15),
        CheckResult("10 grids", len(by_kind[GRID]) == 10),
        CheckResult("31 hyperplanes in total", len(planes) == 31),
    ]
    direct_ovoids = enumerate_ovoids(s)
    checks.append(
        CheckResult(
            "direct ovoid search agrees",
            {h.points for h in direct_ovoids} == {h.points for h in by_kind[OVOID]},
        )
    )
    spreads = canonical_spreads()
    checks.append(
        CheckResult(
            f"{golden.OVOID_SPREAD_COUNT} spreads",
            len(spreads) == golden.OVOID_SPREAD_COUNT,
        )
    )
    dual_ovoids = enumerate_ovoids(s.dual_structure)
    checks.append(
        CheckResult(
            "spreads are the ovoids of the dual",
            {h.points for h in dual_ovoids} == {frozenset(sp) for sp in spreads},
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


def _subline_witness(masks: Sequence[int], target: str) -> Mapping | None:
    """An isomorphism from the graph of the neighbor ``masks`` of some m2f2
    points (``induced_neighbor_masks``) onto the line over ``target``, or None."""
    return _checked_isomorphism(masks, enumerate_line(ring_by_name(target)).neighbor_masks)


def petersen_witness(ovoid: frozenset[int]) -> dict | None:
    """An isomorphism from the collinearity graph off ``ovoid`` onto
    ``petersen_graph()``, or None; one proves the complement cubic with
    girth 5."""
    s, reference = canonical_gq(), petersen_graph()
    # the positions of the points off the ovoid, renumbered 0..9 by ``at``
    keep = [i for i, p in enumerate(s.points) if p not in ovoid]
    at, off = {j: b for b, j in enumerate(keep)}, sum(1 << j for j in keep)
    masks = s.collinearity_graph.masks
    iso = _checked_isomorphism(
        [sum(1 << at[j] for j in gf2.bits(masks[i] & off)) for i in keep], reference.masks
    )
    if iso is None:
        return None
    return {s.points[keep[i]]: reference.vertices[w] for i, w in iso.items()}


def verify_petersen() -> Report:
    """Every ovoid complement is the Petersen graph, with explicit witnesses."""
    checks = []
    data: dict = {"witnesses": []}
    for h in canonical_hyperplanes():
        if h.kind != OVOID:
            continue
        witness = petersen_witness(h.points)
        checks.append(
            CheckResult(
                f"complement of {_cset(h.points)} is Petersen",
                witness is not None,
                "3-regular, girth 5, isomorphism found" if witness is not None else "",
            )
        )
        if witness is not None:
            data["witnesses"].append(
                {
                    "ovoid": sorted(h.points),
                    "mapping": [[p, list(q)] for p, q in sorted(witness.items())],
                }
            )
    reference = petersen_graph()
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


def standard_square() -> MerminResult:
    """The Mermin check of the operators on the ``STANDARD_ROWS`` grid."""
    return mermin_square_check([_ops_for(r) for r in STANDARD_ROWS])


def verify_split_9_6() -> Report:
    """The 15 points split as 9 + 6 around the two base points.

    The nine points neighboring both base points carry the relation of the
    line over gf2xgf2; the six distant ones split into two triples, each
    completing the base pair to a copy of the line over gf4, with every
    cross pair a neighbor.
    """
    line, u, v, pts = _m2f2_sub()
    fam_distant, fam_neighbor = pts[:6], pts[6:]
    checks = []
    data: dict = {}

    nine = induced_neighbor_masks(line, fam_neighbor)
    grid_line = enumerate_line(ring_by_name("gf2xgf2"))
    iso = _subline_witness(nine, "gf2xgf2")
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
    balance = all(mask.bit_count() == 4 for mask in nine)
    checks.append(
        CheckResult(
            "each of the nine has 4 neighbor and 4 distant partners inside",
            balance,
            "diagonal counted as self-neighbor",
        )
    )

    splits = []
    for combo in itertools.combinations(range(6), 3):
        if 0 not in combo:
            continue
        first = [fam_distant[i] for i in combo]
        second = [fam_distant[i] for i in range(6) if i not in combo]
        cross_ok = all(
            line.relation_of(p, q) == NEIGHBOR for p in first for q in second
        )
        if not cross_ok:
            continue
        if all(
            _subline_witness(induced_neighbor_masks(line, t + [u, v]), "gf4") is not None
            for t in (first, second)
        ):
            labels = (
                frozenset(i + 1 for i in combo),
                frozenset(i + 1 for i in range(6) if i not in combo),
            )
            splits.append(labels)
    checks.append(
        CheckResult(
            "exactly one split of the six into two gf4 triples",
            len(splits) == 1,
            " and ".join(_cset(t) for t in splits[0]) if len(splits) == 1 else
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

    stage = "nine common neighbors in standard rows form a magic square"
    data["mermin_rows"] = [list(r) for r in STANDARD_ROWS]
    try:
        result = standard_square()
    except ValueError as exc:
        checks.append(stage_failure(stage, exc))
    else:
        checks.append(
            CheckResult(
                stage,
                result.magic,
                f"row signs {result.row_signs}, column signs {result.col_signs}",
            )
        )
        data["mermin_row_signs"] = list(result.row_signs)
        data["mermin_col_signs"] = list(result.col_signs)
    return Report("9 plus 6 factorization", tuple(checks), data)


def verify_split_10_5(petersen: Report | None = None) -> Report:
    """Every ovoid versus its ten-point complement.  The Petersen verdicts
    are read from ``petersen``, the ``verify_petersen()`` report of the same
    run, which is made here when not given."""
    petersen = verify_petersen() if petersen is None else petersen
    witnessed = {frozenset(w["ovoid"]) for w in petersen.data["witnesses"]}
    line, _, _, pts = _m2f2_sub()
    checks = []
    data: dict = {"ovoids": []}
    ovoids = [h for h in canonical_hyperplanes() if h.kind == OVOID]
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
            _cset(golden.SAMPLE_OVOID),
        )
    )
    for h in ovoids:
        labels = sorted(h.points)
        five_ops = _ops_for(labels)
        noncommuting = all(
            not commutes(a, b) for a, b in itertools.combinations(five_ops, 2)
        )
        five = induced_neighbor_masks(line, [pts[i - 1] for i in labels])
        subline = _subline_witness(five, "gf4") is not None
        checks.append(
            CheckResult(
                f"ovoid {_cset(labels)}",
                noncommuting and subline and h.points in witnessed,
                "pairwise non-commuting, gf4 subline, Petersen complement",
            )
        )
        data["ovoids"].append(labels)
    return Report("10 plus 5 factorization", tuple(checks), data)


def perp_subline_check(x: int) -> Report:
    """The six points neighboring ``x``: pairing and subline structure."""
    if not 1 <= x <= 15:
        raise ValueError(f"point label {x} out of range 1..15")
    line, _, _, pts = _m2f2_sub()
    g = neighbor_graph()
    nbrs = sorted(g.neighbors(x))
    checks = [CheckResult("six neighbors", len(nbrs) == 6, _cset(nbrs))]
    pairs = [
        (p, q)
        for p, q in itertools.combinations(nbrs, 2)
        if g.has_edge(p, q)
    ]
    matching = len(pairs) == 3 and sorted(
        itertools.chain.from_iterable(pairs)
    ) == nbrs
    checks.append(
        CheckResult(
            "neighbor pairs form a perfect matching of three",
            matching,
            " ".join(_cset(p) for p in pairs),
        )
    )
    checks.append(
        CheckResult(
            "models the line over gf2dual",
            _subline_witness(induced_neighbor_masks(line, [pts[i - 1] for i in nbrs]), "gf2dual")
            is not None,
        )
    )
    hp = [
        h
        for h in canonical_hyperplanes()
        if h.kind == PERP_SET and h.center == x
    ]
    checks.append(
        CheckResult(
            "center plus neighbors is a perp-set hyperplane",
            len(hp) == 1 and hp[0].points == frozenset(nbrs) | {x},
        )
    )
    data = {"center": x, "neighbors": nbrs, "pairs": [list(p) for p in pairs]}
    return Report(f"perp set of {c_label(x)}", tuple(checks), data)


def verify_perp_sublines() -> Report:
    """All fifteen perp sets at once, one line of certificate per center."""
    checks = []
    data: dict = {"pairs": {}}
    for x in range(1, 16):
        sub = perp_subline_check(x)
        pairs = sub.data["pairs"]
        checks.append(
            CheckResult(
                f"perp set of {c_label(x)}",
                sub.passed,
                " ".join(_cset(p) for p in pairs),
            )
        )
        data["pairs"][str(x)] = pairs
    return Report("perp-set sublines", tuple(checks), data)


# ---------------------------------------------------------------------------
# magic squares, unbiased bases, transitivity


def _parallel_classes(lines: Sequence[frozenset]) -> tuple[list[frozenset], list[frozenset]] | None:
    """Split six grid lines into two classes of three pairwise-disjoint lines."""
    if len(lines) != 6:
        return None
    first = lines[0]
    cls1 = [l for l in lines if l == first or not (l & first)]
    cls2 = [l for l in lines if l != first and (l & first)]
    if len(cls1) != 3 or len(cls2) != 3:
        return None
    for cls in (cls1, cls2):
        for a, b in itertools.combinations(cls, 2):
            if a & b:
                return None
    return cls1, cls2


def grid_mermin_arrangement(points: frozenset) -> tuple[tuple[int, ...], ...] | None:
    """A magic 3x3 arrangement of a grid hyperplane, or None.

    Rows and columns must be the two parallel classes of the grid's six
    lines.  Every arrangement has the same six lines, so it is consistent
    (each row meets each column in one point) when one is, and, since a
    line's sign does not depend on the order of its commuting operators,
    magic when one is.  The arrangement with the lexicographically least
    flattened label tuple is evaluated once and returned if magic, making
    the result deterministic.  It is built directly: in either class order,
    the row and column through the grid's least point come first, the other
    columns follow by their meet with that row and the other rows by their
    meet with that column; the smaller of the two flattened tuples wins.
    """
    s = canonical_gq()
    inside = [line for line in s.lines if line <= points]
    classes = _parallel_classes(inside)
    if classes is None:
        return None
    rows_cls, cols_cls = classes
    if any(len(r & c) != 1 for r in rows_cls for c in cols_cls):
        return None
    least = min(points)

    def flattened(rows: list[frozenset], cols: list[frozenset]) -> tuple[int, ...]:
        first_row = next(r for r in rows if least in r)
        cols = sorted(cols, key=lambda c: min(c & first_row))
        rows = sorted(rows, key=lambda r: min(r & cols[0]))
        return tuple(min(r & c) for r in rows for c in cols)

    best = min(flattened(*classes), flattened(*classes[::-1]))
    grid = (best[0:3], best[3:6], best[6:9])
    return grid if mermin_square_check([_ops_for(r) for r in grid]).magic else None


def verify_mermin() -> Report:
    """Magic squares: the standard grid and all ten grid hyperplanes."""
    stage = "standard grid is magic"
    data: dict = {"standard_rows": [list(r) for r in STANDARD_ROWS]}
    try:
        result = standard_square()
    except ValueError as exc:
        checks = [stage_failure(stage, exc)]
    else:
        checks = [
            CheckResult(
                stage,
                result.magic,
                f"row signs {result.row_signs}, column signs {result.col_signs}, "
                "product of all six is -1",
            )
        ]
        data["row_signs"] = list(result.row_signs)
        data["col_signs"] = list(result.col_signs)
    data["arrangements"] = []
    grids = [h for h in canonical_hyperplanes() if h.kind == GRID]
    checks.append(CheckResult("10 grid hyperplanes", len(grids) == 10))
    for h in grids:
        stage = f"grid {_cset(h.points)} admits a magic arrangement"
        try:
            arrangement = grid_mermin_arrangement(h.points)
        except ValueError as exc:
            checks.append(stage_failure(stage, exc))
            continue
        checks.append(
            CheckResult(
                stage,
                arrangement is not None,
                " / ".join(
                    ",".join(c_label(i) for i in row) for row in arrangement
                )
                if arrangement
                else "",
            )
        )
        if arrangement is not None:
            data["arrangements"].append(
                {"grid": sorted(h.points), "rows": [list(r) for r in arrangement]}
            )
    return Report("magic squares", tuple(checks), data)


def spread_unbiased(spread: Sequence[int]) -> tuple[list[list[int]], bool]:
    """The spread's lines as sorted label triples, and whether their
    operators' joint eigenbases are mutually unbiased."""
    s = canonical_gq()
    triples = [sorted(s.lines[i]) for i in spread]
    return triples, mub_spread_check([_ops_for(t) for t in triples])


def verify_mub() -> Report:
    """Every spread's five commuting triples give mutually unbiased bases."""
    checks = []
    data: dict = {"spreads": []}
    spreads = canonical_spreads()
    checks.append(
        CheckResult(
            f"{golden.OVOID_SPREAD_COUNT} spreads to examine",
            len(spreads) == golden.OVOID_SPREAD_COUNT,
        )
    )
    s = canonical_gq()
    for sp in spreads:
        stage = "spread " + " ".join(_cset(s.lines[i]) for i in sp)
        try:
            triples, ok = spread_unbiased(sp)
        except ValueError as exc:
            checks.append(stage_failure(stage, exc))
            continue
        checks.append(
            CheckResult(stage, ok, "projector traces exact" if ok else "")
        )
        data["spreads"].append([list(t) for t in triples])
    return Report("unbiased bases", tuple(checks), data)


def verify_transitivity() -> Report:
    """The invertible group is transitive on ordered pairwise-distant
    triples, each witnessed, and has order orbit x stabilizer, the stabilizer
    being the diag(r, s) over units with (r, s) in the class of (1, 1)."""
    line = _m2f2_sub()[0]
    ring = line.ring
    distant = line.distant_masks
    triples = sum((d & distant[j]).bit_count() for d in distant for j in gf2.bits(d))
    witnesses, failures = distant_triple_witnesses(line)
    witnessed = sum(mask.bit_count() for mask in witnesses.values())
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
        "distant_pairs": sum(d.bit_count() for d in distant),
        "triples": triples,
        "stabilizer": stabilizer,
    }
    return Report("transitivity of the invertible group", tuple(checks), data)


def trinity_report(petersen: Report | None = None) -> Report:
    """The three-way table: hyperplane kind, subline model, operator meaning.

    Each row is backed by the dedicated checks; this report re-runs them and
    presents the counts side by side.  ``petersen`` is passed on to
    ``verify_split_10_5``.
    """
    ovoid_rep = verify_split_10_5(petersen)
    perp_rep = verify_perp_sublines()
    mermin_rep = verify_mermin()
    mub_rep = verify_mub()
    planes = canonical_hyperplanes()
    counts = {
        kind: sum(1 for h in planes if h.kind == kind)
        for kind in (OVOID, PERP_SET, GRID)
    }
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
            len(canonical_spreads()) == golden.OVOID_SPREAD_COUNT and mub_rep.passed,
        ),
    ]
    data = {
        "rows": [
            {
                "hyperplane": OVOID,
                "count": counts[OVOID],
                "subline": "gf4",
                "operators": "five mutually non-commuting",
            },
            {
                "hyperplane": PERP_SET,
                "count": counts[PERP_SET],
                "subline": "gf2dual",
                "operators": "six commuting with a common one",
            },
            {
                "hyperplane": GRID,
                "count": counts[GRID],
                "subline": "gf2xgf2",
                "operators": "magic three by three square",
            },
        ],
        "spreads": len(canonical_spreads()),
    }
    return Report(
        "hyperplane trinity",
        tuple(checks),
        data,
        (ovoid_rep, perp_rep, mermin_rep, mub_rep),
    )


def verify_all() -> Report:
    """Every verification pass in one certificate.

    The trinity block already contains the ovoid, perp-set, magic-square
    and unbiased-bases passes as subreports, so those are not repeated at
    the top level; its ovoid pass reads the Petersen report, so each Petersen
    mapping is checked once.
    """
    return Report(
        "full verification certificate",
        (),
        {},
        (
            verify_ring_tables(),
            verify_line_census(),
            verify_subconfig(),
            verify_relation_signs(),
            verify_gq_structure(),
            verify_hyperplane_census(),
            (petersen := verify_petersen()),
            verify_split_9_6(),
            trinity_report(petersen),
            verify_transitivity(),
        ),
    )
