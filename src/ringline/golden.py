"""Hand-checked golden data for the two-qubit configuration.

Everything in this module was transcribed by hand and is deliberately not
computed: it is the reference the computed pipelines are verified against.
Contents: the addition and multiplication tables of the 2x2 matrix ring over
GF(2), its unit set, the canonical point census of its projective line, the
fifteen distinguished point representatives, the 15x15 distant/neighbor sign
matrix, the operator dictionary assigning a two-qubit Pauli operator to
each point, the C1 .. C15 point labels, and the ovoid and spread census.
"""

from __future__ import annotations

__all__ = [
    "M2F2_ADD_TABLE",
    "M2F2_MUL_TABLE",
    "M2F2_UNITS",
    "LINE_CENSUS_REPS",
    "POINT_REPS",
    "CANONICAL_SIGNS",
    "OPERATOR_LABELS",
    "c_label",
    "SAMPLE_OVOID",
    "OVOID_SPREAD_COUNT",
    "TRIPLE_SPLIT",
]

M2F2_ADD_TABLE: tuple[tuple[int, ...], ...] = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14),
    (2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13),
    (3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12),
    (4, 5, 6, 7, 0, 1, 2, 3, 12, 13, 14, 15, 8, 9, 10, 11),
    (5, 4, 7, 6, 1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10),
    (6, 7, 4, 5, 2, 3, 0, 1, 14, 15, 12, 13, 10, 11, 8, 9),
    (7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8),
    (8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7),
    (9, 8, 11, 10, 13, 12, 15, 14, 1, 0, 3, 2, 5, 4, 7, 6),
    (10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5),
    (11, 10, 9, 8, 15, 14, 13, 12, 3, 2, 1, 0, 7, 6, 5, 4),
    (12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3),
    (13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2),
    (14, 15, 12, 13, 10, 11, 8, 9, 6, 7, 4, 5, 2, 3, 0, 1),
    (15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
)

M2F2_MUL_TABLE: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (0, 2, 1, 3, 7, 5, 6, 4, 14, 12, 15, 13, 9, 11, 8, 10),
    (0, 3, 3, 0, 3, 0, 0, 3, 6, 5, 5, 6, 5, 6, 6, 5),
    (0, 4, 4, 0, 4, 0, 0, 4, 14, 10, 10, 14, 10, 14, 14, 10),
    (0, 5, 6, 3, 0, 5, 6, 3, 6, 3, 0, 5, 6, 3, 0, 5),
    (0, 6, 5, 3, 3, 5, 6, 0, 0, 6, 5, 3, 3, 5, 6, 0),
    (0, 7, 7, 0, 7, 0, 0, 7, 8, 15, 15, 8, 15, 8, 8, 15),
    (0, 8, 15, 7, 7, 15, 8, 0, 0, 8, 15, 7, 7, 15, 8, 0),
    (0, 9, 13, 4, 3, 10, 14, 7, 8, 1, 5, 12, 11, 2, 6, 15),
    (0, 10, 14, 4, 0, 10, 14, 4, 14, 4, 0, 10, 14, 4, 0, 10),
    (0, 11, 12, 7, 4, 15, 8, 3, 6, 13, 10, 1, 2, 9, 14, 5),
    (0, 12, 11, 7, 3, 15, 8, 4, 14, 2, 5, 9, 13, 1, 6, 10),
    (0, 13, 9, 4, 7, 10, 14, 3, 6, 11, 15, 2, 1, 12, 8, 5),
    (0, 14, 10, 4, 4, 10, 14, 0, 0, 14, 10, 4, 4, 10, 14, 0),
    (0, 15, 8, 7, 0, 15, 8, 7, 8, 7, 0, 15, 8, 7, 0, 15),
)

M2F2_UNITS: frozenset[int] = frozenset({1, 2, 9, 11, 12, 13})

# Canonical representatives of all 35 points of the m2f2 line, grouped by the
# entry types of the representatives: both units; unit then zero-divisor;
# zero-divisor then unit; both zero-divisors.
LINE_CENSUS_REPS: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 2), (1, 9), (1, 11), (1, 12), (1, 13),
    (1, 0), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 10), (1, 14), (1, 15),
    (0, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (10, 1), (14, 1), (15, 1),
    (3, 4), (3, 10), (3, 14), (5, 4), (5, 10), (5, 14), (6, 4), (6, 10), (6, 14),
)

# The fifteen distinguished points in C-label order: first the six points
# simultaneously distant to both U = (1,0) and V = (0,1), then the nine
# points simultaneously neighbor to both.
POINT_REPS: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 2), (1, 9), (1, 11), (1, 12), (1, 13),
    (3, 4), (3, 10), (3, 14),
    (5, 4), (5, 10), (5, 14),
    (6, 4), (6, 10), (6, 14),
)

# 15x15 sign matrix over the distinguished points, row i / column j giving
# the relation of C_{i+1} to C_{j+1}: "+" distant (operators anticommute),
# "-" neighbor (operators commute); the diagonal is "-".
CANONICAL_SIGNS: tuple[str, ...] = (
    "----++-+++-+++-",
    "--++---++++-+-+",
    "-+-+--+-+-++++-",
    "-++---++-+-+-++",
    "+----++-+++--++",
    "+---+-++--+++-+",
    "--++++----++-++",
    "++-+-+---+-++-+",
    "+++-+----++-++-",
    "++-++--++----++",
    "-++-+++-+---+-+",
    "+-++-+++----++-",
    "+++--+-++-++---",
    "+-+++-+-++-+---",
    "-+-+++++-++----",
)

# Operator dictionary in C-label order; factor characters 1, X, Y, Z stand
# for the identity and the three Pauli matrices, first qubit first.
OPERATOR_LABELS: tuple[str, ...] = (
    "ZX", "YY", "1X", "YZ", "Y1",
    "XX", "XZ", "YX", "ZY", "X1",
    "XY", "1Y", "1Z", "ZZ", "Z1",
)


def c_label(i: int) -> str:
    """Point label used in human-facing output: C1 .. C15."""
    return f"C{i}"


# One known ovoid, an anchor for the 10 + 5 certificate and the tests.
SAMPLE_OVOID: frozenset[int] = frozenset({1, 5, 9, 10, 14})

# The census of the quadrangle: 6 ovoids and, dually, 6 spreads.  The
# verifiers compare the computed lists against it, and the command line
# checks an --ovoid or --spread index against it before computing either.
OVOID_SPREAD_COUNT: int = 6

# The unique way the six common-distant points fall into two triples, each
# completing the base pair to a five-point all-distant subline.  Found by
# search over the sign matrix and frozen here for regression.
TRIPLE_SPLIT: tuple[frozenset[int], frozenset[int]] = (
    frozenset({1, 5, 6}),
    frozenset({2, 3, 4}),
)
