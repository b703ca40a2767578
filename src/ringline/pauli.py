"""Exact two-qubit Pauli algebra.

An operator is encoded symplectically as four bits (z1, x1, z2, x2), one
(z, x) pair per tensor factor: (0,0) is the identity factor, (0,1) sigma_x,
(1,0) sigma_z and (1,1) sigma_y.  Two operators commute exactly when the
alternating form z1*x1' + x1*z1' + z2*x2' + x2*z2' vanishes mod 2.

Products carry a phase in {1, i, -1, -i}, stored as the exponent k of i**k.
Everything is integer arithmetic; no floating point or rational appears
anywhere.  The Mermin-square signs are exact, and so is the
projector-trace criterion for mutually unbiased bases, because the
projectors are kept scaled by 4 with integer coefficients.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple, Sequence

from .golden import OPERATOR_LABELS

__all__ = [
    "PauliOp",
    "PhasedPauli",
    "IDENTITY",
    "commutes",
    "multiply",
    "standard_labeling",
    "commutation_table",
    "signs_from_commutation",
    "line_product_sign",
    "line_facts",
    "MerminResult",
    "mermin_square_check",
    "mub_spread_check",
]

# One-qubit factor codes are two bits z<<1 | x: 0 = identity, 1 = X,
# 2 = Z, 3 = Y.
_FACTOR_CHARS = "1XZY"

# (phase exponent, result code) for each ordered pair of one-qubit factors:
# sigma_a sigma_b = delta_ab 1 + i eps_abc sigma_c, e.g. XY = iZ, YX = -iZ.
_MUL1 = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (0, 0), (3, 3), (1, 2)),
    ((0, 2), (1, 3), (0, 0), (3, 1)),
    ((0, 3), (3, 2), (1, 1), (0, 0)),
)

_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}

# the codes of the fifteen operators as ``sorted`` lists a partition of them
_CODES = list(range(1, 16))


class _PauliFields(NamedTuple):
    code: int


class PauliOp(_PauliFields):
    """A non-identity two-qubit Pauli operator, phase-free; ordered by code.

    ``code`` packs the symplectic label z1 x1 z2 x2 into four bits
    (z1 is the high bit); 0 would be the identity and is not allowed here.
    """

    __slots__ = ()

    def __new__(cls, code: int) -> PauliOp:
        if not 1 <= code <= 15:
            raise ValueError(f"Pauli code must be in 1..15, got {code}")
        return tuple.__new__(cls, (code,))

    @classmethod
    def from_label(cls, text: str) -> PauliOp:
        """Parse a two-character factor string such as "ZX" or "1Y"."""
        if len(text) != 2 or any(ch not in _FACTOR_CHARS for ch in text):
            raise ValueError(f"bad Pauli label {text!r}")
        f1, f2 = (_FACTOR_CHARS.index(ch) for ch in text)
        if f1 == 0 and f2 == 0:
            raise ValueError("the identity is not a PauliOp; use PhasedPauli")
        return cls(f1 << 2 | f2)

    @property
    def factors(self) -> tuple[int, int]:
        return (self.code >> 2, self.code & 3)

    @property
    def label(self) -> str:
        f1, f2 = self.factors
        return _FACTOR_CHARS[f1] + _FACTOR_CHARS[f2]

    def __repr__(self) -> str:
        return f"PauliOp({self.label})"


class _PhasedFields(NamedTuple):
    phase_k: int
    body: PauliOp | None


class PhasedPauli(_PhasedFields):
    """i**phase_k times a Pauli body; body None stands for the identity.
    ``phase_k`` is stored mod 4."""

    __slots__ = ()

    def __new__(cls, phase_k: int, body: PauliOp | None) -> PhasedPauli:
        return tuple.__new__(cls, (phase_k % 4, body))

    def to_string(self) -> str:
        label = "11" if self.body is None else self.body.label
        return _PHASE_PREFIX[self.phase_k] + label

    def __repr__(self) -> str:
        return f"PhasedPauli({self.to_string()})"


IDENTITY = PhasedPauli(0, None)


def _as_phased(op: PauliOp | PhasedPauli) -> PhasedPauli:
    return op if isinstance(op, PhasedPauli) else PhasedPauli(0, op)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """Alternating-form test; exact: the parity of the bits ``a`` shares
    with ``b`` once z and x are swapped in each of ``b``'s factors."""
    swapped = (b.code & 0b1010) >> 1 | (b.code & 0b0101) << 1
    return not (a.code & swapped).bit_count() & 1


def _mul_codes(p: int, q: int) -> tuple[int, int]:
    # Factor-wise product of two 4-bit bodies (0 allowed = identity);
    # returns (phase exponent, result code).
    k1, f1 = _MUL1[p >> 2][q >> 2]
    k2, f2 = _MUL1[p & 3][q & 3]
    return (k1 + k2) % 4, f1 << 2 | f2


def multiply(a: PauliOp | PhasedPauli, b: PauliOp | PhasedPauli) -> PhasedPauli:
    """Exact product; phases multiply in {1, i, -1, -i}."""
    a = _as_phased(a)
    b = _as_phased(b)
    pa = 0 if a.body is None else a.body.code
    pb = 0 if b.body is None else b.body.code
    k, code = _mul_codes(pa, pb)
    return PhasedPauli(a.phase_k + b.phase_k + k, PauliOp(code) if code else None)


@lru_cache(maxsize=None)
def standard_labeling() -> tuple[PauliOp, ...]:
    """The fixed operator dictionary: entry i is the operator of C_{i+1}."""
    return tuple(PauliOp.from_label(s) for s in OPERATOR_LABELS)


def commutation_table(labeling: Sequence[PauliOp]) -> tuple[tuple[bool, ...], ...]:
    """Boolean matrix, entry (i, j) True when operators i and j do NOT
    commute; the diagonal is False."""
    return tuple(
        tuple(not commutes(a, b) for b in labeling) for a in labeling
    )


def signs_from_commutation(table: Sequence[Sequence[bool]]) -> tuple[str, ...]:
    """Rows of "+"/"-" strings: "+" marks a non-commuting pair."""
    return tuple("".join("+" if flag else "-" for flag in row) for row in table)


def line_product_sign(triple: Sequence[PauliOp]) -> int:
    """The sign of the product of a commuting triple whose product is
    proportional to the identity.

    Raises ValueError if the triple is not three distinct pairwise-commuting
    operators or its product is not plus or minus the identity.
    """
    ops = tuple(triple)
    if len(ops) != 3 or len(set(ops)) != 3:
        raise ValueError("expected three distinct operators")
    for a, b in itertools.combinations(ops, 2):
        if not commutes(a, b):
            raise ValueError(f"{a.label} and {b.label} do not commute")
    k1, code = _mul_codes(ops[0].code, ops[1].code)
    k2, code = _mul_codes(code, ops[2].code)
    k = (k1 + k2) % 4
    if code:
        prod = PhasedPauli(k, PauliOp(code)).to_string()
        raise ValueError(f"product is {prod}, not proportional to the identity")
    if k % 2:
        raise ValueError(f"product phase {PhasedPauli(k, None).to_string()} is imaginary")
    return 1 if k == 0 else -1


class MerminResult(NamedTuple):
    """Signs of the three rows and three columns of a 3x3 operator grid;
    ``magic`` means the six signs multiply to -1."""

    row_signs: tuple[int, int, int]
    col_signs: tuple[int, int, int]

    @property
    def magic(self) -> bool:
        return (self.row_signs + self.col_signs).count(-1) % 2 == 1


def mermin_square_check(grid: Sequence[Sequence], sign=None) -> MerminResult:
    """Evaluate a 3x3 grid of operators as a Mermin square.

    Every row and every column must be a commuting triple with product
    plus or minus the identity; violations raise ValueError naming the
    offending row or column.  ``sign`` gives a row's or column's sign or
    raises, ``line_product_sign`` by default; a caller that keeps the signs
    of its lines passes a grid of its own keys and a lookup.
    """
    rows = tuple(map(tuple, grid))
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("expected a 3x3 grid of operators")
    sign, signs = sign or line_product_sign, []
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        for i, ops in enumerate(lines, start=1):
            try:
                signs.append(sign(ops))
            except ValueError as exc:
                raise ValueError(f"{kind} {i}: {exc}") from None
    return MerminResult(tuple(signs[:3]), tuple(signs[3:]))


# A projector is kept scaled by 4 as a combination of four Pauli bodies,
# each with coefficient +1 or -1, so it is two 16-bit masks over body codes
# (0 = identity): the bodies present and those with coefficient -1.  Every
# trace of a product then scales by 16 and is an integer.


def _eigenbasis(a: int, b: int) -> tuple[tuple[int, int], ...]:
    # 4 times each joint eigenprojector of distinct commuting A, B, by their
    # codes, onto the eigenvalues (1, 1), (1, -1), (-1, 1), (-1, -1):
    # (1 + sa A)(1 + sb B) = 1 + sa A + sb B + sa sb AB, one product for all
    # four.  AB = i**k C with k even, because commuting A and B make AB
    # Hermitian, so i**k is (-1)**(k // 2) and every coefficient is real.
    k, c = _mul_codes(a, b)
    support, both = 1 | 1 << a | 1 << b | 1 << c, (k >> 1) << c
    one = both ^ 1 << c
    return (support, both), (support, one | 1 << b), (support, one | 1 << a), (support, both | 1 << a | 1 << b)


def line_facts(triple: Sequence[PauliOp]) -> tuple[int | ValueError, tuple]:
    """What the MUB and Mermin checks need of a line: its sign, or the
    ValueError ``line_product_sign`` raises on it, and for a sign the four
    scaled projectors of the joint eigenbasis of its two lowest codes."""
    try:
        sign = line_product_sign(triple)
    except ValueError as exc:
        return exc, ()
    a, b, _ = sorted(op.code for op in triple)
    return sign, _eigenbasis(a, b)


def _trace_matrix(xs: Sequence[tuple[int, int]], ys: Sequence[tuple[int, int]]) -> list[list[int]]:
    # Tr(x y) for each projector x of one basis and y of another.  All of a
    # basis's projectors carry the same bodies S, and Tr(sigma_p sigma_q) is
    # 4 when p == q (bodies square to 1) and 0 otherwise: each shared body
    # adds 4 times the product of its two signs, -4 where they differ.
    shared = xs[0][0] & ys[0][0]
    size = shared.bit_count()
    return [[4 * (size - 2 * ((nx ^ ny) & shared).bit_count()) for _, ny in ys] for _, nx in xs]


def _orthonormal(xs: Sequence[tuple[int, int]]) -> bool:
    # _trace_matrix(xs, xs) is 16 on the diagonal and 0 off it: the traces
    # 4 |S| and 4 (|S| - 2 k) ask for 4 bodies, any two projectors
    # differing in sign on k = 2 of them
    shared = xs[0][0]
    if shared.bit_count() != 4:
        return False
    for (_, nx), (_, ny) in itertools.combinations(xs, 2):
        if ((nx ^ ny) & shared).bit_count() != 2:
            return False
    return True


def _unbiased(xs: Sequence[tuple[int, int]], ys: Sequence[tuple[int, int]]) -> bool:
    # every entry of _trace_matrix(xs, ys) is 4; when each basis's signs
    # agree on the shared bodies, all 16 entries are one popcount's
    shared = xs[0][0] & ys[0][0]
    nx, ny, loose = xs[0][1], ys[0][1], 0
    for _, n in xs:
        loose |= n ^ nx
    for _, n in ys:
        loose |= n ^ ny
    if loose & shared:
        return _trace_matrix(xs, ys) == [[4] * 4] * 4
    return shared.bit_count() - 2 * ((nx ^ ny) & shared).bit_count() == 1


def mub_spread_check(spread: Sequence[Sequence[PauliOp]], facts: Sequence | None = None) -> bool:
    """Exact mutual-unbiasedness test for five commuting triples.

    Preconditions (violations raise ValueError): five triples, each three
    distinct pairwise-commuting operators with product plus or minus the
    identity, together partitioning all fifteen operators.  The joint
    eigenbases then must satisfy, via exact projector traces,
    Tr(P P') = 1 or 0 within a basis and Tr(P Q) = 1/4 across bases
    (checked on the projectors scaled by 4, as 16, 0 and 4).  Each scaled
    projector is a pair of body masks (present, coefficient -1), so a trace
    is 4 (|S| - 2 |(n_x ^ n_y) & S|) over the shared bodies S.  ``facts``
    holds ``line_facts`` of each triple when the caller keeps them.
    Returns True iff every trace comes out as required.
    """
    triples = [tuple(t) for t in spread]
    if len(triples) != 5:
        raise ValueError("a spread consists of five triples")
    facts = [line_facts(ops) for ops in triples] if facts is None else facts
    for i, (sign, _) in enumerate(facts, start=1):
        if isinstance(sign, ValueError):
            raise ValueError(f"triple {i}: {sign}")
    codes = [op.code for ops in triples for op in ops]
    if sorted(codes) != _CODES:
        raise ValueError("triples do not partition the fifteen operators")
    bases = [basis for _, basis in facts]
    return all(map(_orthonormal, bases)) and all(itertools.starmap(_unbiased, itertools.combinations(bases, 2)))
