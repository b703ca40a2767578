"""Operator algebra against an independent dense-matrix oracle."""

import itertools
import random

import pytest

from ringline import golden
from ringline.pauli import (
    IDENTITY,
    _basis_facts,
    _eigenbasis,
    _orthonormal,
    _trace_matrix,
    _unbiased,
    MerminResult,
    PauliOp,
    PhasedPauli,
    commutation_table,
    commutes,
    line_facts,
    line_product_sign,
    mermin_square_check,
    mub_spread_check,
    multiply,
    signs_from_commutation,
    standard_labeling,
)

import kernel_oracle as oracle_kernels
import pauli_oracle as oracle
from kernel_oracle import _trace_of_product, expand_projector, product_of, scaled_projector

ALL_OPS = [PauliOp(c) for c in range(1, 16)]


def test_label_round_trip():
    for op in ALL_OPS:
        assert PauliOp.from_label(op.label) == op


def test_bad_labels_rejected():
    for text in ("", "X", "XYZ", "AB", "x1"):
        with pytest.raises(ValueError):
            PauliOp.from_label(text)
    with pytest.raises(ValueError):
        PauliOp.from_label("11")
    with pytest.raises(ValueError):
        PauliOp(0)
    with pytest.raises(ValueError):
        PauliOp(16)


def test_single_qubit_products():
    # XY = iZ and cyclic, reversed order flips the sign
    assert multiply(PauliOp.from_label("X1"), PauliOp.from_label("Y1")).to_string() == "iZ1"
    assert multiply(PauliOp.from_label("Y1"), PauliOp.from_label("Z1")).to_string() == "iX1"
    assert multiply(PauliOp.from_label("Z1"), PauliOp.from_label("X1")).to_string() == "iY1"
    assert multiply(PauliOp.from_label("Y1"), PauliOp.from_label("X1")).to_string() == "-iZ1"
    assert multiply(PauliOp.from_label("1X"), PauliOp.from_label("1X")) == IDENTITY


def test_every_product_matches_matrix_oracle():
    """All 225 ordered products, phase and body both."""
    for a in ALL_OPS:
        for b in ALL_OPS:
            got = multiply(a, b)
            want = oracle.matmul(oracle.mat_for(a), oracle.mat_for(b))
            assert oracle.mat_for_phased(got) == want


def test_commutation_matches_matrix_oracle():
    for a in ALL_OPS:
        for b in ALL_OPS:
            ab = oracle.matmul(oracle.mat_for(a), oracle.mat_for(b))
            ba = oracle.matmul(oracle.mat_for(b), oracle.mat_for(a))
            assert commutes(a, b) == (ab == ba)


def test_product_associative_random():
    rng = random.Random(42)
    for _ in range(1000):
        a, b, c = (PauliOp(rng.randrange(1, 16)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_phased_trace():
    """Tr(i**k 1) is 4 i**k, and every phased non-identity body is traceless."""
    want = ((4, 0), (0, 4), (-4, 0), (0, -4))
    for k in range(4):
        assert oracle.trace(oracle.mat_for_phased(PhasedPauli(k, None))) == want[k]
        for op in ALL_OPS:
            assert oracle.trace(oracle.mat_for_phased(PhasedPauli(k, op))) == oracle.ZERO


def test_standard_labeling_matches_fixture():
    ops = standard_labeling()
    assert tuple(op.label for op in ops) == golden.OPERATOR_LABELS
    assert len(set(ops)) == 15


def test_commutation_table_shape():
    table = commutation_table(standard_labeling())
    for i in range(15):
        assert table[i][i] is False
        for j in range(15):
            assert table[i][j] == table[j][i]


def test_signs_match_fixture():
    signs = signs_from_commutation(commutation_table(standard_labeling()))
    assert signs == golden.CANONICAL_SIGNS


def test_product_of_matches_oracle():
    rng = random.Random(8)
    for _ in range(100):
        ops = [PauliOp(rng.randrange(1, 16)) for _ in range(rng.randrange(0, 5))]
        got = product_of(ops)
        want = oracle.mat_for_label("11")
        for op in ops:
            want = oracle.matmul(want, oracle.mat_for(op))
        assert oracle.mat_for_phased(got) == want


def _ops_for(labels):
    ops = standard_labeling()
    return [ops[i - 1] for i in labels]


def test_line_product_signs():
    # one quadrangle line with sign -1, two with +1
    assert line_product_sign(_ops_for((7, 8, 9))) == -1
    assert line_product_sign(_ops_for((10, 11, 12))) == 1
    assert line_product_sign(_ops_for((1, 2, 7))) == 1


def test_line_product_sign_rejects_bad_triples():
    ops = standard_labeling()
    with pytest.raises(ValueError):
        line_product_sign([ops[0], ops[0], ops[1]])
    # C1 and C5 do not commute
    assert not commutes(ops[0], ops[4])
    with pytest.raises(ValueError):
        line_product_sign([ops[0], ops[4], ops[7]])
    # X1 and ZZ anticommute, so this is not a valid line either
    with pytest.raises(ValueError):
        line_product_sign(
            [PauliOp.from_label("X1"), PauliOp.from_label("1X"), PauliOp.from_label("ZZ")]
        )


def test_mermin_square_standard_grid():
    rows = [(7, 8, 9), (10, 11, 12), (13, 14, 15)]
    result = mermin_square_check([_ops_for(r) for r in rows])
    assert isinstance(result, MerminResult)
    assert result.row_signs == (-1, 1, 1)
    assert result.col_signs == (1, 1, 1)
    assert result.magic


def test_mermin_sign_product_rule():
    rows = [(7, 8, 9), (10, 11, 12), (13, 14, 15)]
    result = mermin_square_check([_ops_for(r) for r in rows])
    product = 1
    for s in result.row_signs + result.col_signs:
        product *= s
    assert product == -1


def test_mermin_rejects_bad_grids():
    ops = standard_labeling()
    with pytest.raises(ValueError):
        mermin_square_check([[ops[0]] * 3] * 3)
    with pytest.raises(ValueError):
        mermin_square_check([[ops[0], ops[1]], [ops[2], ops[3]]])


def _first_bad_line(grid):
    """The row-then-column wording of the first line of ``grid`` that
    ``line_product_sign`` refuses, signing one line at a time, or None."""
    for kind, lines in (("row", grid), ("column", zip(*grid))):
        for i, ops in enumerate(lines, start=1):
            try:
                line_product_sign(ops)
            except ValueError as exc:
                return f"{kind} {i}: {exc}"
    return None


def test_mermin_errors_name_the_first_bad_row_or_column():
    """Every grid made from the standard one by swapping two of its cells
    raises the wording of its first bad row, else its first bad column, or
    is evaluated when none is bad; two of the messages, byte for byte."""
    rows = [_ops_for(r) for r in ((7, 8, 9), (10, 11, 12), (13, 14, 15))]
    messages = {}
    for a, b in itertools.combinations(range(9), 2):
        cells = [op for row in rows for op in row]
        cells[a], cells[b] = cells[b], cells[a]
        grid = [cells[k : k + 3] for k in (0, 3, 6)]
        wanted = _first_bad_line(grid)
        try:
            result = mermin_square_check(grid)
        except ValueError as exc:
            messages[a, b] = str(exc)
            assert str(exc) == wanted
        else:
            assert wanted is None and result.magic
    assert messages[0, 4] == "row 1: XY and ZY do not commute"
    assert messages[3, 5] == "column 1: XZ and 1Y do not commute"
    assert sorted({m.split(":")[0] for m in messages.values()}) == ["column 1", "column 2", "row 1", "row 2"]


def test_mub_rejects_overlapping_lines():
    with pytest.raises(ValueError):
        mub_spread_check([_ops_for((7, 8, 9))] * 5)


def _traces(bases):
    """Every trace matrix of a spread's bases, a basis with itself included."""
    pairs = itertools.combinations_with_replacement(range(len(bases)), 2)
    return {(i, j): _trace_matrix(bases[i], bases[j]) for i, j in pairs}


@pytest.mark.parametrize("target, wrong", [(16, 0), (0, 16), (4, 8), (4, -4)])
def test_mub_fails_when_one_trace_is_wrong(target, wrong):
    """Each of the three trace targets is checked: a change of one basis of
    a passing spread that turns a trace meeting the target into another
    value, as the trace matrices show, fails the spread.  The changes: the
    first projector zeroed (16 on the diagonal), the second projector a copy
    of the first (0 off it), a basis swapped for that of a line sharing an
    operator with another (4 across, by the trace matrices), and the
    identity's sign flipped in all four projectors (4 across, by one
    popcount)."""
    ops = [_ops_for(t) for t in ((1, 2, 7), (3, 5, 8), (4, 6, 9), (10, 11, 12), (13, 14, 15))]
    facts = [line_facts(t) for t in ops]
    assert mub_spread_check(ops, facts)
    bases = [list(basis) for _, basis in facts]
    if target == 16:
        bases[0][0] = (0, 0)
    elif target == 0:
        bases[0][1] = bases[0][0]
    elif wrong == 8:
        first = {op.code for op in ops[0]}
        other = next(line for line in _commuting_lines() if len(first & set(line)) == 1)
        bases[1] = list(line_facts([PauliOp(c) for c in other])[1])
    else:
        bases[1] = [(support, negative ^ 1) for support, negative in bases[1]]
    before, after = _traces([basis for _, basis in facts]), _traces(bases)
    changed = {
        (old, new)
        for key in before
        for old_row, new_row in zip(before[key], after[key])
        for old, new in zip(old_row, new_row)
    }
    assert (target, wrong) in changed
    assert not mub_spread_check(ops, [(sign, basis) for (sign, _), basis in zip(facts, bases)])


@pytest.mark.parametrize("body", range(4))
def test_mub_fails_when_one_projector_sign_is_flipped(body, monkeypatch):
    """Any one of the 20 projectors of a passing spread, with the sign of
    one of its four bodies flipped in the negative mask alone, fails the
    spread: that projector is no longer orthogonal to the rest of its
    basis.  The flip is made where ``line_facts`` builds each line's four
    projectors, once per line."""
    from ringline import pauli

    spread = [_ops_for(t) for t in ((1, 2, 7), (3, 5, 8), (4, 6, 9), (10, 11, 12), (13, 14, 15))]
    assert mub_spread_check(spread)
    real = pauli._eigenbasis
    for target in range(20):
        calls = []

        def flipped(a, b):
            basis = list(real(a, b))
            if len(calls) == target // 4:
                support, negative = basis[target % 4]
                negative ^= 1 << [p for p in range(16) if support >> p & 1][body]
                basis[target % 4] = support, negative
            calls.append(a)
            return tuple(basis)

        monkeypatch.setattr(pauli, "_eigenbasis", flipped)
        assert not mub_spread_check(spread)
        assert len(calls) == 5


def _commuting_lines():
    """The 15 commuting lines as sorted code triples, in ascending order."""
    return sorted({
        tuple(sorted((a.code, b.code, multiply(a, b).body.code)))
        for a in ALL_OPS
        for b in ALL_OPS
        if a != b and commutes(a, b)
    })


def _line_bases():
    """Each commuting line with the four scaled projectors of its two
    smallest operators, as the MUB check builds them (as masks)."""
    return [(line, list(_eigenbasis(line[0], line[1]))) for line in _commuting_lines()]


def test_trace_matrix_matches_oracle_on_every_pair_of_line_bases():
    """Every ordered pair of the 15 line bases, a line with itself and lines
    sharing an operator included: each matrix entry is the trace the
    one-body-at-a-time oracle gives on the expanded projectors, and each
    projector expands to the one the product written out gives."""
    bases = _line_bases()
    assert len(bases) == 15
    for line, xs in bases:
        a, b = PauliOp(line[0]), PauliOp(line[1])
        expected = [scaled_projector(a, sa, b, sb) for sa in (1, -1) for sb in (1, -1)]
        assert [expand_projector(x) for x in xs] == expected
    seen = set()
    for (line1, xs), (line2, ys) in itertools.product(bases, repeat=2):
        matrix = _trace_matrix(xs, ys)
        assert matrix == [
            [_trace_of_product(expand_projector(x), expand_projector(y)) for y in ys] for x in xs
        ]
        seen.add((len(set(line1) & set(line2)), frozenset(itertools.chain(*matrix))))
    # disjoint lines: all 4; sharing one operator: 0 and 8; equal: 16 and 0
    assert seen == {
        (0, frozenset({4})),
        (1, frozenset({0, 8})),
        (3, frozenset({0, 16})),
    }


def test_closed_form_unbiasedness_matches_trace_matrices():
    """The closed-form verdicts equal the trace-matrix ones, within a basis
    (16 on the diagonal, 0 off it) and across two (4 everywhere): on every
    ordered pair of the 15 line bases, and with each body's sign flipped in
    each of the 60 projectors, or the identity's in all four projectors of
    a basis, against every line basis in both orders.  The verdicts read
    ``_basis_facts`` of each basis, as ``mub_spread_check`` passes them."""
    bases = [xs for _, xs in _line_bases()]
    changed = []
    for xs in bases:
        for i, (support, negative) in enumerate(xs):
            for body in (p for p in range(16) if support >> p & 1):
                ys = list(xs)
                ys[i] = (support, negative ^ 1 << body)
                changed.append(ys)
        changed.append([(support, negative ^ 1) for support, negative in xs])
    assert len(changed) == 60 * 4 + 15
    seen = set()
    for xs in bases + changed:
        verdict = _orthonormal(_basis_facts(xs))
        assert verdict == (_trace_matrix(xs, xs) == oracle_kernels.WITHIN)
        seen.add(("within", verdict))
    pairs = list(itertools.product(bases, repeat=2))
    pairs += [pair for ys in changed for xs in bases for pair in ((xs, ys), (ys, xs))]
    for xs, ys in pairs:
        verdict = _unbiased(_basis_facts(xs), _basis_facts(ys))
        assert verdict == (_trace_matrix(xs, ys) == oracle_kernels.ACROSS)
        seen.add(("across", verdict))
    assert seen == {("within", True), ("within", False), ("across", True), ("across", False)}


def test_mub_oracle_cross_check():
    """One spread passes, and the projector traces recomputed with dense
    matrices give exactly the same answer."""
    from fractions import Fraction

    spread = ((1, 2, 7), (3, 5, 8), (4, 6, 9), (10, 11, 12), (13, 14, 15))
    assert mub_spread_check([_ops_for(t) for t in spread])

    quarter = (Fraction(1, 4), Fraction(0))
    ident = oracle.mat_for_label("11")
    bases = []
    for triple in spread:
        a, b = _ops_for(triple[:2])
        ma, mb = oracle.mat_for(a), oracle.mat_for(b)
        projectors = []
        for sa in (1, -1):
            for sb in (1, -1):
                ca = (Fraction(sa), Fraction(0))
                cb = (Fraction(sb), Fraction(0))
                pa = oracle.scale(quarter, oracle.mat_add(ident, oracle.scale(ca, ma)))
                pb = oracle.mat_add(ident, oracle.scale(cb, mb))
                projectors.append(oracle.matmul(pa, pb))
        bases.append(projectors)
    for i, base1 in enumerate(bases):
        for p in base1:
            # projector: p * p == p, trace 1
            assert oracle.matmul(p, p) == p
            assert oracle.trace(p) == (Fraction(1), Fraction(0))
        for j, base2 in enumerate(bases):
            for a, p in enumerate(base1):
                for b, q in enumerate(base2):
                    t = oracle.trace(oracle.matmul(p, q))
                    if i == j:
                        want = (Fraction(int(a == b)), Fraction(0))
                    else:
                        want = (Fraction(1, 4), Fraction(0))
                    assert t == want


def test_scaled_projector_traces_match_matrix_oracle():
    """Every ordered pair of the 60 line projectors (15 commuting lines x 4
    sign pairs): the integer projectors are 4 times the dense ones, and
    their traces of products are 16 times the dense (real) traces.
    Overlapping lines give 1/2 (scaled 8), which no MUB target takes."""
    from fractions import Fraction

    lines = _commuting_lines()
    assert len(lines) == 15
    quarter = (Fraction(1, 4), Fraction(0))
    ident = oracle.mat_for_label("11")
    scaled, dense = [], []
    for line in lines:
        a, b = PauliOp(line[0]), PauliOp(line[1])
        signs = [(sa, sb) for sa in (1, -1) for sb in (1, -1)]
        for (sa, sb), masks in zip(signs, _eigenbasis(a.code, b.code)):
            combo = expand_projector(masks)
            ca = (Fraction(sa), Fraction(0))
            cb = (Fraction(sb), Fraction(0))
            pa = oracle.mat_add(ident, oracle.scale(ca, oracle.mat_for(a)))
            pb = oracle.mat_add(ident, oracle.scale(cb, oracle.mat_for(b)))
            p = oracle.scale(quarter, oracle.matmul(pa, pb))
            assert oracle.matmul(p, p) == p
            four_p = oracle.scale(oracle.ZERO, ident)
            for code, coef in combo.items():
                body = "11" if code == 0 else PauliOp(code).label
                term = oracle.scale(
                    (Fraction(coef), Fraction(0)), oracle.mat_for_label(body)
                )
                four_p = oracle.mat_add(four_p, term)
            assert four_p == oracle.scale((Fraction(4), Fraction(0)), p)
            scaled.append(combo)
            dense.append(p)
    assert len(scaled) == 60
    seen = set()
    for i, j in itertools.combinations_with_replacement(range(60), 2):
        # Tr(PQ) = Tr(QP), so one dense trace serves both orders
        re, im = oracle.trace_of_product(dense[i], dense[j])
        got = _trace_of_product(scaled[i], scaled[j])
        assert im == 0
        assert got == _trace_of_product(scaled[j], scaled[i]) == 16 * re
        seen.add(got)
    assert seen == {16, 8, 4, 0}
