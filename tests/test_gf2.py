"""Bit-matrix arithmetic: rank, inversion, round trips."""

import itertools
import random

from ringline import gf2


def all_matrices(n):
    return itertools.product(range(1 << n), repeat=n)


def test_identity_shape():
    for n in (1, 2, 3, 4):
        ident = gf2.identity(n)
        assert len(ident) == n
        for i, row in enumerate(ident):
            assert row == 1 << i


def test_add_is_xor():
    a = (0b101, 0b011)
    b = (0b110, 0b011)
    assert gf2.add(a, b) == (0b011, 0b000)


def test_multiply_by_identity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 6)
        m = tuple(rng.randrange(1 << n) for _ in range(n))
        assert gf2.multiply(m, gf2.identity(n)) == m
        assert gf2.multiply(gf2.identity(n), m) == m


def test_multiply_associative_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 5)
        a, b, c = (
            tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(3)
        )
        assert gf2.multiply(gf2.multiply(a, b), c) == gf2.multiply(a, gf2.multiply(b, c))


def test_multiply_matches_schoolbook():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randrange(1, 5)
        a = tuple(rng.randrange(1 << n) for _ in range(n))
        b = tuple(rng.randrange(1 << n) for _ in range(n))
        la = gf2.rows_to_lists(a, n)
        lb = gf2.rows_to_lists(b, n)
        want = [
            [sum(la[i][k] * lb[k][j] for k in range(n)) % 2 for j in range(n)]
            for i in range(n)
        ]
        assert gf2.rows_to_lists(gf2.multiply(a, b), n) == want


def test_rank_known_values():
    assert gf2.rank(()) == 0
    assert gf2.rank((0, 0, 0)) == 0
    assert gf2.rank(gf2.identity(4)) == 4
    # two equal rows collapse
    assert gf2.rank((0b11, 0b11)) == 1
    # row three is the sum of the first two
    assert gf2.rank((0b011, 0b101, 0b110)) == 2


def test_invert_exhaustive_3x3():
    """Every 3x3 bit matrix: invert() succeeds exactly on full rank, and the
    product with the result is the identity both ways."""
    n = 3
    ident = gf2.identity(n)
    invertible = 0
    for m in all_matrices(n):
        inv = gf2.invert(m, n)
        if gf2.rank(m) == n:
            assert inv is not None
            assert gf2.multiply(m, inv) == ident
            assert gf2.multiply(inv, m) == ident
            invertible += 1
        else:
            assert inv is None
    # |GL(3, 2)| = 7 * 6 * 4
    assert invertible == 168


def test_invert_random_6x6():
    rng = random.Random(3)
    ident = gf2.identity(6)
    seen_invertible = 0
    for _ in range(200):
        m = tuple(rng.randrange(1 << 6) for _ in range(6))
        inv = gf2.invert(m, 6)
        if inv is not None:
            assert gf2.multiply(m, inv) == ident
            seen_invertible += 1
    assert seen_invertible > 0


def test_rows_round_trip():
    lists = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    m = gf2.rows_from_lists(lists)
    assert gf2.rows_to_lists(m, 3) == lists


def test_kernel_random_matrices():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10)
        rows = [rng.randrange(1 << n) for _ in range(rng.randrange(0, 12))]
        basis = gf2.kernel(rows, n)
        for vec in basis:
            assert vec >> n == 0
            for row in rows:
                assert bin(row & vec).count("1") % 2 == 0
        assert gf2.rank(basis) == len(basis) == n - gf2.rank(rows)


def test_kernel_of_gq_incidence_has_dimension_five(gq):
    # 2^5 - 1 = 31 nonzero vectors: the complements of the hyperplanes
    masks = [sum(1 << (p - 1) for p in line) for line in gq.lines]
    assert len(gf2.kernel(masks, 15)) == 5
