"""Independent dense-matrix oracle for the operator tests.

Operators are recomputed as 4x4 matrices with exact Gaussian-rational
entries (pairs of Fractions) via Kronecker products of the one-qubit
matrices.  None of the package's phase bookkeeping is reused here; the
point is to check products, traces and commutation from scratch.
"""

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
MINUS_ONE = (Fraction(-1), Fraction(0))
I_UNIT = (Fraction(0), Fraction(1))
MINUS_I = (Fraction(0), Fraction(-1))

I_POWERS = (ONE, I_UNIT, MINUS_ONE, MINUS_I)


def cadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


MAT_1 = ((ONE, ZERO), (ZERO, ONE))
MAT_X = ((ZERO, ONE), (ONE, ZERO))
MAT_Y = ((ZERO, MINUS_I), (I_UNIT, ZERO))
MAT_Z = ((ONE, ZERO), (ZERO, MINUS_ONE))

FACTOR_MATS = {"1": MAT_1, "X": MAT_X, "Y": MAT_Y, "Z": MAT_Z}


def kron(a, b):
    na, nb = len(a), len(b)
    return tuple(
        tuple(cmul(a[i // nb][j // nb], b[i % nb][j % nb]) for j in range(na * nb))
        for i in range(na * nb)
    )


def matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = cadd(acc, cmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def scale(c, a):
    return tuple(tuple(cmul(c, x) for x in row) for row in a)


def mat_add(a, b):
    return tuple(
        tuple(cadd(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def trace(a):
    acc = ZERO
    for i in range(len(a)):
        acc = cadd(acc, a[i][i])
    return acc


def trace_of_product(a, b):
    """Tr(ab) without forming the product: sum of a[i][k] b[k][i]."""
    acc = ZERO
    n = len(a)
    for i in range(n):
        for k in range(n):
            acc = cadd(acc, cmul(a[i][k], b[k][i]))
    return acc


def mat_for_label(label):
    """4x4 matrix of a two-character factor string such as "ZX" or "11"."""
    return kron(FACTOR_MATS[label[0]], FACTOR_MATS[label[1]])


def mat_for(op):
    """Matrix of a PauliOp."""
    return mat_for_label(op.label)


def mat_for_phased(p):
    """Matrix of a PhasedPauli, phase included."""
    body = "11" if p.body is None else p.body.label
    return scale(I_POWERS[p.phase_k], mat_for_label(body))
