"""Reference forms of two projective-line notions for the tests.

The package decides the relation from the row-span table that its line
keeps and never needs the reference triple; the tests state both here
directly, the relation by the blow-up rank of ``is_invertible_2x2``.
"""

from ringline.projline import DISTANT, NEIGHBOR, Mat2, is_invertible_2x2


def pair_relation(ring, p, q):
    """DISTANT or NEIGHBOR, from representatives (representative-independent)."""
    return DISTANT if is_invertible_2x2(ring, Mat2(*p, *q)) else NEIGHBOR


def standard_triple(ring):
    """The reference pairwise-distant triple (1,0), (0,1), (1,1)."""
    return ((ring.one, ring.zero), (ring.zero, ring.one), (ring.one, ring.one))
