"""Reference forms of the verifier kernels, kept as test oracles.

The package runs these checks on cached adjacency sets, perps, bitmasks,
4-bit operator codes and packed matrix codes.  The forms here are the direct
ones they replaced: pairwise edge tests, line scans, bit tuples, projectors
as dicts, trace matrices, frozenset searches, matrix products pair by pair
and ``product_of``.  Each must give exactly what its package counterpart
gives: the same verdicts, the same problem strings in the same order, the
same error messages.  The bit-by-bit ``mask_maps_onto`` and the
projector-by-projector ``line_facts`` are the forms that the image tables
and the one-product eigenbasis replaced.  Helpers that no verifier calls
any more, ``structure_isomorphism``, ``complement_graph_of_ovoid``,
``induced``, the two mask restrictions that ``gf2.restrict`` replaced and
``product_of``, live here too.
"""

import functools
import itertools

from ringline import gf2
from ringline.pauli import (
    IDENTITY,
    _trace_matrix,
    line_product_sign as package_line_sign,
    mermin_square_check,
    multiply,
)
from ringline.projline import DISTANT
from ringline.quadrangle import Graph, graph_isomorphism


def _has_edge(g, u, v):
    return frozenset((u, v)) in g.edges


def graph_isomorphism(g, h):
    """Permutation backtracking that tests every mapped vertex pairwise."""
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degree(v) for v in g.vertices) != sorted(h.degree(v) for v in h.vertices):
        return None
    remaining = list(g.vertices)
    order, placed = [], set()
    while remaining:
        remaining.sort(key=lambda v: (-len(g.neighbors(v) & placed), -g.degree(v)))
        v = remaining.pop(0)
        order.append(v)
        placed.add(v)
    mapping, used = {}, set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in h.vertices:
            if w in used or h.degree(w) != g.degree(v):
                continue
            if any(_has_edge(g, u, v) != _has_edge(h, mapping[u], w) for u in mapping):
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def structure_isomorphism(s1, s2):
    """A point bijection carrying lines to lines, or None: found through the
    collinearity graphs, then checked on the line sets, which is complete
    when the lines are exactly the triangles of the collinearity graph."""
    iso = graph_isomorphism(s1.collinearity_graph, s2.collinearity_graph)
    if iso is None:
        return None
    lines2 = set(s2.lines)
    if all(frozenset(iso[p] for p in line) in lines2 for line in s1.lines):
        return iso
    return None


def induced(g, keep):
    """The subgraph of ``g`` on the vertices ``keep``, in that order."""
    keep = tuple(keep)
    kset = set(keep)
    return Graph(keep, frozenset(e for e in g.edges if e <= kset))


def restrict_by_bit_walk(masks, keep):
    """The rows of ``masks`` at ``keep``, cut to those columns and renumbered
    0, 1, ... in order, one set bit at a time: the walk that
    ``Structure.complement`` ran before ``gf2.restrict``."""
    at, off, sub = {1 << j: 1 << b for b, j in enumerate(keep)}, sum(1 << j for j in keep), []
    for i in keep:
        rest, mask = masks[i] & off, 0
        while rest:
            mask |= at[rest & -rest]
            rest &= rest - 1
        sub.append(mask)
    return tuple(sub)


def restrict_by_formula(masks, idx):
    """The same restriction column by column: the formula that
    ``projline.induced_neighbor_masks`` used before ``gf2.restrict``."""
    return [sum(1 << b for b, j in enumerate(idx) if masks[i] >> j & 1) for i in idx]


def complement_graph_of_ovoid(s, ovoid):
    """Collinearity graph induced on the points off the ovoid."""
    off = set(ovoid)
    return induced(s.collinearity_graph, [p for p in s.points if p not in off])


def is_strongly_regular(g, n, k, lam, mu):
    """The strongly-regular parameters from adjacency sets, pair by pair."""
    if len(g.vertices) != n:
        return False
    if any(g.degree(v) != k for v in g.vertices):
        return False
    for u, v in itertools.combinations(g.vertices, 2):
        common = len(g.neighbors(u) & g.neighbors(v))
        if g.has_edge(u, v):
            if common != lam:
                return False
        elif common != mu:
            return False
    return True


def exact_covers(blocks, universe):
    """Every set of block indices whose frozenset blocks partition
    ``universe``, sorted, depth first on the first uncovered element."""
    containing = {x: [i for i, block in enumerate(blocks) if x in block] for x in universe}
    out = []
    stack = [(frozenset(universe), ())]
    while stack:
        remaining, used = stack.pop()
        if not remaining:
            out.append(tuple(sorted(used)))
            continue
        for i in containing[next(x for x in universe if x in remaining)]:
            if blocks[i] <= remaining:
                stack.append((remaining - blocks[i], used + (i,)))
    return sorted(out)


def grid_mermin_arrangement(s, points, ops_for):
    """The least magic arrangement of a grid from frozenset scans of the
    lines, with sort keys per cell, its square evaluated on operators."""
    inside = [line for line in s.lines if line <= points]
    if len(inside) != 6:
        return None
    first = inside[0]
    cls1 = [l for l in inside if l == first or not (l & first)]
    cls2 = [l for l in inside if l != first and (l & first)]
    if len(cls1) != 3 or len(cls2) != 3:
        return None
    if any(a & b for cls in (cls1, cls2) for a, b in itertools.combinations(cls, 2)):
        return None
    if any(len(r & c) != 1 for r in cls1 for c in cls2):
        return None
    least = min(points)

    def flattened(rows, cols):
        first_row = next(r for r in rows if least in r)
        cols = sorted(cols, key=lambda c: min(c & first_row))
        rows = sorted(rows, key=lambda r: min(r & cols[0]))
        return tuple(min(r & c) for r in rows for c in cols)

    best = min(flattened(cls1, cls2), flattened(cls2, cls1))
    grid = (best[0:3], best[3:6], best[6:9])
    return grid if mermin_square_check([ops_for(r) for r in grid]).magic else None


WITHIN = [[16 if i == j else 0 for j in range(4)] for i in range(4)]
ACROSS = [[4] * 4] * 4


def bases_unbiased(bases):
    """The unbiased-bases verdict on scaled projectors from every trace
    matrix: 16 and 0 within a basis, 4 across two."""
    return all(
        _trace_matrix(b1, b2) == (WITHIN if i == j else ACROSS)
        for (i, b1), (j, b2) in itertools.combinations_with_replacement(enumerate(bases), 2)
    )


def mub_spread_check(spread):
    """The unbiased-bases check with every line signed where it is used and
    every trace matrix taken: a triple's error, then the partition, then the
    traces of the projectors of each triple's two lowest codes."""
    triples = [tuple(t) for t in spread]
    if len(triples) != 5:
        raise ValueError("a spread consists of five triples")
    for i, ops in enumerate(triples, start=1):
        try:
            package_line_sign(ops)
        except ValueError as exc:
            raise ValueError(f"triple {i}: {exc}") from None
    if sorted(op.code for ops in triples for op in ops) != list(range(1, 16)):
        raise ValueError("triples do not partition the fifteen operators")
    return bases_unbiased([
        [projector_masks(a, sa, b, sb) for sa in (1, -1) for sb in (1, -1)]
        for a, b, _ in map(sorted, triples)
    ])


def validate_gq_axioms(s):
    """The quadrangle axioms by scanning the lines through each point."""

    def collinear(p, q):
        return p != q and any(q in s.lines[i] for i in s.lines_through(p))

    problems = []
    for i, line in enumerate(s.lines):
        if len(line) != 3:
            problems.append(f"line {i} has {len(line)} points, expected 3")
    for p in s.points:
        n = len(s.lines_through(p))
        if n != 3:
            problems.append(f"point {p} lies on {n} lines, expected 3")
    for p, q in itertools.combinations(s.points, 2):
        common = sum(1 for i in s.lines_through(p) if q in s.lines[i])
        if common > 1:
            problems.append(f"points {p} and {q} lie on {common} common lines")
    for i, line in enumerate(s.lines):
        for p in s.points:
            if p in line:
                continue
            met = sum(1 for q in line if collinear(p, q))
            if met != 1:
                problems.append(f"point {p} sees {met} points of line {i}, expected exactly 1")
    return problems


def commutes(a, b):
    """The alternating form written out on the four bits of each code."""
    az1, ax1, az2, ax2 = (a.code >> k & 1 for k in (3, 2, 1, 0))
    bz1, bx1, bz2, bx2 = (b.code >> k & 1 for k in (3, 2, 1, 0))
    return (az1 * bx1 + ax1 * bz1 + az2 * bx2 + ax2 * bz2) % 2 == 0


def product_of(ops):
    """The phased product of ``ops`` in order."""
    return functools.reduce(multiply, ops, IDENTITY)


def line_product_sign(triple, commute=commutes):
    """The sign of a line, from the phased product ``product_of`` builds."""
    ops = tuple(triple)
    if len(ops) != 3 or len(set(ops)) != 3:
        raise ValueError("expected three distinct operators")
    for a, b in itertools.combinations(ops, 2):
        if not commute(a, b):
            raise ValueError(f"{a.label} and {b.label} do not commute")
    prod = product_of(ops)
    if prod.body is not None:
        raise ValueError(f"product is {prod.to_string()}, not proportional to the identity")
    if prod.phase_k % 2:
        raise ValueError(f"product phase {prod.to_string()} is imaginary")
    return 1 if prod.phase_k == 0 else -1


def distant_triple_witnesses(line):
    """Witnesses read from the relation strings, every lookup inside the
    innermost loop."""
    ring, rel = line.ring, line.relation
    spans, index = line.spans, line._index_by_pair
    add, mul = ring.add_table, ring.mul_table
    scaled = [
        [(s, (mul[s][c], mul[s][d])) for s in line.units]
        for c, d in (pt.canonical for pt in line.points)
    ]
    witnesses, failures = set(), []
    for i, row in enumerate(rel):
        a, b = line.points[i].canonical
        top = spans.get((a, b), -1)
        for j in (j for j, sign in enumerate(row) if sign == DISTANT):
            for s, (e, f) in scaled[j]:
                k = index.get((add[a][e], add[b][f]))
                if (
                    not top & spans.get((e, f), -1)
                    and index.get((e, f)) == j
                    and k is not None
                    and row[k] == rel[j][k] == DISTANT
                ):
                    witnesses.add((i, j, k))
                else:
                    failures.append((i, j, s))
    return witnesses, failures


def witnessed_triples(masks):
    """The (i, j, k) triples that per-pair witness bitmasks stand for: bit k
    of ``masks[i, j]`` stands for (i, j, k)."""
    return {
        (i, j, k) for (i, j), mask in masks.items() for k in range(mask.bit_length()) if mask >> k & 1
    }


def scaled_projector(a, sa, b, sb):
    """4 times the joint eigenprojector of commuting A, B onto (sa, sb), as
    {body code (0 = identity): coefficient}, the product written out."""
    prod = product_of((a, b))
    sign = {0: 1, 2: -1}[prod.phase_k]
    return {0: 1, a.code: sa, b.code: sb, prod.body.code: sa * sb * sign}


def projector_masks(a, sa, b, sb):
    """``scaled_projector`` as the masks of its bodies and of its bodies
    with coefficient -1, one projector at a time."""
    combo = scaled_projector(a, sa, b, sb)
    return sum(1 << p for p in combo), sum(1 << p for p, c in combo.items() if c < 0)


def line_facts(triple):
    """A line's sign, or the ValueError of ``line_product_sign``, and the
    four scaled projectors of its two lowest codes, each built on its own
    from their product."""
    try:
        sign = package_line_sign(triple)
    except ValueError as exc:
        return exc, ()
    a, b, _ = sorted(triple)
    return sign, tuple(projector_masks(a, sa, b, sb) for sa in (1, -1) for sb in (1, -1))


def mask_maps_onto(mapping, gadj, hadj):
    """The mapping check carrying each mask bit by bit: with n keys and
    images in 0..n-1 whose bits fill all n, each mask of ``gadj`` is carried
    through a low-bit -> image-bit dict (a bit past n is a KeyError, so
    False) and compared with the ``hadj`` mask of its image."""
    n = len(gadj)
    if len(hadj) != n or len(mapping) != n:
        return False
    every = range(n)
    at, seen = {}, 0
    for i, w in mapping.items():
        if i not in every or w not in every:
            return False
        at[1 << i] = bit = 1 << w
        seen |= bit
    if seen != (1 << n) - 1:
        return False
    try:
        for i, w in mapping.items():
            rest, carried = gadj[i], 0
            while rest:
                low = rest & -rest
                carried |= at[low]
                rest ^= low
            if carried != hadj[w]:
                return False
    except KeyError:
        return False
    return True


def expand_projector(masks):
    """{body code: coefficient} of a scaled projector given as the masks of
    its bodies and of its bodies with coefficient -1."""
    support, negative = masks
    return {p: -1 if negative >> p & 1 else 1 for p in range(16) if support >> p & 1}


def _trace_of_product(x, y):
    """Tr(x y) of two scaled projectors, one body at a time: Tr(sigma_p
    sigma_q) is 4 when p == q and 0 otherwise."""
    return 4 * sum(cx * y[p] for p, cx in x.items() if p in y)


def ring_law_problems(ring):
    """Associativity and distributivity, every cell indexed from the tables."""
    add, mul = ring.add_table, ring.mul_table
    rng = range(ring.order)
    problems = []
    for x in rng:
        for y in rng:
            for z in rng:
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    problems.append(f"addition is not associative at (x,y,z)=({x},{y},{z})")
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    problems.append(f"multiplication is not associative at (x,y,z)=({x},{y},{z})")
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    problems.append(f"left distributivity fails at (x,y,z)=({x},{y},{z})")
                if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
                    problems.append(f"right distributivity fails at (x,y,z)=({x},{y},{z})")
    return problems


def rep_problems(ring):
    """Whether rep is a faithful unital homomorphism: injective, one to the
    identity, zero to zero, and + and x respected pair by pair."""
    problems = []
    if len(set(ring.rep)) != ring.order:
        problems.append("rep is not injective")
    if ring.rep[ring.one] != gf2.identity(ring.rep_dim):
        problems.append("rep(one) is not the identity matrix")
    if any(ring.rep[ring.zero]):
        problems.append("rep(zero) is not the zero matrix")
    return problems + rep_pair_problems(ring)


def rep_pair_problems(ring):
    """Whether rep respects + and x, one pair at a time against the matrix
    sums and products, in the order ``validate_ring`` words them."""
    sums, products = _rep_images(ring.rep)
    problems = []
    for x in range(ring.order):
        for y in range(ring.order):
            if ring.rep[ring.add_table[x][y]] != sums[x][y]:
                problems.append(f"rep breaks addition at (x,y)=({x},{y})")
            if ring.rep[ring.mul_table[x][y]] != products[x][y]:
                problems.append(f"rep breaks multiplication at (x,y)=({x},{y})")
    return problems


@functools.lru_cache(maxsize=None)
def _rep_images(rep):
    # the sums and products of the representation matrices do not depend on
    # the tables, so one computation serves every corrupted table
    return (
        [[gf2.add(a, b) for b in rep] for a in rep],
        [[gf2.multiply(a, b) for b in rep] for a in rep],
    )
