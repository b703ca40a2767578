"""Projective line construction, relations, group action."""

import itertools
import random

import pytest

from ringline import gf2, golden
from ringline.projline import (
    DISTANT,
    NEIGHBOR,
    Mat2,
    apply_to_pair,
    blowup,
    enumerate_line,
    gl2_elements,
    gl2_transitivity_witness,
    induced_signs,
    is_admissible,
    is_invertible_2x2,
    map_standard_triple_to,
    mat_inv,
    mat_mul,
    signs_graph,
    simultaneous_subconfig,
    line_to_json_dict,
)
from ringline.rings import ring_by_name, ring_names, units, zero_divisors

from line_oracle import pair_relation, standard_triple


def test_point_and_orbit_counts(m2f2_line):
    assert len(m2f2_line.points) == 35
    for pt in m2f2_line.points:
        assert len(pt.members) == 6
        assert pt.canonical == min(pt.members)


def test_orbits_partition_admissible_pairs(m2f2, m2f2_line):
    seen = set()
    for pt in m2f2_line.points:
        assert not (pt.members & seen)
        seen |= pt.members
    admissible = {
        (a, b)
        for a in m2f2.elements()
        for b in m2f2.elements()
        if is_admissible(m2f2, a, b)
    }
    assert seen == admissible
    assert len(admissible) == 35 * 6


def test_census_orbit_equivalent_to_published(m2f2_line):
    actual = {frozenset(pt.members) for pt in m2f2_line.points}
    expected = {
        frozenset(m2f2_line.class_of(rep).members) for rep in golden.LINE_CENSUS_REPS
    }
    assert len(expected) == 35
    assert expected == actual


def test_census_rows_by_unit_pattern(m2f2):
    """The published 35 pairs arrive in four blocks: both entries units,
    unit then zero-divisor, zero-divisor then unit, both zero-divisors."""
    us = units(m2f2)
    zd = zero_divisors(m2f2)
    blocks = [(6, us, us), (10, us, zd), (10, zd, us), (9, zd, zd)]
    reps = iter(golden.LINE_CENSUS_REPS)
    for count, left, right in blocks:
        for _ in range(count):
            a, b = next(reps)
            assert a in left and b in right
    with pytest.raises(StopIteration):
        next(reps)


def test_relation_is_representative_independent(m2f2, m2f2_line):
    rng = random.Random(5)
    for _ in range(10):
        p, q = rng.sample(m2f2_line.points, 2)
        want = m2f2_line.relation_of(p, q)
        for a in p.members:
            for b in q.members:
                assert pair_relation(m2f2, a, b) == want


def test_relation_symmetric_and_reflexive_neighbor(m2f2_line):
    n = len(m2f2_line.points)
    for i in range(n):
        assert m2f2_line.relation[i][i] == NEIGHBOR
        for j in range(n):
            assert m2f2_line.relation[i][j] == m2f2_line.relation[j][i]


def test_admissibility_examples(m2f2):
    assert not is_admissible(m2f2, m2f2.zero, m2f2.zero)
    assert is_admissible(m2f2, m2f2.one, m2f2.zero)
    # two left-proportional zero divisors cannot be completed
    assert not is_admissible(m2f2, 3, 3)


def test_small_line_counts():
    for name, count in (("gf2", 3), ("gf4", 5), ("gf2xgf2", 9), ("gf2dual", 6)):
        line = enumerate_line(ring_by_name(name))
        assert len(line.points) == count


def test_enumerate_line_refuses_a_ring_that_fails_its_axioms():
    """A line is only enumerated over a ring: a refused ring raises
    ValueError naming its first problem, every time it is asked for."""
    gf4 = ring_by_name("gf4")
    rows = [list(row) for row in gf4.mul_table]
    rows[2][3] = 0
    bad = gf4._replace(mul_table=tuple(map(tuple, rows)))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^gf4 is not a ring: rep breaks multiplication at \(x,y\)=\(2,3\)$"):
            enumerate_line(bad)


@pytest.mark.parametrize("name", ring_names())
def test_distant_triple_count_matches_the_relation(name):
    line = enumerate_line(ring_by_name(name))
    n = len(line.points)
    triples = [
        t for t in itertools.permutations(range(n), 3)
        if all(line.relation[p][q] == DISTANT for p, q in itertools.combinations(t, 2))
    ]
    assert line.distant_triple_count == len(triples)


def test_gf4_line_pairwise_distant():
    line = enumerate_line(ring_by_name("gf4"))
    for i in range(5):
        for j in range(5):
            if i != j:
                assert line.relation[i][j] == DISTANT


def test_gf2dual_line_neighbor_pairs():
    line = enumerate_line(ring_by_name("gf2dual"))
    pairs = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if line.relation[i][j] == NEIGHBOR
    ]
    assert len(pairs) == 3
    covered = sorted(itertools.chain.from_iterable(pairs))
    assert covered == list(range(6))


def test_subconfig_families_match_published(m2f2_line):
    u, v = (1, 0), (0, 1)
    fam_distant, fam_neighbor = simultaneous_subconfig(m2f2_line, u, v)
    assert len(fam_distant) == 6
    assert len(fam_neighbor) == 9
    expected = [m2f2_line.class_of(rep) for rep in golden.POINT_REPS]
    assert list(fam_distant + fam_neighbor) == expected


def test_subconfig_signs_match_fixture(m2f2_line):
    fam_distant, fam_neighbor = simultaneous_subconfig(m2f2_line, (1, 0), (0, 1))
    signs = induced_signs(m2f2_line, fam_distant + fam_neighbor)
    assert signs == golden.CANONICAL_SIGNS


def test_subconfig_rejects_bad_base_points(m2f2_line):
    with pytest.raises(ValueError):
        simultaneous_subconfig(m2f2_line, (1, 0), (1, 0))
    # (1,0) and (2,0) share a left unit multiple relation: neighbor pair
    assert m2f2_line.relation_of((1, 0), (3, 4)) == NEIGHBOR
    with pytest.raises(ValueError):
        simultaneous_subconfig(m2f2_line, (1, 0), (3, 4))


def test_subconfig_base_choice_only_permutes(m2f2_line):
    """Different distant base pairs give the same sign matrix up to
    reordering, here checked via sorted row multisets."""
    base = induced_signs(
        m2f2_line, sum(simultaneous_subconfig(m2f2_line, (1, 0), (0, 1)), ())
    )
    other = induced_signs(
        m2f2_line, sum(simultaneous_subconfig(m2f2_line, (0, 1), (1, 1)), ())
    )
    assert sorted("".join(sorted(r)) for r in base) == sorted(
        "".join(sorted(r)) for r in other
    )


def test_standard_triple_pairwise_distant(m2f2, m2f2_line):
    t = standard_triple(m2f2)
    for p, q in itertools.combinations(t, 2):
        assert m2f2_line.relation_of(p, q) == DISTANT


def test_gl2_order(m2f2):
    assert len(gl2_elements(m2f2)) == 20160
    assert len(gl2_elements(m2f2)) == 15 * 14 * 12 * 8


def rank_invertible(ring, m):
    """Direct test: the 2k x 2k blow-up of ``m`` has full GF(2) rank."""
    return gf2.rank(blowup(ring, m)) == 2 * ring.rep_dim


def completion_search(ring, a, b):
    """Admissibility by definition: some completion (c, d) is invertible."""
    for c in ring.elements():
        for d in ring.elements():
            if rank_invertible(ring, Mat2(a, b, c, d)):
                return True
    return False


@pytest.mark.parametrize("name", ring_names())
def test_gl2_elements_match_rank_oracle(name):
    """The row-span table against the direct tests it replaces: the GL2
    enumeration against the blow-up rank on every (a, b, c, d), which
    ``is_invertible_2x2`` is, and ``is_admissible`` (read off the line)
    against the completion search."""
    ring = ring_by_name(name)
    mats = [Mat2(*m) for m in itertools.product(ring.elements(), repeat=4)]
    want = [m for m in mats if rank_invertible(ring, m)]
    assert gl2_elements(ring) == tuple(want)
    invertible = set(want)
    assert [is_invertible_2x2(ring, m) for m in mats] == [m in invertible for m in mats]
    pairs = list(itertools.product(ring.elements(), repeat=2))
    assert [is_admissible(ring, a, b) for a, b in pairs] == [
        completion_search(ring, a, b) for a, b in pairs
    ]


def test_gl2_contains_identity_and_closes(m2f2):
    group = gl2_elements(m2f2)
    ident = Mat2(m2f2.one, m2f2.zero, m2f2.zero, m2f2.one)
    assert ident in group
    gset = set(group)
    rng = random.Random(1)
    for _ in range(50):
        m, n = rng.choice(group), rng.choice(group)
        assert mat_mul(m2f2, m, n) in gset


def test_mat_inv_random(m2f2):
    group = gl2_elements(m2f2)
    ident = Mat2(m2f2.one, m2f2.zero, m2f2.zero, m2f2.one)
    rng = random.Random(2)
    for _ in range(50):
        m = rng.choice(group)
        inv = mat_inv(m2f2, m)
        assert mat_mul(m2f2, m, inv) == ident
        assert mat_mul(m2f2, inv, m) == ident


def test_mat_inv_rejects_singular(m2f2):
    with pytest.raises(ValueError):
        mat_inv(m2f2, Mat2(m2f2.zero, m2f2.zero, m2f2.zero, m2f2.one))


def test_witness_identity_and_swap(m2f2, m2f2_line):
    t = standard_triple(m2f2)
    w = gl2_transitivity_witness(m2f2_line, t, t)
    assert w == Mat2(m2f2.one, m2f2.zero, m2f2.zero, m2f2.one)
    swapped = (t[1], t[0], t[2])
    w = gl2_transitivity_witness(m2f2_line, t, swapped)
    assert apply_to_pair(m2f2, t[0], w) in m2f2_line.class_of(t[1]).members


def test_witness_random_triples_brute_checked(m2f2, m2f2_line):
    """Sampled witnesses are invertible and act correctly on every orbit
    member, not only the canonical representative."""
    rng = random.Random(9)
    pts = m2f2_line.points
    done = 0
    while done < 5:
        sample = rng.sample(pts, 3)
        if any(
            m2f2_line.relation_of(p, q) != DISTANT
            for p, q in itertools.combinations(sample, 2)
        ):
            continue
        done += 1
        m = map_standard_triple_to(m2f2_line, tuple(sample))
        assert is_invertible_2x2(m2f2, m)
        for src, dst in zip(standard_triple(m2f2), sample):
            for member in m2f2_line.class_of(src).members:
                assert apply_to_pair(m2f2, member, m) in dst.members


def test_witness_rejects_non_distant(m2f2_line):
    with pytest.raises(ValueError):
        map_standard_triple_to(m2f2_line, ((1, 0), (3, 4), (0, 1)))


def test_action_preserves_relation(m2f2, m2f2_line):
    rng = random.Random(13)
    group = gl2_elements(m2f2)
    for _ in range(20):
        g = rng.choice(group)
        p, q = rng.sample(m2f2_line.points, 2)
        moved_p = apply_to_pair(m2f2, p.canonical, g)
        moved_q = apply_to_pair(m2f2, q.canonical, g)
        assert pair_relation(m2f2, moved_p, moved_q) == m2f2_line.relation_of(p, q)


def test_line_json_shape(m2f2_line):
    doc = line_to_json_dict(m2f2_line)
    assert doc["schema"] == 1
    assert doc["ring"] == "m2f2"
    assert len(doc["points"]) == 35
    assert [len(row) for row in doc["relation"]] == list(range(1, 36))
    for entry in doc["points"]:
        assert sorted(entry["orbit"])[0] == entry["canonical"]


@pytest.mark.parametrize("name", ring_names())
def test_relation_graph_is_built_once_from_the_relation(name):
    """The line keeps one neighbor graph, as adjacency masks: the same
    object on every read, equal to the graph built afresh from
    ``relation``, with bit j of entry i set exactly when points i != j are
    neighbors."""
    line = enumerate_line(ring_by_name(name))
    masks = line.neighbor_masks
    assert line.neighbor_masks is masks
    n = len(line.points)
    g = signs_graph(line.relation)
    assert g.vertices == tuple(range(n))
    assert masks == tuple(sum(1 << j for j in g.neighbors(i)) for i in range(n))
    assert {
        (i, j) for i in range(n) for j in range(n) if masks[i] >> j & 1
    } == {
        (i, j)
        for i, j in itertools.product(range(n), repeat=2)
        if line.relation[i][j] == NEIGHBOR and i != j
    }
    assert all(mask >> n == 0 for mask in masks)
