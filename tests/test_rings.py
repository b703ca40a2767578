"""Ring tables, units, validation, serialization."""

import json
import pathlib

import pytest

from ring_docs import ring_from_json_dict
from ringline import golden
from ringline.rings import (
    ring_by_name,
    ring_names,
    ring_to_json_dict,
    units,
    validate_ring,
    zero_divisors,
)

DATA = pathlib.Path(__file__).parent / "data"

ALL_RINGS = ("m2f2", "gf2", "gf4", "gf2xgf2", "gf2dual")


def test_registry_names():
    assert tuple(ring_names()) == ALL_RINGS
    for name in ring_names():
        ring = ring_by_name(name)
        assert ring.name == name
        # built once: every lookup returns the same object
        assert ring_by_name(name) is ring


def test_unknown_ring_lists_every_choice():
    with pytest.raises(ValueError) as info:
        ring_by_name("z4")
    message = str(info.value)
    assert "'z4'" in message
    assert all(name in message for name in ALL_RINGS)


def test_m2f2_tables_match_fixture():
    ring = ring_by_name("m2f2")
    assert ring.order == 16
    assert ring.add_table == golden.M2F2_ADD_TABLE
    assert ring.mul_table == golden.M2F2_MUL_TABLE


def test_m2f2_units_and_zero_divisors():
    ring = ring_by_name("m2f2")
    assert units(ring) == golden.M2F2_UNITS
    zd = zero_divisors(ring)
    assert len(zd) == 10
    assert ring.zero in zd
    assert units(ring) & zd == frozenset()
    assert units(ring) | zd == frozenset(range(16))


@pytest.mark.parametrize("name", ALL_RINGS)
def test_ring_axioms_exhaustive(name):
    assert validate_ring(ring_by_name(name)) == []


def test_char_two_everywhere():
    for name in ALL_RINGS:
        ring = ring_by_name(name)
        for x in ring.elements():
            assert ring.add(x, x) == ring.zero


def test_gf4_primitive_element():
    # the generator satisfies x^2 = x + 1, and x^3 = 1
    gf4 = ring_by_name("gf4")
    x = 2
    assert gf4.mul(x, x) == gf4.add(x, gf4.one)
    assert gf4.mul(gf4.mul(x, x), x) == gf4.one
    assert units(gf4) == frozenset({1, 2, 3})


def test_gf2xgf2_idempotents():
    ring = ring_by_name("gf2xgf2")
    e, f = 2, 3
    assert ring.mul(e, e) == e
    assert ring.mul(f, f) == f
    assert ring.mul(e, f) == ring.zero
    assert ring.add(e, f) == ring.one
    assert units(ring) == frozenset({1})


def test_gf2dual_nilpotent():
    ring = ring_by_name("gf2dual")
    eps = 2
    assert ring.mul(eps, eps) == ring.zero
    assert units(ring) == frozenset({1, 3})


def test_validate_names_corrupted_cell():
    ring = ring_by_name("gf4")
    rows = [list(r) for r in ring.mul_table]
    rows[2][3] = 0  # x * (x+1) is 1, break it
    bad = ring._replace(mul_table=tuple(tuple(r) for r in rows))
    problems = validate_ring(bad)
    assert problems
    assert any("(x,y)" in p or "[2][3]" in p for p in problems)


def test_ring_hash_agrees_with_equality():
    """Equal rings hash equal.  A copy with one wrong cell shares the cheap
    hash (name and order) but not equality, so cached results are computed
    for it afresh."""
    ring = ring_by_name("gf4")
    copy = ring_from_json_dict(ring_to_json_dict(ring))
    assert copy is not ring and copy == ring and hash(copy) == hash(ring)
    rows = [list(r) for r in ring.mul_table]
    rows[2][3] = rows[3][2] = 0  # x and x+1 lose their inverses
    bad = ring._replace(mul_table=tuple(tuple(r) for r in rows))
    assert hash(bad) == hash(ring) and bad != ring
    assert units(ring) == frozenset({1, 2, 3}) and units(bad) == frozenset({1})
    assert validate_ring(ring) == [] and validate_ring(bad)
    assert units(ring) == frozenset({1, 2, 3})


def test_validate_rejects_wrong_shape():
    ring = ring_by_name("gf2")
    bad = ring._replace(add_table=((0, 1),))
    assert validate_ring(bad) == ["add_table is not 2x2"]


# fields of the gf4 document that ring_from_json_dict accepts and on which
# validate_ring must report rather than raise, with the problems it reports
MALFORMED_GF4 = {
    "zero out of range": ({"zero": 7}, ["zero = 7 out of range"]),
    "one out of range": ({"one": 9}, ["one = 9 out of range"]),
    "2x3 rep entry": ({"rep": {2: [[0, 1, 0], [1, 1, 1]]}}, ["rep[2] is not a 2x2 bit matrix"]),
    "1-row rep entry": ({"rep": {3: [[1, 1]]}}, ["rep[3] is not a 2x2 bit matrix"]),
    "order not an int": ({"order": "4"}, ["order '4' and rep_dim 2 must be non-negative ints"]),
    "rep_dim not an int": ({"rep_dim": [2]}, ["order 4 and rep_dim [2] must be non-negative ints"]),
    "table entry not an int": (
        {"add_table": {1: [1, "0", 3, 2]}},
        ["add_table[1][1] = '0' out of range"],
    ),
    # equal to the model's 3, but no label: the check against the model sees through ==
    "table entry a float": ({"add_table": {1: [1, 0, 3.0, 2]}}, ["add_table[1][2] = 3.0 out of range"]),
}


@pytest.mark.parametrize("case", MALFORMED_GF4)
def test_validate_reports_malformed_documents(case):
    changes, expected = MALFORMED_GF4[case]
    doc = ring_to_json_dict(ring_by_name("gf4"))
    for field, value in changes.items():
        if isinstance(value, dict):
            doc[field] = [value.get(i, entry) for i, entry in enumerate(doc[field])]
        else:
            doc[field] = value
    assert validate_ring(ring_from_json_dict(doc)) == expected


def test_json_round_trip():
    for name in ALL_RINGS:
        ring = ring_by_name(name)
        doc = json.loads(json.dumps(ring_to_json_dict(ring)))
        assert ring_from_json_dict(doc) == ring


def test_json_schema_guard():
    doc = ring_to_json_dict(ring_by_name("gf2"))
    doc["schema"] = 99
    with pytest.raises(ValueError):
        ring_from_json_dict(doc)


def test_committed_fixture_still_loads():
    """The on-disk document format must stay readable and must describe the
    exact same ring the builder produces."""
    with open(DATA / "m2f2.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert ring_from_json_dict(doc) == ring_by_name("m2f2")
