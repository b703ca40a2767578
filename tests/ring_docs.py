"""Rings from their JSON documents, for the tests.

``rings.ring_to_json_dict`` writes the on-disk fixture format; the package
never reads a ring document back, so the reader lives here.  It checks the
schema only and builds whatever the document holds, which is how the tests
make the malformed rings that ``validate_ring`` must report on.
"""

from ringline import gf2
from ringline.rings import Ring


def ring_from_json_dict(doc):
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported ring document schema: {doc.get('schema')!r}")
    return Ring(
        name=doc["name"],
        order=doc["order"],
        zero=doc["zero"],
        one=doc["one"],
        add_table=tuple(tuple(row) for row in doc["add_table"]),
        mul_table=tuple(tuple(row) for row in doc["mul_table"]),
        rep_dim=doc["rep_dim"],
        rep=tuple(gf2.rows_from_lists(m) for m in doc["rep"]),
    )
