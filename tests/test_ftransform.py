import pytest

import latfuzz as lf
import oracles
from conftest import FIXTURES, fs
from latfuzz.document import load_document
from reference import constant, enumerate_sets


def test_w3_components_and_field(l3, uni_x, w3):
    f = fs(l3, uni_x, "0", "1/2", "1")
    assert w3.names == ("A1", "A2")
    assert lf.ft_transform(w3, f) == (l3.parse("1/2"), l3.top)
    assert lf.ft_field(w3, f).displays() == ("1/2", "1", "1")


def test_x2_field(l3, uni_x2, x2p):
    f = fs(l3, uni_x2, "0", "1")
    assert lf.ft_field(x2p, f).displays() == ("1/2", "1")


def test_constants_are_fixed(l3, w3, x2p):
    for p in (w3, x2p):
        for a in l3.elements():
            const = constant(l3, p.universe, a)
            assert lf.ft_transform(p, const) == (a,) * len(p.blocks)
            assert lf.ft_field(p, const) == const


def test_bottom_maps_to_bottom(l3, w3):
    bottom = constant(l3, w3.universe, l3.bottom)
    assert lf.ft_field(w3, bottom) == bottom


def test_component_matches_oracle_everywhere(l3, uni_x, w3):
    for i, f in enumerate(enumerate_sets(l3, uni_x)):
        frac = tuple(oracles.L3[v] for v in f.values)
        expect = oracles.field(oracles.W3_BLOCKS, oracles.W3_XI, frac)
        got = tuple(oracles.L3[v] for v in lf.ft_field(w3, f).values)
        assert got == expect


def test_errors(l3, uni_x, uni_y, w3):
    with pytest.raises(lf.PartitionError):
        w3.block_index("A9")
    g = fs(l3, uni_y, "0", "1")
    with pytest.raises(lf.MismatchError):
        lf.ft_field(w3, g)


def test_law_suite_on_fixtures(w3, x2p):
    for p in (w3, x2p):
        report = lf.ftransform.transform_law_suite(p)
        assert report.all_hold, report


def test_law_suite_on_parity_window():
    doc = load_document(FIXTURES / "example31.json")
    prod = lf.product_partition(doc.partition("PN2"), doc.partition("PZ2"))
    report = lf.ftransform.transform_law_suite(prod)
    assert report.all_hold, report


# Tensor rows replaced by hand, on the Gödel 3-chain (0, 1/2, 1 are
# ordinals 0, 1, 2) or, for rows of four, on boolean(2) ({}, {a}, {b},
# {a,b}).  A Gödel row [0, 1, 0] is not monotone, and a top row other than
# [0, 1, 2] makes top no unit.  On a chain a monotone one-point row
# preserves joins, so only the boolean case tells the two laws apart:
# {a}*{a} = {} keeps every row monotone, but {a}*({a} v {b}) = {a} is not
# {a}*{a} v {a}*{b} = {}.
BASES = {3: lf.godel_chain(3), 4: lf.boolean_algebra(2)}
CORRUPTED_TENSORS = [
    ({1: (0, 1, 0)},
     {"monotone", "tensor_scaling", "join_preserving", "meet_subhomomorphism"}),
    ({2: (0, 1, 1)}, {"constant", "inflationary"}),
    ({2: (0, 1, 0)},
     {"constant", "monotone", "tensor_scaling", "join_preserving",
      "meet_subhomomorphism", "inflationary"}),
    ({1: (0, 0, 0, 1)}, {"join_preserving", "tensor_scaling"}),
]


def corrupted_partition(rows):
    """Blocks A = (top, 1) and B = (bottom, top) on (x0, x1), over the base
    lattice of `rows` with those tensor rows."""
    base = BASES[len(next(iter(rows.values())))]
    tensor = tuple(rows.get(a, row) for a, row in enumerate(base.tensor))
    lat = lf.replace(base, tensor=tensor)
    uni = lf.Universe("X", ("x0", "x1"))
    return lf.validate_partition(uni, [
        ("A", lf.FuzzySet(lat, uni, (lat.top, 1))),
        ("B", lf.FuzzySet(lat, uni, (lat.bottom, lat.top))),
    ])


@pytest.mark.parametrize("rows, failing", CORRUPTED_TENSORS)
def test_law_suite_clauses_can_fail(rows, failing):
    p = corrupted_partition(rows)
    found = lf.ftransform.transform_law_suite(p).counterexamples
    assert set(found) == failing
    assert all(found.values())


def test_law_suite_budget(w3):
    with pytest.raises(lf.BudgetExceeded):
        lf.ftransform.transform_law_suite(w3, budget=10)
