import pytest

import latfuzz as lf
import oracles
from conftest import fs
from reference import (enumerate_sets, identity_relation, is_reflexive, le,
                       relation_value)


def test_upper_approx_of_partition_relation(l3, uni_x, w3):
    rel = lf.relation_from_partition(w3)
    f = fs(l3, uni_x, "0", "1/2", "1")
    assert lf.upper_approx(rel, f).displays() == ("1/2", "1", "1")


def test_identity_relation_is_unit(l3, uni_x):
    rel = identity_relation(l3, uni_x)
    for f in enumerate_sets(l3, uni_x):
        assert lf.upper_approx(rel, f) == f


def test_constant_top_argument_gives_row_joins(l3, uni_x, w3):
    rel = lf.relation_from_partition(w3)
    top = lf.constant(l3, uni_x, l3.top)
    approx = lf.upper_approx(rel, top)
    for i in range(3):
        assert approx.values[i] == l3.join_all(rel.rows[i])


def test_upper_approx_monotone_and_join_preserving(l3, uni_x, w3):
    rel = lf.relation_from_partition(w3)
    sets = list(enumerate_sets(l3, uni_x))
    for f in sets:
        for g in sets:
            join = lf.pointwise("join", f, g)
            left = lf.upper_approx(rel, join)
            right = lf.pointwise(
                "join", lf.upper_approx(rel, f), lf.upper_approx(rel, g)
            )
            assert left == right
            if le(f, g):
                assert le(lf.upper_approx(rel, f), lf.upper_approx(rel, g))


def test_relation_from_system_w3(l3, uni_x, w3):
    system = lf.system_from_partition(w3)
    rel = lf.relation_from_system(system)
    assert is_reflexive(rel)
    assert relation_value(rel, "x1", "x2") == l3.parse("1/2")
    expect = oracles.relation_from_system_table(oracles.w3_system_table(), 3)
    got = tuple(
        tuple(oracles.L3[v] for v in row) for row in rel.rows
    )
    assert got == expect


def test_relation_from_constant_one_system(l3):
    uni = lf.Universe("U1", ("u",))
    table = [l3.top] * 3
    system = lf.system_from_explicit(l3, uni, table)
    rel = lf.relation_from_system(system)
    assert rel.rows == ((l3.top,),)


def test_relation_from_system_reflexive_on_fixtures(w3, p2, q, x2p):
    for p in (w3, p2, q, x2p):
        rel = lf.relation_from_system(lf.system_from_partition(p))
        assert is_reflexive(rel)


def test_mismatch_and_budget(l3, uni_x, uni_y, w3):
    rel = lf.relation_from_partition(w3)
    g = fs(l3, uni_y, "0", "1")
    with pytest.raises(lf.MismatchError):
        lf.upper_approx(rel, g)
    with pytest.raises(lf.BudgetExceeded):
        lf.relation_from_system(lf.system_from_partition(w3), budget=5)


def test_relation_table_shape_enforced(l3, uni_x):
    with pytest.raises(lf.MismatchError):
        lf.FuzzyRelation(l3, uni_x, ((0, 0), (0, 0)))
