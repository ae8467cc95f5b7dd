import pytest

import latfuzz as lf
import oracles
from conftest import FIXTURES, fs
from latfuzz.document import load_document
from latfuzz.fuzzyset import Space
from reference import (
    apply_operator,
    constant,
    constant_relation,
    enumerate_sets,
    identity_operator,
    identity_relation,
    le,
    operator_from_function,
    reference_check_operator,
    system_value,
)


@pytest.fixture(scope="module")
def w3_system(w3):
    return lf.system_from_partition(w3)


def to_fracs(l3, values):
    return tuple(oracles.L3[v] for v in values)


def test_w3_system_pins(l3, uni_x, w3_system):
    def value(*displays):
        return system_value(w3_system, fs(l3, uni_x, *displays))

    assert value("0", "1/2", "1") == l3.parse("0")
    assert value("1", "1/2", "1/2") == l3.parse("1")
    assert value("1", "1", "1") == l3.top


def test_w3_system_full_table_matches_oracle(l3, uni_x, w3_system):
    expect = oracles.w3_system_table()
    for f, v in zip(enumerate_sets(l3, uni_x), w3_system.table):
        assert oracles.L3[v] == expect[to_fracs(l3, f.values)]


def test_system_from_relation_equals_partition_route(w3, p2, q, x2p):
    for p in (w3, p2, q, x2p):
        via_rel = lf.system_from_relation(lf.relation_from_partition(p))
        direct = lf.system_from_partition(p)
        assert via_rel.table == direct.table


def test_system_from_relation_folds_each_distinct_row_once(
        monkeypatch, l3, uni_x):
    """Three points, two of them with one row: two `Space.upper` folds."""
    a, b = (l3.top, l3.bottom, l3.top), (l3.bottom, l3.top, l3.bottom)
    rel = lf.FuzzyRelation(l3, uni_x, (a, b, a))
    rows = []
    upper = Space.upper

    def counted(self, row):
        rows.append(tuple(row))
        return upper(self, row)

    monkeypatch.setattr(Space, "upper", counted)
    lf.system_from_relation(rel)
    assert rows == [a, b]


def test_identity_relation_makes_trivial_system(l3, uni_x2):
    system = lf.system_from_relation(identity_relation(l3, uni_x2))
    assert set(system.table) == {l3.top}


def test_constant_top_relation_formula(l3, uni_x2):
    rel = constant_relation(l3, uni_x2, l3.top)
    system = lf.system_from_relation(rel)
    for f, v in zip(enumerate_sets(l3, uni_x2), system.table):
        sup = l3.join_all(f.values)
        expect = l3.meet_all(l3.residuum[sup][x] for x in f.values)
        assert v == expect


def test_operator_pin_and_table(l3, uni_x, w3_system):
    op = lf.operator_from_system(w3_system)
    spike = fs(l3, uni_x, "1", "0", "0")
    assert apply_operator(op, spike).displays() == ("1", "1/2", "1/2")
    expect = oracles.operator_table(oracles.w3_system_table(), 3)
    for i, image in enumerate(op.table):
        f = lf.set_at(l3, uni_x, i)
        assert to_fracs(l3, image) == expect[to_fracs(l3, f.values)]


def test_partition_operator_is_not_the_transform_field():
    """The closure operator of a partition's system is not the transform
    field, so it cannot be computed as one: on the W3 fixture they differ at
    exactly two of the 27 sets."""
    doc = load_document(FIXTURES / "w3.json")
    p = doc.partition("W3")
    op = lf.operator_from_system(lf.system_from_partition(p))
    differ = [f.displays() for f in enumerate_sets(p.lattice, p.universe)
              if apply_operator(op, f) != lf.ft_field(p, f)]
    assert differ == [("0", "0", "1/2"), ("0", "0", "1")]


def test_operator_fixes_top_and_inflates(l3, uni_x, w3_system):
    op = lf.operator_from_system(w3_system)
    top = constant(l3, uni_x, l3.top)
    assert apply_operator(op, top) == top
    for f in enumerate_sets(l3, uni_x):
        assert le(f, apply_operator(op, f))


def test_system_from_operator_pin(l3, uni_x, w3_system):
    op = lf.operator_from_system(w3_system)
    back = lf.system_from_operator(op)
    assert system_value(back, fs(l3, uni_x, "1", "0", "0")) == l3.parse("0")
    assert system_value(back, constant(l3, uni_x, l3.top)) == l3.top


def test_identity_operator_gives_trivial_system(l3, uni_x2):
    op = identity_operator(l3, uni_x2)
    system = lf.system_from_operator(op)
    assert set(system.table) == {l3.top}


def test_check_system_on_fixture_systems(w3, x2p, p2, q):
    for p in (w3, x2p, p2, q):
        report = lf.check_system(lf.system_from_partition(p))
        assert report.all_hold, report


def test_check_system_on_parity_window():
    doc = load_document(FIXTURES / "example31.json")
    prod = lf.product_partition(doc.partition("PN2"), doc.partition("PZ2"))
    report = lf.check_system(lf.system_from_partition(prod))
    assert report.all_hold, report


def test_check_system_trivial(l3, uni_x2):
    system = lf.ClosureSystem(l3, uni_x2, (l3.top,) * 9, "explicit")
    assert lf.check_system(system).all_hold


def test_check_system_fault_is_caught(l3, uni_x2):
    # membership 1 for (1,0), (0,1) and the top set, 0 elsewhere: the meet
    # (0,0) of two members has membership 0
    table = []
    for f in enumerate_sets(l3, uni_x2):
        member = f.displays() in {("1", "0"), ("0", "1"), ("1", "1")}
        table.append(l3.top if member else l3.bottom)
    system = lf.ClosureSystem(l3, uni_x2, tuple(table), "explicit")
    report = lf.check_system(system)
    assert report.holds("axiom_i")
    assert not report.holds("axiom_ii")
    assert "pair" in report.counterexamples["axiom_ii"]


def test_check_system_is_cached(w3):
    """Nothing is cached on the system: a second check recomputes an equal
    report."""
    system = lf.system_from_partition(w3)
    assert lf.check_system(system) == lf.check_system(system)


def test_cached_system_check_still_enforces_budget(w3):
    system = lf.system_from_partition(w3)
    lf.check_system(system)
    with pytest.raises(lf.BudgetExceeded):
        lf.check_system(system, budget=5)


def test_check_operator_on_derived(w3, x2p):
    for p in (w3, x2p):
        op = lf.operator_from_system(lf.system_from_partition(p))
        report = reference_check_operator(op)
        assert report.all_hold, report


def test_check_operator_identity_and_constant_top(l3, uni_x2):
    assert reference_check_operator(identity_operator(l3, uni_x2)).all_hold
    top = constant(l3, uni_x2, l3.top)
    const_top = operator_from_function(l3, uni_x2, lambda f: top)
    report = reference_check_operator(const_top)
    assert report.all_hold, report


def test_check_operator_catches_deflation(l3, uni_x2):
    bottom = constant(l3, uni_x2, l3.bottom)
    crush = operator_from_function(l3, uni_x2, lambda f: bottom)
    report = reference_check_operator(crush)
    assert not report.holds("axiom_i")
    assert not report.holds("axiom_ii")


def test_roundtrip_relation_reports(l3, uni_x2, w3):
    rel = lf.relation_from_partition(w3)
    assert lf.roundtrip_relation(rel) == (
        (("x1", "x3"), l3.bottom, l3.parse("1/2")),
    )
    ident = identity_relation(l3, uni_x2)
    assert lf.roundtrip_relation(ident) == ()
    bot = constant_relation(l3, uni_x2, l3.bottom)
    assert lf.roundtrip_relation(bot) == (
        (("x1", "x1"), l3.bottom, l3.top),
        (("x2", "x2"), l3.bottom, l3.top),
    )


def test_roundtrip_system_reports(w3, x2p):
    assert lf.roundtrip_system(lf.system_from_partition(w3)) == ()
    assert lf.roundtrip_system(lf.system_from_partition(x2p)) == ()


def test_roundtrip_system_fault_not_exact(l3, uni_x2):
    # the fault system is not meet-stable, so the operator round trip
    # repairs it and the report must show it
    table = []
    for f in enumerate_sets(l3, uni_x2):
        member = f.displays() in {("1", "0"), ("0", "1"), ("1", "1")}
        table.append(l3.top if member else l3.bottom)
    system = lf.ClosureSystem(l3, uni_x2, tuple(table), "explicit")
    assert lf.roundtrip_system(system)


def test_budget_errors(w3):
    with pytest.raises(lf.BudgetExceeded):
        lf.system_from_partition(w3, budget=5)
    system = lf.system_from_partition(w3)
    with pytest.raises(lf.BudgetExceeded):
        lf.operator_from_system(system, budget=5)
    with pytest.raises(lf.BudgetExceeded):
        lf.roundtrip_system(system, budget=5)


def test_partition_route_charges_the_budget_before_the_relation(
        monkeypatch, w3):
    """The |X|^2 relation of F1 is built only within the budget."""
    def unreachable(p):
        raise AssertionError("relation built before the budget was charged")

    monkeypatch.setattr(lf.closure, "relation_from_partition", unreachable)
    with pytest.raises(lf.BudgetExceeded):
        lf.system_from_partition(w3, budget=5)
