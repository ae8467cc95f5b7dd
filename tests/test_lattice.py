import json
import re
from fractions import Fraction

import pytest

import latfuzz as lf
import oracles
from conftest import FIXTURES
from latfuzz.lattice import _fraction_labels


def grid23():
    coords = [(i, j) for i in range(2) for j in range(3)]
    displays = [f"{i}{j}" for i, j in coords]
    leq = [[a[0] <= b[0] and a[1] <= b[1] for b in coords] for a in coords]
    index = {c: k for k, c in enumerate(coords)}
    tensor = [[index[(min(a[0], b[0]), min(a[1], b[1]))] for b in coords]
              for a in coords]
    return lf.from_tables(displays, leq, tensor, name="grid23")


ALL_LATTICES = [
    *[lf.godel_chain(n) for n in range(3, 7)],
    *[lf.lukasiewicz_chain(n) for n in range(3, 7)],
    *[lf.boolean_algebra(k) for k in range(1, 4)],
    grid23(),
]


@pytest.mark.parametrize("lat", ALL_LATTICES, ids=lambda l: l.name)
def test_adjointness_exhaustive(lat):
    for a in lat.elements():
        for b in lat.elements():
            for c in lat.elements():
                assert lat.leq[lat.tensor[a][b]][c] == \
                    lat.leq[a][lat.residuum[b][c]]


@pytest.mark.parametrize("lat", ALL_LATTICES, ids=lambda l: l.name)
def test_residuum_top_iff_leq(lat):
    for a in lat.elements():
        for b in lat.elements():
            assert (lat.residuum[a][b] == lat.top) == lat.leq[a][b]


@pytest.mark.parametrize("lat", ALL_LATTICES, ids=lambda l: l.name)
def test_law_suite_passes(lat):
    report = lf.law_suite(lat)
    assert report.all_hold, report


@pytest.mark.parametrize("lat", ALL_LATTICES, ids=lambda l: l.name)
def test_display_roundtrip_and_unit(lat):
    for a in lat.elements():
        assert lat.parse(lat.displays[a]) == a
        assert lat.tensor[a][lat.top] == a


def test_value_quotes_are_cut_at_60_characters():
    lat = lf.godel_chain(3)
    for value, quoted in ((["a" * 10] * 4, repr(["a" * 10] * 4)),
                          ("b" * 58, repr("b" * 58)),
                          ("b" * 59, repr("b" * 59)[:60] + "...")):
        with pytest.raises(lf.ElementError) as err:
            lat.parse(value)
        assert str(err.value) == \
            f"{quoted} is not an element of lattice godel_chain(3)"


def test_godel3_values():
    lat = lf.godel_chain(3)
    assert lat.displays == ("0", "1/2", "1")
    half, zero = lat.parse("1/2"), lat.parse("0")
    assert lat.residuum[half][zero] == zero
    for a in lat.elements():
        for b in lat.elements():
            assert lat.tensor[a][b] == min(a, b)
            assert lat.meet[a][b] == min(a, b)
            assert lat.join[a][b] == max(a, b)


def test_lukasiewicz5_values():
    lat = lf.lukasiewicz_chain(5)
    r = lambda s: lat.parse(s)
    assert lat.residuum[r("3/4")][r("1/2")] == r("3/4")
    assert lat.tensor[r("1/4")][r("1/2")] == r("0")
    # spot-check against the closed forms on exact rationals
    vals = [Fraction(k, 4) for k in range(5)]
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            assert lat.displays[lat.tensor[i][j]] == str(oracles.luk_tensor(a, b))
            assert lat.displays[lat.residuum[i][j]] == str(oracles.luk_res(a, b))


def test_boolean_displays_and_order():
    lat = lf.boolean_algebra(2)
    assert lat.displays == ("{}", "{a}", "{b}", "{a,b}")
    assert lat.bottom == lat.parse("{}")
    assert lat.top == lat.parse("{a,b}")
    a, b = lat.parse("{a}"), lat.parse("{b}")
    assert lat.meet[a][b] == lat.bottom
    assert lat.join[a][b] == lat.top


def test_zero_divisor_scans():
    for n in range(3, 7):
        assert lf.zero_divisor_scan(lf.godel_chain(n)) == ()
        assert lf.zero_divisor_scan(lf.lukasiewicz_chain(n))
    luk5 = lf.zero_divisor_scan(lf.lukasiewicz_chain(5))
    assert ("1/4", "1/2") in luk5
    bool2 = lf.zero_divisor_scan(lf.boolean_algebra(2))
    assert bool2 == (("{a}", "{b}"), ("{b}", "{a}"))
    assert not lf.zero_divisor_scan(lf.godel_chain(4))
    assert lf.zero_divisor_scan(lf.lukasiewicz_chain(5))


def test_derived_residuum_matches_explicit():
    explicit = lf.lukasiewicz_chain(5)
    n = len(explicit)
    derived = lf.from_tables(
        explicit.displays,
        explicit.leq,
        explicit.tensor,
        name="luk5_derived",
    )
    assert derived.residuum == explicit.residuum


def bowtie_tables():
    names = ["0", "a", "b", "c", "d", "1"]
    below = {
        "0": set(names), "a": {"a", "c", "d", "1"}, "b": {"b", "c", "d", "1"},
        "c": {"c", "1"}, "d": {"d", "1"}, "1": {"1"},
    }
    leq = [[y in below[x] for y in names] for x in names]
    tensor = [[0] * 6 for _ in range(6)]
    return names, leq, tensor


def test_non_lattice_order_rejected():
    names, leq, tensor = bowtie_tables()
    with pytest.raises(lf.LatticeBuildError, match="order lacks meets"):
        lf.from_tables(names, leq, tensor, name="bowtie")


def test_non_commutative_tensor_rejected():
    base = grid23()
    tensor = [list(row) for row in base.tensor]
    tensor[1][3] = 5
    with pytest.raises(lf.LatticeBuildError, match="not commutative"):
        lf.from_tables(base.displays, base.leq, tensor, name="corrupt")


def test_non_associative_tensor_rejected():
    lat = lf.godel_chain(4)
    tensor = [list(row) for row in lat.tensor]
    # commutative with unit, but (a*b)*b = a while a*(b*b) = 0
    tensor[1][1] = 0
    tensor[1][2] = tensor[2][1] = 1
    tensor[2][2] = 1
    with pytest.raises(lf.LatticeBuildError, match="not associative"):
        lf.from_tables(lat.displays, lat.leq, tensor, name="nonassoc")


def test_bad_explicit_residuum_rejected():
    lat = lf.godel_chain(3)
    res = [list(row) for row in lat.residuum]
    res[1][0] = 2  # claims 1/2 -> 0 = 1
    with pytest.raises(lf.LatticeBuildError, match="adjointness"):
        lf.from_tables(lat.displays, lat.leq, lat.tensor, res, name="badres")


def test_unknown_kind_rejected():
    with pytest.raises(lf.LatticeBuildError, match="unknown lattice kind"):
        lf.build({"kind": "product_chain", "n": 5})


def test_binary_errors():
    lat = lf.godel_chain(3)
    with pytest.raises(lf.ElementError):
        lat.check_element(7)
    with pytest.raises(lf.ElementError):
        lat.parse("2/3")


def test_law_suite_catches_corrupted_residuum():
    lat = lf.lukasiewicz_chain(5)
    res = [list(row) for row in lat.residuum]
    res[1][0] = 1  # 1/4 -> 0 becomes 1/4 instead of 3/4
    corrupted = lf.replace(
        lat, residuum=tuple(tuple(r) for r in res), name="luk5_corrupt"
    )
    report = lf.law_suite(corrupted)
    assert not report.all_hold
    assert not report.holds("viii")
    assert report.counterexamples["viii"]


def test_law_suite_budget():
    with pytest.raises(lf.BudgetExceeded):
        lf.law_suite(lf.boolean_algebra(4))
    lf.law_suite(lf.boolean_algebra(4), budget=2 ** 21)


def test_chain_builders_reject_tiny():
    with pytest.raises(lf.LatticeBuildError):
        lf.godel_chain(1)
    with pytest.raises(lf.LatticeBuildError):
        lf.lukasiewicz_chain(0)
    with pytest.raises(lf.LatticeBuildError):
        lf.boolean_algebra(5)


def test_custom_chain_labels():
    lat = lf.godel_chain(4, labels=["0", "0.2", "0.4", "1"])
    assert lat.displays == ("0", "0.2", "0.4", "1")
    assert lf.law_suite(lat).all_hold


def _chain2_tables():
    lat = lf.godel_chain(2)
    return [list(r) for r in lat.leq], [list(r) for r in lat.tensor], \
        [list(r) for r in lat.residuum]


@pytest.mark.parametrize("table, row, value, message", [
    ("leq", 0, [True], "leq table must be 2x2"),
    ("leq", 1, [False, True, False], "leq table must be 2x2"),
    ("tensor", 1, [0], "tensor table must be 2x2"),
    ("residuum", 0, [1, 1, 1], "residuum table must be 2x2"),
    ("tensor", 0, [0, -1], "tensor[0][1] = -1 is not an ordinal in 0..1"),
    ("tensor", 1, [0, 2], "tensor[1][1] = 2 is not an ordinal in 0..1"),
    ("residuum", 1, [-2, 1], "residuum[1][0] = -2 is not an ordinal in 0..1"),
    ("residuum", 0, [1, "1"], "residuum[0][1] = '1' is not an ordinal"),
])
def test_malformed_tables_rejected(table, row, value, message):
    tables = dict(zip(("leq", "tensor", "residuum"), _chain2_tables()))
    tables[table][row] = value
    with pytest.raises(lf.LatticeBuildError, match=re.escape(message)):
        lf.from_tables(("0", "1"), tables["leq"], tables["tensor"],
                       tables["residuum"])


def test_extra_rows_rejected():
    leq, tensor, residuum = _chain2_tables()
    with pytest.raises(lf.LatticeBuildError, match="tensor table must be 2x2"):
        lf.from_tables(("0", "1"), leq, tensor + [[0, 1]], residuum)


def test_fraction_labels_match_fraction():
    for n in range(2, 101):
        assert _fraction_labels(n) == \
            tuple(str(Fraction(k, n - 1)) for k in range(n))
    assert lf.lukasiewicz_chain(7).displays == _fraction_labels(7)


@pytest.mark.parametrize("spec, n", [
    ({"kind": "godel_chain", "n": 64}, 64),
    ({"kind": "lukasiewicz_chain", "n": 12}, 12),
    ({"kind": "boolean", "atoms": 2}, 4),
    (json.loads((FIXTURES / "grid23.json").read_text())["lattice"], 6),
])
def test_build_charges_lattice_tables_to_budget(spec, n):
    assert len(lf.build(spec, budget=n * n)) == n
    with pytest.raises(lf.BudgetExceeded) as exc:
        lf.build(spec, budget=n * n - 1)
    assert exc.value.cardinality == n * n
    assert str(exc.value) == \
        f"lattice tables requires {n * n} evaluations, over budget {n * n - 1}"


@pytest.mark.parametrize("spec, message", [
    ({"kind": "godel_chain", "n": -100}, "needs n >= 2"),
    ({"kind": "lukasiewicz_chain", "n": 1}, "needs n >= 2"),
    ({"kind": "boolean", "atoms": 100}, "1 <= atoms <= 4"),
    ({"kind": "table", "elements": ["0"], "leq": [[True]], "tensor": [["0"]]},
     "at least two elements"),
])
def test_budget_charge_leaves_builder_errors(spec, message):
    with pytest.raises(lf.LatticeBuildError, match=re.escape(message)):
        lf.build(spec, budget=1)
