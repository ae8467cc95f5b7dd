"""The budget on `L^X`: each entry point refuses a space one set over its
budget with its own text and the exact cardinality, the errors that come
before the budget still do, and `fuzzyset.Space` is the only place in the
package where a sweep over `L^X` is charged."""

import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

import latfuzz as lf
from latfuzz.document import load_document
from latfuzz.fuzzyset import Space
from reference import identity_map

PACKAGE = Path(lf.__file__).resolve().parent


@pytest.fixture(scope="module")
def o(l3, uni_x, w3, x2p, phi_m):
    return SimpleNamespace(
        l3=l3, uni_x=uni_x, w3=w3, phi_m=phi_m, x2p=x2p,
        system=lf.system_from_partition(w3),
        coa=lf.coalgebra_from_partition(x2p),
        dia=lf.dialgebra_from_partition(x2p))


def _system_doc(entries):
    return {"lattice": {"kind": "godel_chain", "n": 3},
            "universes": {"X": ["x1", "x2", "x3"]},
            "systems": {"S": {"universe": "X", "entries": entries}}}


def _full_system_doc(o):
    return _system_doc([[list(o.l3.displays[v] for v in values), "1"]
                        for values in Space(o.l3, o.uni_x).values()])


# entry point -> (call at a budget, `what` of its error, size of its space,
# or |L|^3 for the lattice law suite); each is called one below that size
OVER_BUDGET = {
    "system_from_explicit": (
        lambda o, b: lf.system_from_explicit(
            o.l3, o.uni_x, [o.l3.top] * 27, b),
        "closure system table", 27),
    "operator_from_system": (
        lambda o, b: lf.operator_from_system(o.system, b),
        "closure operator construction", 27),
    "check_system": (
        lambda o, b: lf.check_system(o.system, b),
        "closure system check", 27),
    "law_suite": (
        lambda o, b: lf.law_suite(o.l3, b), "law suite", 27),
    "transform_law_suite": (
        lambda o, b: lf.transform_law_suite(o.w3, b),
        "transform law suite", 27),
    "dialgebra_from_partition": (
        lambda o, b: lf.dialgebra_from_partition(o.x2p, b),
        "structure table", 9),
    "document systems table": (
        lambda o, b: load_document(_full_system_doc(o), b),
        "system S table", 27),
}


@pytest.mark.parametrize("case", sorted(OVER_BUDGET))
def test_over_budget_text_and_cardinality(o, case):
    call, what, size = OVER_BUDGET[case]
    call(o, size)  # the space itself fits
    with pytest.raises(lf.BudgetExceeded) as err:
        call(o, size - 1)
    assert str(err.value) == \
        f"{what} requires {size} evaluations, over budget {size - 1}"
    assert err.value.cardinality == size


# errors that win over the budget, or lose to it, with every space over
# budget (the documents' 3-element lattice still fits):
# case -> (call, error type, text)
ERROR_ORDER = {
    "malformed system entry before the budget": (
        lambda o: load_document(_system_doc([5]), 26),
        lf.DocumentError, "system S: entries are [value-tuple, value] pairs"),
    "unknown system entry before the budget": (
        lambda o: load_document(_system_doc([[["0", "0", "2"], "1"]]), 26),
        lf.DocumentError, "'2' is not an element of lattice godel_chain(3)"),
    "short system entry before the budget": (
        lambda o: load_document(_system_doc([[["0", "0"], "1"]]), 26),
        lf.DocumentError, "system S: tuple arity does not match X"),
    "duplicate system entry before the budget": (
        lambda o: load_document(_system_doc([[["0", "1", "0"], "1"],
                                             [["0", "1", "0"], "0"]]), 26),
        lf.DocumentError, "system S: duplicate entry for ['0', '1', '0']"),
    "unknown system member before the budget": (
        lambda o: load_document(_system_doc([[["0", "1", "0"], "2"]]), 26),
        lf.DocumentError, "'2' is not an element of lattice godel_chain(3)"),
    "coalgebra hom universes before the budget": (
        lambda o: lf.check_coa_hom(o.phi_m, o.coa, o.coa, 1),
        lf.MismatchError, "coalgebra homomorphism: universe mismatch"),
    "coalgebra hom views before the budget": (
        lambda o: lf.check_coa_hom(
            identity_map(o.x2p.universe), o.dia, o.dia, 1),
        lf.MismatchError, "check_coa_hom needs a coalgebra table, "
                          "got a dialgebra"),
    "dialgebra hom universes before the budget": (
        lambda o: lf.check_dia_hom(o.phi_m, o.dia, o.dia, 1),
        lf.MismatchError, "dialgebra homomorphism: universe mismatch"),
    "dialgebra hom views before the budget": (
        lambda o: lf.check_dia_hom(
            identity_map(o.x2p.universe), o.coa, o.coa, 1),
        lf.MismatchError, "check_dia_hom needs a dialgebra table, "
                          "got a coalgebra"),
}


@pytest.mark.parametrize("case", sorted(ERROR_ORDER))
def test_error_order_around_the_budget(o, case):
    call, kind, text = ERROR_ORDER[case]
    with pytest.raises(kind) as err:
        call(o)
    assert type(err.value) is kind
    assert str(err.value) == text


def test_two_spaces_charge_the_source_first(o, l3, uni_x, uni_x2):
    """`check_dia_hom` sizes the source space, then the target: with both
    over budget the source is named, with only the target over budget the
    target is."""
    into = lf.UniverseMap(uni_x2, uni_x, (0, 1))
    dy = lf.StructureTable(l3, uni_x, ((l3.top,) * 27,) * 3, "top",
                           "dialgebra")
    for budget, size in ((8, 9), (26, 27)):
        with pytest.raises(lf.BudgetExceeded) as err:
            lf.check_dia_hom(into, o.dia, dy, budget)
        assert err.value.cardinality == size
        assert str(err.value).startswith("homomorphism check requires")


def _budget_error_sites(tree, scope=""):
    """The qualified names of the functions that construct BudgetExceeded."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _budget_error_sites(node, f"{scope}{node.name}.")
        elif isinstance(node, ast.Call) and "BudgetExceeded" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            yield scope.rstrip(".")
        else:
            yield from _budget_error_sites(node, scope)


def test_the_kernel_is_the_one_charge_point_for_sweeps():
    """Only `Space` sizes a sweep against the budget; `lattice.py` charges
    lattice tables and law-suite work, which are not sweeps of `L^X`."""
    sites = {
        path.name: sorted(set(_budget_error_sites(
            ast.parse(path.read_text(encoding="utf-8")))))
        for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in sites.items() if found} == {
        "fuzzyset.py": ["Space.__init__"],
        "lattice.py": ["_charge", "law_suite"],
    }
