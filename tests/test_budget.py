"""The budget on `L^X`: each entry point refuses a space one set over its
budget with its own text and the exact cardinality, the errors that come
before the budget still do, and `errors.charge` is the only place in the
package that raises BudgetExceeded.  Each command that builds or
compares a partition's relation is charged its `|X|^2` rows before any row
is built, each homomorphism check its `|X|^2 |L|` block lookups, and
`coalg`/`dialg` their space before the first row: each answers at that
budget and exits 3 one below it."""

import ast
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import latfuzz as lf
from latfuzz import cli, partition
from latfuzz.document import load_document
from latfuzz.fuzzyset import Space
from reference import identity_map

PACKAGE = Path(lf.__file__).resolve().parent


@pytest.fixture(scope="module")
def o(l3, uni_x, w3, x2p, phi_m):
    return SimpleNamespace(
        l3=l3, uni_x=uni_x, w3=w3, phi_m=phi_m, x2p=x2p,
        system=lf.system_from_partition(w3))


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
    "transform_table": (
        lambda o, b: tuple(lf.transform_table(o.x2p, b)),
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
# budget (the documents' 3-element lattice still fits); the hom checks are
# charged only their block lookups, which fit, so their cases pin that a
# mismatch or a partition that is not identity-indexed is raised before
# anything is read: case -> (call, error type, text)
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
        lambda o: lf.check_coa_hom(o.phi_m, o.x2p, o.x2p),
        lf.MismatchError, "coalgebra homomorphism: universe mismatch"),
    "dialgebra hom universes before the budget": (
        lambda o: lf.check_dia_hom(o.phi_m, o.x2p, o.x2p),
        lf.MismatchError, "dialgebra homomorphism: universe mismatch"),
    "hom partition not identity-indexed before the budget": (
        lambda o: lf.check_dia_hom(identity_map(o.uni_x), o.w3, o.w3),
        lf.PreconditionError, "partition on X is not identity-indexed"),
}


@pytest.mark.parametrize("case", sorted(ERROR_ORDER))
def test_error_order_around_the_budget(o, case):
    call, kind, text = ERROR_ORDER[case]
    with pytest.raises(kind) as err:
        call(o)
    assert type(err.value) is kind
    assert str(err.value) == text


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
    """Only `errors.charge` constructs BudgetExceeded: `Space` calls it for
    a sweep of `L^X`, and the lattice tables, the law suite, the relation
    path and the homomorphism checks call it with their own counts."""
    sites = {
        path.name: sorted(set(_budget_error_sites(
            ast.parse(path.read_text(encoding="utf-8")))))
        for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in sites.items() if found} == {
        "errors.py": ["charge"],
    }


def _one_block(npoints: int) -> str:
    """A document on the Gödel 3-chain with the one-block partition `P` of
    `npoints` points, its identity map and its identity candidate."""
    points = [f"x{k}" for k in range(npoints)]
    return json.dumps({
        "lattice": {"kind": "godel_chain", "n": 3},
        "universes": {"X": points},
        "partitions": {"P": {"universe": "X",
                             "blocks": {"B": dict.fromkeys(points, "1")}}},
        "maps": {"id": {"source": "X", "target": "X",
                        "values": {x: x for x in points}}},
        "index_maps": {"psi": {"source": "P", "target": "P",
                               "values": {"B": "B"}}},
        "candidates": {"c": {"source": "P", "target": "P", "phi": "id",
                             "psi": "psi"}}})


# the commands that build or compare a partition's relation
RELATION_PATH = {
    "relation from-partition": ("relation", "from-partition",
                                "--partition", "P"),
    "functor f1": ("functor", "f1", "--partition", "P"),
    "check fas --cand": ("check", "fas", "--cand", "c"),
    "partition:P reference": ("check", "fas", "--map", "id",
                              "--source-relation", "partition:P",
                              "--target-relation", "partition:P"),
}


def _run(capsys, argv) -> tuple:
    code = cli.run([*argv, "--no-timing"])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


@pytest.mark.parametrize("case", sorted(RELATION_PATH))
def test_relation_path_is_charged_its_rows(capsys, case):
    """On 4 points, 16 rows: the lattice's own tables charge 9."""
    argv = [*RELATION_PATH[case], "--doc", _one_block(4)]
    code, _ = _run(capsys, [*argv, "--budget", "16"])
    assert code in (0, 1)
    code, report = _run(capsys, [*argv, "--budget", "15"])
    assert code == 3
    assert report["error"] == \
        "relation construction requires 16 evaluations, over budget 15"
    assert report["cardinality"] == 16


def test_relation_is_charged_before_any_row(capsys, monkeypatch):
    """A one-block partition of 300 points over the Gödel 3-chain: 90000
    rows at the default budget exit 3 with no row built."""

    def unreachable(p):
        raise AssertionError("relation built before the budget was charged")

    monkeypatch.setattr(partition, "relation_from_partition", unreachable)
    code, report = _run(capsys, ["relation", "from-partition",
                                 "--partition", "P",
                                 "--doc", _one_block(300)])
    assert code == 3
    assert report["error"] == \
        "relation construction requires 90000 evaluations, over budget 4096"


def _identity_indexed(npoints: int) -> str:
    """A document on the Gödel 3-chain with the crisp identity-indexed
    partition `I` of `npoints` points and its identity map."""
    points = [f"x{k}" for k in range(npoints)]
    return json.dumps({
        "lattice": {"kind": "godel_chain", "n": 3},
        "universes": {"X": points},
        "partitions": {"I": {"universe": "X", "blocks": {
            p: {q: "1" if q == p else "0" for q in points} for p in points}}},
        "maps": {"id": {"source": "X", "target": "X",
                        "values": {x: x for x in points}}}})


_HOM = ("--map", "id", "--source-partition", "I", "--target-partition", "I")
# the commands decided from the blocks
BLOCK_DECIDED = {
    "check coa-hom": ("check", "coa-hom", *_HOM),
    "check dia-hom": ("check", "dia-hom", *_HOM),
    "adjunction": ("adjunction", *_HOM),
    "transfer coa-dia": ("transfer", "coa-dia", *_HOM),
    "transfer dia-coa": ("transfer", "dia-coa", *_HOM),
}


@pytest.mark.parametrize("case", sorted(BLOCK_DECIDED))
def test_block_decided_checks_are_charged_their_lookups(capsys, case):
    """On 4 points, 4^2 * 3 = 48 lookups per check, in a space of 81."""
    argv = [*BLOCK_DECIDED[case], "--doc", _identity_indexed(4)]
    code, _ = _run(capsys, [*argv, "--budget", "48"])
    assert code == 0
    code, report = _run(capsys, [*argv, "--budget", "47"])
    assert code == 3
    assert report["error"] == \
        "homomorphism check requires 48 evaluations, over budget 47"
    assert report["cardinality"] == 48


@pytest.mark.parametrize("case", sorted(BLOCK_DECIDED))
def test_block_decided_checks_answer_past_the_space(capsys, case):
    """20 points: 3^20 sets, 1200 lookups, within the default budget."""
    code, report = _run(capsys, [*BLOCK_DECIDED[case],
                                 "--doc", _identity_indexed(20)])
    assert code == 0, report


@pytest.mark.parametrize("command", ["coalg", "dialg"])
def test_structure_table_is_charged_its_space_before_any_row(capsys,
                                                             command):
    argv = [command, "--partition", "I", "--doc", _identity_indexed(4)]
    code, report = _run(capsys, [*argv, "--budget", "81"])
    assert code == 0
    assert len(report[command + "ebra"]["table"]) == 4
    code, report = _run(capsys, [*argv, "--budget", "80"])
    assert code == 3
    assert report["error"] == \
        "structure table requires 81 evaluations, over budget 80"
    assert report["cardinality"] == 81
    assert command + "ebra" not in report
