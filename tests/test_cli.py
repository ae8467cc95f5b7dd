import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, assert_cli_digest
from latfuzz import cli

W3 = str(FIXTURES / "w3.json")
EX31 = str(FIXTURES / "example31.json")
GRID = str(FIXTURES / "grid23.json")
BAD_ORDER = str(FIXTURES / "errors" / "bad_order.json")
CORRUPT = str(FIXTURES / "errors" / "corrupt_tensor.json")
OVER_BUDGET = str(FIXTURES / "errors" / "over_budget.json")


def run(capsys, *argv):
    code = cli.run([*argv, "--no-timing"])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


# every documented subcommand, on the shipped fixture corpus
CORPUS = [
    ("validate", "--doc", W3),
    ("ft", "--doc", W3, "--partition", "W3", "--set", "ramp_up"),
    ("closure", "from-partition", "--doc", W3, "--partition", "W3"),
    ("closure", "from-relation", "--doc", W3, "--relation", "partition:W3"),
    ("closure", "from-operator", "--doc", W3, "--system", "partition:W3"),
    ("operator", "from-system", "--doc", W3, "--system", "partition:W3"),
    ("relation", "from-partition", "--doc", W3, "--partition", "W3"),
    ("relation", "from-system", "--doc", W3, "--system", "partition:W3"),
    ("check", "fp", "--doc", W3, "--cand", "m_half"),
    ("check", "fas", "--doc", W3, "--cand", "m_half"),
    ("check", "fas", "--doc", W3, "--map", "id_X2", "--source-relation",
     "R_id_X2", "--target-relation", "R_top_X2"),
    ("check", "fcss", "--doc", W3, "--cand", "m_half"),
    ("check", "fcs", "--doc", W3, "--cand", "m_half"),
    ("check", "coa-hom", "--doc", W3, "--map", "swap",
     "--source-partition", "X2P", "--target-partition", "X2P"),
    ("check", "dia-hom", "--doc", W3, "--map", "collapse",
     "--source-partition", "X2P", "--target-partition", "SP"),
    ("functor", "f1", "--doc", W3, "--partition", "W3"),
    ("functor", "f2", "--doc", W3, "--relation", "partition:W3"),
    ("functor", "f2inv", "--doc", W3, "--system", "partition:W3"),
    ("functor", "f3", "--doc", W3, "--partition", "W3"),
    ("functor", "f4", "--doc", W3, "--system", "partition:W3"),
    ("functor", "f4inv", "--doc", W3, "--system", "partition:W3"),
    ("roundtrip", "f2", "--doc", W3, "--relation", "partition:W3"),
    ("roundtrip", "f2", "--doc", W3, "--relation", "R_bot_X2"),
    ("roundtrip", "f4", "--doc", W3, "--system", "partition:W3"),
    ("roundtrip", "coa-dia", "--doc", W3, "--partition", "X2P"),
    ("product", "fps", "--doc", W3, "--left", "Q", "--right", "P2",
     "--pairing", "pair_mhalf_id"),
    ("diagnostic", "index-square", "--doc", W3, "--cand", "m_half"),
    ("laws", "lattice", "--doc", GRID),
    ("laws", "ftransform", "--doc", W3, "--partition", "W3"),
    ("laws", "closure", "--doc", W3, "--system", "partition:W3"),
    ("coalg", "--doc", W3, "--partition", "X2P"),
    ("dialg", "--doc", W3, "--partition", "X2P"),
    ("adjunction", "--doc", W3, "--map", "swap",
     "--source-partition", "X2P", "--target-partition", "X2P"),
    ("transfer", "coa-dia", "--doc", W3, "--map", "swap",
     "--source-partition", "X2P", "--target-partition", "X2P"),
    ("transfer", "coa-dia", "--doc", W3, "--map", "collapse",
     "--source-partition", "X2P", "--target-partition", "SP"),
]


@pytest.mark.parametrize("argv", CORPUS, ids=lambda a: " ".join(a[:2]))
def test_subcommands_succeed_and_are_deterministic(capsys, argv):
    full = [*argv, "--no-timing"]
    outs = []
    for _ in range(2):
        code = cli.run(full)
        captured = capsys.readouterr()
        assert code == 0, (captured.out, captured.err)
        outs.append(captured.out.encode())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["verdict"] in ("ok", "proviso-unmet")
    assert_cli_digest(full, outs[0], code)


def test_check_fp_reports_witness(capsys):
    code, report, _ = run(capsys, "check", "fp", "--doc", W3,
                          "--cand", "m_half")
    assert code == 0
    assert report["witness"] == "1/2"
    assert report["attained_at"] == ["A1", "x2"]


def test_check_fp_failure_exit_and_counterexample(capsys):
    code, report, _ = run(capsys, "check", "fp", "--doc", W3,
                          "--cand", "m_half_broken")
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["witness"] == "0"
    assert report["counterexample"] == ["A1", "x2"]


def test_budget_exceeded_exit_and_cardinality(capsys):
    code, report, _ = run(capsys, "closure", "from-partition",
                          "--doc", OVER_BUDGET, "--partition", "P10")
    assert code == 3
    assert report["verdict"] == "budget-exceeded"
    assert report["cardinality"] == 1048576
    assert "1048576" in report["error"]


def test_input_error_exits_2(capsys):
    code, report, err = run(capsys, "validate", "--doc", BAD_ORDER)
    assert code == 2
    assert report is None
    assert "order lacks meets" in err
    code, _, err = run(capsys, "validate", "--doc", CORRUPT)
    assert code == 2
    assert "not commutative" in err
    code, _, err = run(capsys, "validate", "--doc", "/nonexistent.json")
    assert code == 2
    code, _, err = run(capsys, "check", "fp", "--doc", W3, "--cand", "nope")
    assert code == 2
    assert "no candidate" in err


def test_missing_construction_option_exits_2(capsys):
    code, report, err = run(capsys, "closure", "from-relation", "--doc", W3)
    assert code == 2 and report is None
    assert "needs --relation" in err
    code, _, err = run(capsys, "check", "fas", "--doc", W3, "--map", "id_X2")
    assert code == 2
    assert "needs --source-relation" in err


def test_laws_closure_fault_fails(capsys):
    code, report, _ = run(capsys, "laws", "closure", "--doc", W3,
                          "--system", "S_fault")
    assert code == 1
    assert report["check"]["axiom_ii"] is False
    assert "pair" in report["check"]["counterexamples"]["axiom_ii"]


FUNCTOR_ALIASES = [
    ("f1", ("relation", "from-partition", "--partition", "W3")),
    ("f2", ("closure", "from-relation", "--relation", "partition:W3")),
    ("f2inv", ("relation", "from-system", "--system", "partition:W3")),
    ("f3", ("closure", "from-partition", "--partition", "W3")),
    ("f4", ("operator", "from-system", "--system", "partition:W3")),
    ("f4inv", ("closure", "from-operator", "--system", "partition:W3")),
]


@pytest.mark.parametrize("name, construction", FUNCTOR_ALIASES,
                         ids=[name for name, _ in FUNCTOR_ALIASES])
def test_functor_is_its_construction(capsys, name, construction):
    options = construction[2:]
    code, via_functor, _ = run(capsys, "functor", name, "--doc", W3, *options)
    code2, direct, _ = run(capsys, *construction[:2], "--doc", W3, *options)
    assert code == code2 == 0
    assert via_functor.pop("command") == f"functor {name}"
    assert direct.pop("command") == " ".join(construction[:2])
    assert via_functor == direct


def test_object_commutation_via_cli(capsys):
    _, direct, _ = run(capsys, "functor", "f3", "--doc", W3,
                       "--partition", "W3")
    _, via_rel, _ = run(capsys, "functor", "f2", "--doc", W3,
                        "--relation", "partition:W3")
    assert direct["system"]["entries"] == via_rel["system"]["entries"]


def test_reference_prefixes_resolve_recursively(capsys):
    # the system of the relation of W3 yields W3's relation again
    code, nested, _ = run(capsys, "relation", "from-system", "--doc", W3,
                          "--system", "relation:partition:W3")
    code2, direct, _ = run(capsys, "relation", "from-system", "--doc", W3,
                           "--system", "partition:W3")
    assert code == code2 == 0
    assert nested == direct


def test_roundtrip_f2_reports_w3_gap(capsys):
    _, report, _ = run(capsys, "roundtrip", "f2", "--doc", W3,
                       "--relation", "partition:W3")
    assert report["verdict"] == "ok"
    assert report["roundtrip"]["exact"] is False
    assert report["roundtrip"]["mismatches"] == [
        {"at": ["x1", "x3"], "original": "0", "mapped_back": "1/2"},
    ]


def test_roundtrip_f4_w3_exact(capsys):
    _, report, _ = run(capsys, "roundtrip", "f4", "--doc", W3,
                       "--system", "partition:W3")
    assert report["roundtrip"]["exact"] is True


def test_transfer_proviso_verdict(capsys):
    code, report, _ = run(capsys, "transfer", "coa-dia", "--doc", W3,
                          "--map", "collapse",
                          "--source-partition", "X2P",
                          "--target-partition", "SP")
    assert code == 0
    assert report["verdict"] == "proviso-unmet"


def test_budget_flag_and_env(capsys, monkeypatch):
    code, report, _ = run(capsys, "closure", "from-partition", "--doc", W3,
                          "--partition", "W3", "--budget", "5")
    assert code == 3
    monkeypatch.setenv(cli.ENV_BUDGET, "5")
    code, report, _ = run(capsys, "closure", "from-partition", "--doc", W3,
                          "--partition", "W3")
    assert code == 3
    # explicit flag wins over the environment
    code, report, _ = run(capsys, "closure", "from-partition", "--doc", W3,
                          "--partition", "W3", "--budget", "64")
    assert code == 0


@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_flag_below_one_is_input_error(capsys, value):
    code, report, err = run(capsys, "validate", "--doc", W3,
                            "--budget", value)
    assert code == 2
    assert report is None
    assert f"--budget must be at least 1, got {value}" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_env_below_one_is_input_error(capsys, monkeypatch, value):
    monkeypatch.setenv(cli.ENV_BUDGET, value)
    code, report, err = run(capsys, "validate", "--doc", W3)
    assert code == 2
    assert report is None
    assert f"{cli.ENV_BUDGET} must be at least 1, got {value}" in err


def test_timing_field_present_without_flag(capsys):
    code = cli.run(["validate", "--doc", W3])
    out = capsys.readouterr().out
    assert code == 0
    assert "timing_ms" in json.loads(out)


def test_ft_subcommand_payload(capsys):
    _, report, _ = run(capsys, "ft", "--doc", W3, "--partition", "W3",
                       "--set", "ramp_up")
    assert report["components"] == {"A1": "1/2", "A2": "1"}
    assert report["field"]["values"] == ["1/2", "1", "1"]


def test_parity_fixture_product(capsys):
    code, report, _ = run(capsys, "product", "fps", "--doc", EX31,
                          "--left", "PN2", "--right", "PZ2")
    assert code == 0
    assert report["projection_left"]["witness"] == "1"
    assert report["projection_right"]["witness"] == "1"


def _chain2(**changes):
    """A 2-element table lattice, with keys replaced or (value None) dropped."""
    spec = {"kind": "table", "elements": ["0", "1"],
            "leq": [[True, True], [False, True]],
            "tensor": [["0", "0"], ["0", "1"]],
            "residuum": [["1", "1"], ["0", "1"]]}
    spec.update(changes)
    return {k: v for k, v in spec.items() if v is not None}


MALFORMED_LATTICES = {
    "godel missing n": ({"kind": "godel_chain"}, "lacks key 'n'"),
    "godel n not int": ({"kind": "godel_chain", "n": "three"},
                        "'n' must be an integer, got 'three'"),
    "godel n null": ({"kind": "godel_chain", "n": None},
                     "'n' must be an integer, got None"),
    "godel labels not list": ({"kind": "godel_chain", "n": 2, "labels": 5},
                              "'labels' must be a list"),
    "lukasiewicz n not int": ({"kind": "lukasiewicz_chain", "n": [3]},
                              "'n' must be an integer"),
    "boolean missing atoms": ({"kind": "boolean"}, "lacks key 'atoms'"),
    "table missing elements": (_chain2(elements=None), "lacks key 'elements'"),
    "table missing leq": (_chain2(leq=None), "lacks key 'leq'"),
    "table missing tensor": (_chain2(tensor=None), "lacks key 'tensor'"),
    "table leq not rows": (_chain2(leq=[True, False]),
                           "'leq' must be a list of lists"),
    "table short leq row": (_chain2(leq=[[True], [False, True]]),
                            "leq table must be 2x2"),
    "table wide leq": (_chain2(leq=[[True, True, True], [False, True, False]]),
                       "leq table must be 2x2"),
    "table short tensor row": (_chain2(tensor=[["0"], ["0", "1"]]),
                               "tensor table must be 2x2"),
    "table short residuum": (_chain2(residuum=[["1", "1"]]),
                             "residuum table must be 2x2"),
    "table unknown tensor element": (_chain2(tensor=[["0", "0"], ["0", "2"]]),
                                     "tensor names unknown element '2'"),
    "table unknown residuum element": (_chain2(residuum=[["1", "1"],
                                                         ["0", "x"]]),
                                       "residuum names unknown element 'x'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LATTICES))
def test_malformed_lattice_exits_2(capsys, case):
    spec, message = MALFORMED_LATTICES[case]
    code, report, err = run(capsys, "validate", "--doc",
                            json.dumps({"lattice": spec}))
    assert code == 2
    assert report is None
    assert err.startswith("latfuzz: ") and message in err
    assert "Traceback" not in err


def _doc(**sections):
    """A one-point Gödel document with the given sections added."""
    return {"lattice": {"kind": "godel_chain", "n": 3},
            "universes": {"X": ["a"]}, **sections}


_P = {"universe": "X", "blocks": {"A": {"a": "1"}}}
_CAND = {"source": "P", "target": "P", "phi": "id", "psi": "psi"}
_LINKED = {"partitions": {"P": _P},
           "maps": {"id": {"source": "X", "target": "X", "values": {"a": "a"}}},
           "index_maps": {"psi": {"source": "P", "target": "P",
                                  "values": {"A": "A"}}}}

MALFORMED_DOCUMENTS = {
    "fuzzy set missing values": (
        _doc(fuzzy_sets={"f": {"universe": "X"}}),
        "fuzzy_sets entry 'f' lacks key 'values'"),
    "fuzzy_sets not an object": (
        _doc(fuzzy_sets=[]), "section 'fuzzy_sets' must be an object"),
    "fuzzy set not an object": (
        _doc(fuzzy_sets={"f": 5}), "fuzzy_sets entry 'f' must be an object"),
    "fuzzy set value unhashable": (
        _doc(fuzzy_sets={"f": {"universe": "X", "values": {"a": [1]}}}),
        "[1] is not an element of lattice"),
    "universe element a list": (
        _doc(universes={"X": [["a"]]}),
        "universe X: elements must be strings"),
    "universe element a number": (
        _doc(universes={"X": [1, 2]}),
        "universe X: elements must be strings"),
    "relation rows not a list": (
        _doc(relations={"R": {"universe": "X", "rows": 5}}),
        "relations entry 'R': 'rows' must be a list"),
    "relation row not a list": (
        _doc(relations={"R": {"universe": "X", "rows": [5]}}),
        "relation R: table is not 1x1"),
    "partition universe not a string": (
        _doc(partitions={"P": {**_P, "universe": ["X"]}}),
        "partitions entry 'P': 'universe' must be a string"),
    "partition block not an object": (
        _doc(partitions={"P": {"universe": "X", "blocks": {"A": 5}}}),
        "partitions entry 'P': each block must be an object"),
    "partition xi not an object": (
        _doc(partitions={"P": {**_P, "xi": 5}}),
        "partitions entry 'P': 'xi' must be an object"),
    "map missing target": (
        _doc(maps={"m": {"source": "X", "values": {"a": "a"}}}),
        "maps entry 'm' lacks key 'target'"),
    "index map missing values": (
        _doc(**{**_LINKED, "index_maps": {"psi": {"source": "P",
                                                  "target": "P"}}}),
        "index_maps entry 'psi' lacks key 'values'"),
    "candidate pairs not pairs": (
        _doc(**_LINKED, candidates={"c": {**_CAND, "pairs": [5]}}),
        "candidates entry 'c': 'pairs' must be a list of"),
    "pairing left not a string": (
        _doc(pairings={"pp": {"left": 5, "right": "c"}}),
        "pairings entry 'pp': 'left' must be a string"),
    "system entry not a pair": (
        _doc(systems={"S": {"universe": "X", "entries": [5]}}),
        "system S: entries are [value-tuple, value] pairs"),
    "system entries not a list": (
        _doc(systems={"S": {"universe": "X", "entries": {}}}),
        "systems entry 'S': 'entries' must be a list"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_exits_2(capsys, case):
    doc, message = MALFORMED_DOCUMENTS[case]
    code, report, err = run(capsys, "validate", "--doc", json.dumps(doc))
    assert code == 2
    assert report is None
    assert err.startswith("latfuzz: ") and message in err
    assert "Traceback" not in err


def test_huge_lattice_exits_3_before_building(capsys, tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"lattice": {"kind": "godel_chain",
                                           "n": 100000}}))
    started = time.perf_counter()
    code, report, _ = run(capsys, "validate", "--doc", str(doc))
    assert time.perf_counter() - started < 5
    assert code == 3
    assert report["verdict"] == "budget-exceeded"
    assert report["cardinality"] == 10 ** 10
    assert report["error"] == \
        "lattice tables requires 10000000000 evaluations, over budget 4096"


def test_cli_import_leaves_out_fractions():
    src = Path(cli.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, latfuzz.cli; print(sorted(m for m in sys.modules "
         "if m in ('fractions', 'decimal', 'numbers')))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "[]"
