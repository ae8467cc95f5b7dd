import argparse
import errno
import json
import os
import re
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


# an explicit system on the Łukasiewicz 3-chain where `enriched` and `strong`
# both fail and `strong`'s counterexample is found first, so the report pins
# the order in which `laws closure` finds its counterexamples
INTERLEAVED = json.dumps({
    "lattice": {"kind": "lukasiewicz_chain", "n": 3},
    "universes": {"X": ["a"]},
    "systems": {"S": {"universe": "X", "entries": [
        [["0"], "1/2"], [["1/2"], "0"], [["1"], "1"]]}},
})

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
    pytest.param(("check", "fas", "--doc", W3, "--cand", "m_half"),
                 id="check fas0"),
    pytest.param(("check", "fas", "--doc", W3, "--map", "id_X2",
                  "--source-relation", "R_id_X2",
                  "--target-relation", "R_top_X2"), id="check fas1"),
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
    pytest.param(("roundtrip", "f2", "--doc", W3, "--relation",
                  "partition:W3"), id="roundtrip f2_0"),
    pytest.param(("roundtrip", "f2", "--doc", W3, "--relation", "R_bot_X2"),
                 id="roundtrip f2_1"),
    ("roundtrip", "f4", "--doc", W3, "--system", "partition:W3"),
    ("roundtrip", "coa-dia", "--doc", W3, "--partition", "X2P"),
    ("product", "fps", "--doc", W3, "--left", "Q", "--right", "P2",
     "--pairing", "pair_mhalf_id"),
    ("diagnostic", "index-square", "--doc", W3, "--cand", "m_half"),
    ("laws", "lattice", "--doc", GRID),
    ("laws", "ftransform", "--doc", W3, "--partition", "W3"),
    ("laws", "closure", "--doc", W3, "--system", "partition:W3"),
    ("laws", "closure", "--doc", INTERLEAVED, "--system", "S"),
    ("coalg", "--doc", W3, "--partition", "X2P"),
    ("dialg", "--doc", W3, "--partition", "X2P"),
    ("adjunction", "--doc", W3, "--map", "swap",
     "--source-partition", "X2P", "--target-partition", "X2P"),
    pytest.param(("transfer", "coa-dia", "--doc", W3, "--map", "swap",
                  "--source-partition", "X2P", "--target-partition", "X2P"),
                 id="transfer coa-dia0"),
    pytest.param(("transfer", "coa-dia", "--doc", W3, "--map", "collapse",
                  "--source-partition", "X2P", "--target-partition", "SP"),
                 id="transfer coa-dia1"),
]


def _corpus_id(argv) -> str:
    """The subcommand words.  A case whose words another case shares is a
    `pytest.param` with a fixed id (the numbered id it first ran under), so
    a new case with the same words renames none of them."""
    name = " ".join(argv[:2])
    return f"{name} inline" if INTERLEAVED in argv else name


def corpus_argvs():
    return [getattr(case, "values", (case,))[0] for case in CORPUS]


def test_corpus_ids_name_one_case_each():
    # pytest numbers repeated ids, so a repeat would rename an older test
    ids = [getattr(case, "id", None) or _corpus_id(case) for case in CORPUS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("argv", CORPUS, ids=_corpus_id)
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
    "godel n a float": ({"kind": "godel_chain", "n": 2.5},
                        "'n' must be an integer, got 2.5"),
    "godel n a bool": ({"kind": "godel_chain", "n": True},
                       "'n' must be an integer, got True"),
    "boolean atoms a string": ({"kind": "boolean", "atoms": "2"},
                               "'atoms' must be an integer, got '2'"),
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
    "map naming an unknown source element": (
        _doc(maps={"m": {"source": "X", "target": "X",
                         "values": {"a": "a", "nope": "a"}}}),
        "map X -> X names unknown element 'nope'"),
    "index map naming an unknown source block": (
        _doc(**{**_LINKED, "index_maps": {"psi": {
            "source": "P", "target": "P", "values": {"A": "A", "Z": "A"}}}},
            candidates={"c": _CAND}),
        "index map names unknown source block Z"),
    # an index map no candidate names is checked at load all the same
    "unused index map missing a source block": (
        _doc(**{**_LINKED, "index_maps": {"psi": {
            "source": "P", "target": "P", "values": {}}}}),
        "index map misses source block A"),
    "unused index map naming an unknown source block": (
        _doc(**{**_LINKED, "index_maps": {"psi": {
            "source": "P", "target": "P", "values": {"A": "A", "Z": "A"}}}}),
        "index map names unknown source block Z"),
    "unused index map naming an unknown target block": (
        _doc(**{**_LINKED, "index_maps": {"psi": {
            "source": "P", "target": "P", "values": {"A": 5}}}}),
        "unknown block 5"),
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
    # leq entries must be JSON booleans, not merely truthy
    "table leq entry a string": (
        {"lattice": _chain2(leq=[[True, "false"], [False, True]])},
        "table: leq[0][1] = 'false' is not a boolean"),
    "table leq entry a list": (
        {"lattice": _chain2(leq=[[True, [0]], [False, True]])},
        "table: leq[0][1] = [0] is not a boolean"),
    # bytes are a document file's contents
    "file not UTF-8": (b"\xff\xfe{bad", "cannot read document: 'utf-8'"),
    "nested too deeply": (b'{"a": ' + b"[" * 100000 + b"]" * 100000 + b"}",
                          "document nests too deeply to decode"),
    # a file's text is parsed as JSON, never taken for a path
    "file root a list": (b"[1]", "document root must be an object"),
    "file with a byte-order mark": (
        b"\xef\xbb\xbf" + json.dumps(_doc()).encode(),
        "document is not valid JSON: Unexpected UTF-8 BOM"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_exits_2(capsys, tmp_path, case):
    doc, message = MALFORMED_DOCUMENTS[case]
    if isinstance(doc, bytes):
        path = tmp_path / "doc.json"
        path.write_bytes(doc)
        source = str(path)
    else:
        source = json.dumps(doc)
    code, report, err = run(capsys, "validate", "--doc", source)
    assert code == 2
    assert report is None
    assert err.startswith("latfuzz: ") and message in err
    assert "Traceback" not in err


# a value nested 900 lists deep, at each place a lattice error quotes one
DEEP_VALUES = {
    "fuzzy set value": _doc(fuzzy_sets={"f": {"universe": "X",
                                              "values": {"a": "DEEP"}}}),
    "tensor entry": {"lattice": {"kind": "table", "elements": ["0", "1"],
                                 "leq": [[True, True], [False, True]],
                                 "tensor": [["DEEP", "0"], ["0", "1"]]}},
    "n": {"lattice": {"kind": "godel_chain", "n": "DEEP"}},
    "lattice kind": {"lattice": {"kind": "DEEP"}},
    "leq entry": {"lattice": _chain2(leq=[[True, "DEEP"], [False, True]])},
    "map value": _doc(maps={"m": {"source": "X", "target": "X",
                                  "values": {"a": "DEEP"}}}),
    "index map value": _doc(**{**_LINKED, "index_maps": {
        "psi": {"source": "P", "target": "P", "values": {"A": "DEEP"}}}},
        candidates={"c": _CAND}),
    "candidate pair": _doc(**_LINKED, candidates={
        "c": {**_CAND, "pairs": [["A", "DEEP"]]}}),
    "declared index map value": _doc(partitions={
        "P": {**_P, "xi": {"a": "DEEP"}}}),
}


@pytest.mark.parametrize("case", sorted(DEEP_VALUES))
def test_deep_value_gives_a_short_error(capsys, case):
    source = json.dumps(DEEP_VALUES[case]).replace(
        '"DEEP"', "[" * 900 + "]" * 900)
    code, report, err = run(capsys, "validate", "--doc", source)
    assert code == 2
    assert report is None
    assert err.startswith("latfuzz: ") and "[[[..." in err
    assert all(len(line) < 200 for line in err.splitlines())


LONG = "a" * 1000

# a 1000-character element label, at each place a universe error quotes one,
# and a block or universe name as long where a partition or candidate error
# quotes one
LONG_LABELS = {
    "value map missing an element": _doc(
        universes={"X": [LONG]}, fuzzy_sets={"f": {"universe": "X",
                                                   "values": {}}}),
    "value map naming an unknown element": _doc(
        fuzzy_sets={"f": {"universe": "X", "values": {"a": "1", LONG: "1"}}}),
    "map missing an element": _doc(
        universes={"X": [LONG]}, maps={"m": {"source": "X", "target": "X",
                                             "values": {}}}),
    "map naming an unknown element": _doc(
        maps={"m": {"source": "X", "target": "X",
                    "values": {"a": "a", LONG: "a"}}}),
    "declared index map value": _doc(partitions={
        "P": {**_P, "xi": {"a": LONG}}}),
    "block not normal": _doc(partitions={
        "P": {"universe": "X", "blocks": {LONG: {"a": "0"}}}}),
    "core overlap": _doc(partitions={
        "P": {"universe": "X", "blocks": {LONG: {"a": "1"}, "B": {"a": "1"}}}}),
    "partition with no blocks": _doc(
        universes={LONG: ["a"]},
        partitions={"P": {"universe": LONG, "blocks": {}}}),
    "element covered by no core": _doc(
        universes={"X": ["a", LONG]}, partitions={
            "P": {"universe": "X", "blocks": {"A": {"a": "1", LONG: "0"}}}}),
    "candidate map between other universes": _doc(
        **{**_LINKED, "universes": {"X": ["a"], LONG: ["a"]},
           "maps": {"id": {"source": "X", "target": LONG,
                           "values": {"a": "a"}}}},
        candidates={"c": _CAND}),
    "index map missing a source block": _doc(
        **{**_LINKED, "partitions": {"P": {"universe": "X",
                                           "blocks": {LONG: {"a": "1"}}}},
           "index_maps": {"psi": {"source": "P", "target": "P",
                                  "values": {}}}},
        candidates={"c": _CAND}),
    "index map naming an unknown source block": _doc(
        **{**_LINKED, "index_maps": {"psi": {"source": "P", "target": "P",
                                             "values": {"A": "A", LONG: "A"}}}},
        candidates={"c": _CAND}),
    "pairs missing a source block": _doc(
        **{**_LINKED, "partitions": {"P": {"universe": "X",
                                           "blocks": {LONG: {"a": "1"}}}},
           "index_maps": {"psi": {"source": "P", "target": "P",
                                  "values": {LONG: LONG}}}},
        candidates={"c": {**_CAND, "pairs": []}}),
}


@pytest.mark.parametrize("case", sorted(LONG_LABELS))
def test_long_label_gives_a_short_error(capsys, case):
    code, report, err = run(capsys, "validate", "--doc",
                            json.dumps(LONG_LABELS[case]))
    assert code == 2
    assert report is None
    assert err.startswith("latfuzz: ") and "'aaa" in err and "..." in err
    assert all(len(line) < 200 for line in err.splitlines())


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


def test_doc_path_may_start_with_a_brace(capsys, tmp_path, monkeypatch):
    # `--doc` also takes JSON text, which starts with `{` too
    (tmp_path / "{w3}.json").write_bytes((FIXTURES / "w3.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    code, report, _ = run(capsys, "validate", "--doc", "{w3}.json")
    assert code == 0
    assert report["lattice"]["name"] == "godel_chain(3)"


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("after", [0, 1], ids=["at start", "after a byte"])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, unbuffered,
                                                     after):
    # closed at the start, a short report waits in stdout's buffer for the
    # flush; closed after one byte, as `latfuzz ... | head -c 1` does, a
    # 0.6 MB report fails in a write, since a pipe holds far less
    argv = ["validate", "--doc", W3]
    if after:
        points = [f"u{k}" for k in range(6)]
        doc = tmp_path / "g4.json"
        doc.write_text(json.dumps({
            "lattice": {"kind": "godel_chain", "n": 4},
            "universes": {"X": points},
            "partitions": {"P": {"universe": "X",
                                 "blocks": {"B": {p: "1" for p in points}}}},
        }))
        argv = ["closure", "from-partition", "--doc", str(doc),
                "--partition", "P"]
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    if not after:
        os.close(read)
    proc = subprocess.Popen([sys.executable, "-m", "latfuzz.cli", *argv],
                            env=env, stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    if after:
        with open(read, "rb") as out:
            assert out.read(1) == b"{"
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.STDOUT_CLOSED == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail with ENOSPC")
@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
def test_failed_stdout_write_exits_2_with_one_line(unbuffered):
    # every write to /dev/full raises OSError(ENOSPC): buffered, the short
    # report fails in main's flush; unbuffered, in the report's write.  An
    # uncaught error would exit 1, the "check failed" status, or 120 from
    # the exit flush
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "latfuzz.cli", "validate", "--doc",
             json.dumps({"lattice": {"kind": "godel_chain", "n": 2}})],
            env=env, stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == cli.INPUT_ERROR == 2
    assert proc.stderr.decode() == ("latfuzz: cannot write the report: "
                                    f"[Errno {errno.ENOSPC}] "
                                    f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail with ENOSPC")
@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, stdout", [
    (["validate", "--doc", "/nonexistent"], None),
    (["validate", "--doc", W3], "/dev/full"),
], ids=["bad-document", "full-stdout"])
def test_failed_stderr_write_exits_2(unbuffered, argv, stdout):
    # the diagnostic cannot be written either: the status stays 2, not 1
    # from an uncaught error (the traceback is lost on the same stderr) or
    # 120 from the exit flush
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full, \
            open(stdout or os.devnull, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "latfuzz.cli", *argv],
            env=env, stdout=out, stderr=full, timeout=60)
    assert proc.returncode == cli.INPUT_ERROR == 2


def test_cli_import_leaves_out_fractions():
    src = Path(cli.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, latfuzz.cli; print(sorted(m for m in sys.modules "
         "if m in ('fractions', 'decimal', 'numbers', 'dataclasses', "
         "'inspect')))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# argument parsing: `run` builds only the named command's subparser, and its
# reports and usage errors are those of the build with all of them

def _outcome(capsys, argv):
    """Exit status, stdout and stderr of `cli.run(argv)`, usage errors and
    help included."""
    try:
        code = cli.run(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_CASES = [
    [], ["-h"], ["nope"], ["closure", "from-nowhere", "--doc", W3],
    ["validate"], ["validate", "--doc", W3, "extra"],
    ["validate", "--doc", W3, "--budget", "x"], ["--doc", W3, "validate"],
    *([name, "-h"] for name in cli._COMMANDS),
    *([*argv, "--no-timing"] for argv in corpus_argvs()),
]


def test_one_command_parser_matches_the_full_build(capsys, monkeypatch):
    build = cli._build_parser
    for argv in PARSER_CASES:
        one = _outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", lambda first: build(None))
            full = _outcome(capsys, argv)
        assert one == full, argv
    # the full build names the command argument `command` in its errors
    assert _outcome(capsys, [])[2].endswith(
        "error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'nope'" in \
        _outcome(capsys, ["nope"])[2]


def test_only_help_and_unknown_commands_build_every_subparser(capsys,
                                                              monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    for argv in corpus_argvs():
        added.clear()
        _outcome(capsys, [*argv, "--no-timing"])
        assert added == [argv[0]], argv
    for argv in ([], ["-h"], ["nope"]):
        added.clear()
        _outcome(capsys, argv)
        assert added == list(cli._COMMANDS), argv


def test_module_entry_point_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (["validate", "--doc", W3, "--no-timing"], ["--help"]):
        proc = subprocess.run([sys.executable, "-m", "latfuzz.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            _outcome(capsys, argv), argv


def _readme_commands() -> dict:
    """Command -> the choices of its positional word (None without one),
    from README's "Subcommands:" list."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    listing = text.split("\nSubcommands: ", 1)[1].split("\n\n", 1)[0]
    commands = {}
    for entry in re.findall(r"`([^`]+)`", listing):
        name, *word = entry.split()
        commands[name] = "".join(word).split("|") if word else None
    return commands


def test_readme_lists_every_command_and_its_choices():
    assert _readme_commands() == {
        name: list(command.word[1]) if command.word else None
        for name, command in cli._COMMANDS.items()
    }
