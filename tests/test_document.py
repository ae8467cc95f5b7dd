import json

import pytest

import latfuzz as lf
from conftest import FIXTURES
from latfuzz.document import load_document
from reference import constant, system_value


@pytest.fixture(scope="module")
def w3_doc():
    return load_document(FIXTURES / "w3.json")


def test_loads_all_sections(w3_doc):
    assert set(w3_doc.partitions) == {"W3", "P2", "Q", "Qbad", "X2P", "SP"}
    assert set(w3_doc.systems) == {"S_fault"}
    assert w3_doc.pairings["pair_mhalf_id"] == ("m_half", "id_p2")
    assert not w3_doc.warnings


def test_candidate_resolution(w3_doc):
    cand = w3_doc.candidate("m_half")
    assert lf.fp_witness(cand).display == "1/2"


def test_fault_system_table_resolution(w3_doc):
    system = w3_doc.system("S_fault")
    lat = w3_doc.lattice
    top = constant(lat, system.universe, lat.top)
    assert system_value(system, top) == lat.top


def base_doc():
    return json.loads((FIXTURES / "w3.json").read_text())


def test_unknown_reference_fails():
    data = base_doc()
    data["fuzzy_sets"]["oops"] = {"universe": "NOPE", "values": {}}
    with pytest.raises(lf.DocumentError, match="no universe 'NOPE'"):
        load_document(data)


def test_bad_value_fails():
    data = base_doc()
    data["fuzzy_sets"]["oops"] = {
        "universe": "Y", "values": {"y1": "2/3", "y2": "1"}
    }
    with pytest.raises(lf.DocumentError, match="not an element"):
        load_document(data)


def test_invalid_partition_fails():
    data = base_doc()
    data["partitions"]["BAD"] = {
        "universe": "Y",
        "blocks": {"B1": {"y1": "1", "y2": "1"}, "B2": {"y1": "1/2", "y2": "1"}},
    }
    with pytest.raises(lf.DocumentError, match="core overlap"):
        load_document(data)


def test_candidate_index_map_alignment_checked():
    data = base_doc()
    data["candidates"]["bad"] = {
        "source": "W3", "target": "Q", "phi": "phi_m", "psi": "id_P2",
    }
    with pytest.raises(lf.DocumentError, match="index map"):
        load_document(data)


def test_system_totality_enforced():
    data = base_doc()
    data["systems"]["S_fault"]["entries"] = \
        data["systems"]["S_fault"]["entries"][:-1]
    with pytest.raises(lf.DocumentError, match="missing entry"):
        load_document(data)


def test_system_duplicate_entry_rejected():
    data = base_doc()
    entries = data["systems"]["S_fault"]["entries"]
    entries.append(entries[0])
    with pytest.raises(lf.DocumentError, match="duplicate entry"):
        load_document(data)


def test_candidate_warnings_surface():
    data = base_doc()
    data["candidates"]["m_half"]["pairs"].append(["A1", "B2"])
    doc = load_document(data)
    assert any("outside the graph" in w for w in doc.warnings)


def test_not_json_fails(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(lf.DocumentError, match="not valid JSON"):
        load_document(path)
    with pytest.raises(lf.DocumentError, match="cannot read"):
        load_document(tmp_path / "missing.json")


# JSON text that names no file is read as the text, whatever JSON value it
# starts with, and gets the error that a file with that text gets
JSON_TEXTS = {
    "list": "[1]",
    "list after whitespace": " \n\t[1]",
    "byte-order mark": "\ufeff" + json.dumps({"lattice": {"kind": "boolean",
                                                          "atoms": 1}}),
    "byte-order mark after whitespace": " \ufeff[1]",
    "object not valid JSON": "{not json",
}


@pytest.mark.parametrize("case", sorted(JSON_TEXTS))
def test_json_text_errs_as_its_file_does(tmp_path, case):
    text = JSON_TEXTS[case]
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(lf.DocumentError) as from_file:
        load_document(path)
    with pytest.raises(lf.DocumentError) as from_text:
        load_document(text)
    assert str(from_text.value) == str(from_file.value)
    assert "cannot read document" not in str(from_text.value)


def test_relation_shape_checked():
    data = base_doc()
    data["relations"]["R_id_X2"]["rows"] = [["1", "0"]]
    with pytest.raises(lf.DocumentError, match="not 2x2"):
        load_document(data)


def test_declared_xi_checked():
    data = base_doc()
    data["partitions"]["W3"]["xi"]["x2"] = "A1"
    with pytest.raises(lf.DocumentError, match="declared index map"):
        load_document(data)
