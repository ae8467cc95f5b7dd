"""What every record class keeps: value equality and hash, immutability, and
`replace` building a changed copy through the constructor."""

import copy
import sys

import pytest

import latfuzz as lf
from conftest import FIXTURES
from latfuzz import cli
from latfuzz.document import InstanceDocument, load_document

DOC = load_document(str(FIXTURES / "w3.json"))


def _samples():
    """(record, field, value): an instance of each record class, one of its
    fields, and a value that field does not have."""
    lat, w3, x2p = DOC.lattice, DOC.partition("W3"), DOC.partition("X2P")
    ramp, swap, cand = DOC.fuzzy_set("ramp_up"), DOC.map("swap"), \
        DOC.candidate("m_half")
    system = lf.system_from_partition(w3)
    coa = lf.coalgebra_from_partition(x2p)
    return [
        (lat, "name", "renamed"),
        (lf.law_suite(lat), "subject", "renamed"),
        (DOC.universe("X"), "name", "renamed"),
        (ramp, "values", (lat.top,) * len(ramp.values)),
        (swap, "mapping", tuple(range(len(swap.mapping)))),
        (w3, "names", tuple(f"{n}'" for n in w3.names)),
        (DOC.relation("R_id_X2"), "rows", DOC.relation("R_top_X2").rows),
        (system, "provenance", "renamed"),
        (lf.operator_from_system(system), "provenance", "renamed"),
        (lf.fp_witness(cand), "value", lat.bottom),
        (cand, "pairs", ()),
        (lf.compose_fp(cand, lf.identity_candidate(cand.target)),
         "zero_divisor_warning", True),
        (lf.fps_product(DOC.partition("Q"), DOC.partition("P2")),
         "proj_left_witness", lf.Witness(lat.bottom, lat)),
        (coa, "view", "dialgebra"),
        (lf.check_coa_hom(swap, coa, coa), "holds", False),
        (lf.morphism_transfer_check(swap, coa, coa, "coa-dia"), "status",
         "fails"),
        (DOC, "warnings", ["changed"]),
        (cli._KINDS["system"], "prefixes", ()),
        (cli._COMMANDS["transfer"], "echo", True),
    ]


SAMPLES = _samples()
IDS = [type(record).__name__ for record, _, _ in SAMPLES]


def _fields(cls) -> list:
    return [n for n in cls.__dict__.get("__annotations__", ())
            if not n.startswith("_")]


def _values(record) -> dict:
    return {n: getattr(record, n) for n in _fields(type(record))}


def test_samples_cover_every_record_class():
    records = {cls for name, module in list(sys.modules.items())
               if name.startswith("latfuzz.")
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == name
               and _fields(cls)}
    assert {type(record) for record, _, _ in SAMPLES} == records
    assert len(IDS) == len(set(IDS))


@pytest.mark.parametrize("record, name, value", SAMPLES, ids=IDS)
def test_records_are_values(record, name, value):
    cls, values = type(record), _values(record)
    a, b = cls(**values), cls(**copy.deepcopy(values))
    assert a == b and a == record and not a != b
    try:
        hash(tuple(values.values()))
    except TypeError:  # a dict or list field
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert values[name] != value
    changed = cls(**{**values, name: value})
    assert changed != a and a != changed
    assert repr(a) == repr(b) and f"{name}=" in repr(a)


@pytest.mark.parametrize("record, name, value", SAMPLES, ids=IDS)
def test_records_are_immutable(record, name, value):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = value
    assert repr(record) == before


@pytest.mark.parametrize("record, name, value", SAMPLES, ids=IDS)
def test_replace_changes_a_copy(record, name, value):
    values = _values(record)
    changed = lf.replace(record, **{name: value})
    assert changed is not record and type(changed) is type(record)
    assert changed == type(record)(**{**values, name: value})
    assert _values(record) == values and getattr(record, name) != value
    with pytest.raises(TypeError):
        lf.replace(record, no_such_field=value)


def test_replace_runs_post_init():
    ramp = DOC.fuzzy_set("ramp_up")
    with pytest.raises(lf.MismatchError):
        lf.replace(ramp, values=ramp.values[:-1])
    lat = lf.lukasiewicz_chain(3)
    assert lf.replace(lat, name="renamed").parse("1/2") == lat.parse("1/2")


def test_lattice_equality_ignores_the_parse_cache():
    a, b = lf.godel_chain(3), lf.godel_chain(3)
    object.__setattr__(b, "_parse", {})
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_parse" not in repr(a)


def test_instance_documents_are_mutable_unhashable_and_own_their_sections():
    """A document's fields cannot be reassigned, but the sections they hold
    are filled in place as it loads, so each document owns its own, and the
    dicts make it unhashable."""
    a, b = InstanceDocument(DOC.lattice), InstanceDocument(DOC.lattice)
    assert a == b
    assert a.universes is not b.universes and a.warnings is not b.warnings
    a.warnings.append("note")
    assert a != b and b.warnings == []
    with pytest.raises(AttributeError):
        a.lattice = lf.godel_chain(2)
    assert a.lattice is DOC.lattice
    with pytest.raises(TypeError):
        hash(b)
