"""Differential tests of the two I/O ends of every command.

Loading: a `systems` entry list is read in bulk when it is well-formed,
complete and within the budget, and entry by entry otherwise.
`reference_system_table` is the entry-by-entry loop as it was before the
bulk path existed.  On Gödel 3, Łukasiewicz 4, `boolean(2)` and `grid23`
over universes of 0 to 4 points, the load must return the same table for
valid lists in any order, and raise the same exception with the same text
for every single fault: a dropped, duplicated or re-shaped entry, a wrong
arity, an unknown or unhashable display, a non-list entry, and budgets of 1
and of one below the space.

Printing: `cli._json` must write exactly what `json.dumps(report,
indent=2)` writes, on random nested reports.
"""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from conftest import FIXTURES
from latfuzz import cli
from latfuzz.closure import system_from_explicit
from latfuzz.document import _bulk_table, _system_table, load_document
from latfuzz.fuzzyset import Space, ensure_budget

SPECS = {
    "godel3": {"kind": "godel_chain", "n": 3},
    "lukasiewicz4": {"kind": "lukasiewicz_chain", "n": 4},
    "boolean2": {"kind": "boolean", "atoms": 2},
    "grid23": json.loads((FIXTURES / "grid23.json").read_text())["lattice"],
}
LATTICES = {name: lf.build(spec) for name, spec in SPECS.items()}


def _require(cond, message):
    if not cond:
        raise lf.DocumentError(message)


def reference_system_table(name, lat, uni, entries, budget):
    """The `systems` loop of `document._build`, entry by entry."""
    space = Space(lat, uni)
    by_index = {}
    for entry in entries:
        _require(isinstance(entry, list) and len(entry) == 2
                 and isinstance(entry[0], list),
                 f"system {name}: entries are [value-tuple, value] pairs")
        key = [lat.parse(v) for v in entry[0]]
        _require(len(key) == len(uni),
                 f"system {name}: tuple arity does not match {uni.name}")
        index = space.index(key)
        _require(index not in by_index,
                 f"system {name}: duplicate entry for {entry[0]}")
        by_index[index] = lat.parse(entry[1])
    size = ensure_budget(lat, uni, budget, f"system {name} table")
    if len(by_index) < size:
        missing = next(i for i in range(size) if i not in by_index)
        raise lf.DocumentError(
            f"system {name}: missing entry for "
            f"{[lat.displays[v] for v in space.values_at(missing)]}")
    return [by_index[i] for i in range(size)]


def _outcome(load, *args):
    try:
        return "table", load(*args)
    except lf.WorkbenchError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# loading

FAULTS = ("drop", "duplicate", "copy-key", "short-entry", "long-entry",
          "tuple-entry", "tuple-key", "string-key", "short-key", "long-key",
          "unknown-key", "unknown-member", "numeric-member", "list-key",
          "list-member", "dict-entry", "none-entry", "budget-1",
          "budget-below")


def _entries(lat, uni, rng):
    """A valid entry list of a random table, in a random order."""
    entries = [[[lat.displays[v] for v in values],
                lat.displays[rng.randrange(len(lat))]]
               for values in Space(lat, uni).values()]
    rng.shuffle(entries)
    return entries


def _inject(fault, entries, lat, rng):
    """Apply one fault to one random entry; return the budget to load
    with (None: the space size)."""
    i = rng.randrange(len(entries))
    key, member = entries[i]
    other = rng.choice(lat.displays)
    replace = {
        "short-entry": [key],
        "long-entry": [key, member, member],
        "tuple-entry": (key, member),
        "tuple-key": [tuple(key), member],
        "string-key": ["".join(key), member],
        "short-key": [key[:-1], member],
        "long-key": [key + [other], member],
        "unknown-member": [key, "2/3"],
        "numeric-member": [key, 1],
        "list-member": [key, [member]],
        "dict-entry": {"key": key, "value": member},
        "none-entry": None,
    }
    if fault in replace:
        entries[i] = replace[fault]
    elif fault == "drop":
        del entries[i]
    elif fault == "duplicate":
        entries.insert(rng.randrange(len(entries) + 1), [list(key), other])
    elif fault == "copy-key":  # the count stays right, one set is missing
        j = rng.randrange(len(entries))
        if j != i:
            entries[j] = [list(key), other]
    elif fault in ("unknown-key", "list-key"):
        if key:
            bad = "zz" if fault == "unknown-key" else [key[0]]
            key = list(key)
            key[rng.randrange(len(key))] = bad
        entries[i] = [key, member]
    elif fault == "budget-1":
        return 1
    elif fault == "budget-below":
        return len(lat) ** len(key) - 1
    return None


def _universe(npoints):
    return lf.Universe("U", tuple(f"u{k}" for k in range(npoints)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), st.integers(0, 4),
       st.sampled_from((None, *FAULTS)), st.integers(0, 2**32 - 1))
@example("godel3", 2, "string-key", 5)
@example("boolean2", 0, "budget-below", 0)
def test_bulk_load_matches_entry_by_entry(lat_name, npoints, fault, seed):
    lat = LATTICES[lat_name]
    if lat_name == "grid23":
        npoints = min(npoints, 3)
    uni = _universe(npoints)
    rng = random.Random(seed)
    entries = _entries(lat, uni, rng)
    budget = _inject(fault, entries, lat, rng) if fault else None
    if budget is None:
        budget = len(lat) ** npoints
    want = _outcome(reference_system_table, "S", lat, uni, entries, budget)
    got = _outcome(_system_table, "S", lat, uni, entries, budget)
    assert got == want
    if fault is None:
        assert _bulk_table(lat, uni, entries, budget) == want[1]


def test_string_keys_of_one_character_displays_are_rejected():
    lat = LATTICES["godel3"]
    uni = _universe(2)
    entries = [[[lat.displays[v] for v in values], "1"]
               for values in Space(lat, uni).values()]
    entries[0] = ["00", "1"]  # tuple("00") would name the set ("0", "0")
    with pytest.raises(lf.DocumentError, match=r"\[value-tuple, value\] pairs"):
        _system_table("S", lat, uni, entries, 9)


def test_document_load_reads_systems_in_bulk():
    lat = LATTICES["boolean2"]
    uni = _universe(3)
    entries = _entries(lat, uni, random.Random(3))
    doc = load_document({
        "lattice": SPECS["boolean2"],
        "universes": {"U": list(uni.elements)},
        "systems": {"S": {"universe": "U", "entries": entries}},
    })
    want = reference_system_table("S", lat, uni, entries, lf.DEFAULT_BUDGET)
    assert doc.system("S").table == tuple(want)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), st.integers(0, 2),
       st.lists(st.sampled_from([-1, 0, 1, 5, 6, 1.0, 2.5, True, False,
                                 None, "1", "0", (0,), [1]]),
                max_size=3),
       st.integers(0, 2**32 - 1))
def test_table_check_matches_element_walk(lat_name, npoints, bad, seed):
    lat = LATTICES[lat_name]
    uni = _universe(npoints)
    rng = random.Random(seed)
    table = [rng.randrange(len(lat)) for _ in range(len(lat) ** npoints)]
    for value in bad:
        table[rng.randrange(len(table))] = value

    def walk(lat, uni, table):
        for v in table:
            lat.check_element(v)
        return lf.ClosureSystem(lat, uni, tuple(table), "explicit")

    assert (_outcome(system_from_explicit, lat, uni, table)
            == _outcome(walk, lat, uni, table))


# ---------------------------------------------------------------------------
# printing

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text() | st.text(alphabet="\"\\\n\t\x00\x1f\x7féü€😀"))
_KEYS = (st.text() | st.integers() | st.booleans() | st.none()
         | st.floats(allow_nan=True, allow_infinity=True))
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(st.text(), max_size=5)
                   | st.tuples(st.text(), inner)
                   | st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_KEYS, _REPORTS, max_size=6))
@example({})
@example({"command": "closure from-partition", "system": {"entries": [
    [["0", "1/2"], "1"], [[], "0"], [["x"], 1, None]]}})
@example({"a": ["s", 1, "t"], "b": [[], {}, [[]], {"": {}}]})
@example({1: "int", 2.5: "float", True: "bool", None: "none",
          float("nan"): "nan", float("-inf"): "inf", "1": "str"})
def test_writer_matches_json_dumps(report):
    assert cli._json(report, "") == json.dumps(report, indent=2)


@pytest.mark.parametrize("bad", [{(1, 2): "tuple key"}, {"a": [1, object()]},
                                 {"a": {frozenset(): 1}}])
def test_writer_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError) as want:
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json(bad, "")
    assert str(got.value) == str(want.value)


def test_report_ends_with_one_newline(capsys):
    code = cli.run(["validate", "--doc", str(FIXTURES / "w3.json"),
                    "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
