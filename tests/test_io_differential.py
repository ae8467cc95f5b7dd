"""Differential tests of the two I/O ends of every command.

Loading: a `systems` entry list is read in one pass, from a list or a
one-shot iterator alike.  The read sums each entry's index from one dict
lookup per point, so it must check the key's arity itself (`map` stops at
the shorter input); a slot filled twice is a duplicate and a slot left
empty a missing entry.  `reference_system_table` is the plain
entry-by-entry loop, with the sets indexed by `Space.index`.  On Gödel 3,
Łukasiewicz 4, `boolean(2)` and `grid23` over universes of 0 to 4 points,
the load must return the same table for valid lists in any order, and
raise the same exception with the same text for every single fault: a
dropped, duplicated or re-shaped entry, a wrong arity, an unknown or
unhashable display, a non-list entry, and budgets of 1 and of one below
the space.

A document's text is read value by value, each system's entries one at a
time straight into that read, and anything irregular goes to `json.loads`
and then the same read of the decoded list.  `_decoded_first` is the load as
it was before: `json.loads`, then the decoded value.  For every fault
above, and for texts with the lattice, the universes or a system's universe
after the entries, a repeated key at each level, whitespace, a BOM,
trailing data, NaN, deep nesting inside an entry, an empty entry list and
budgets below the space, both must give the same document or the same
error; a regular text must never reach `json.loads`.

Printing: the chunks `cli._write_json` passes on, joined, must be exactly
what `json.dumps(report, indent=2)` writes plus a newline, on random nested
reports split into many small chunks.  A closure system's or operator's
entries, which the writer lays out from per-point pieces, must read as their
list of [set, image] pairs would, over `tests/lattices.py` lattices on 0 to
3 points.  A report of 4096 entries must reach an unbuffered stdout in few
writes of about `cli.CHUNK` characters each.
"""

import io
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import latfuzz as lf
from conftest import FIXTURES
from latfuzz import cli
from latfuzz.closure import system_from_explicit
from latfuzz.document import _system_table, load_document
from latfuzz.fuzzyset import Space
from lattices import with_product
from reference import ensure_budget

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
# the read's arity check: a key one value short whose dropped value is
# the bottom, and a key one value long, each name a set of the space
@example("boolean2", 3, "short-key", 6)
@example("boolean2", 3, "long-key", 0)
# its duplicate test: two entries for one set, none for another
@example("boolean2", 3, "copy-key", 0)
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
    assert _outcome(_system_table, "S", lat, uni, entries, budget) == want
    # one pass: a one-shot iterator of the entries gives the same outcome
    assert _outcome(_system_table, "S", lat, uni, iter(entries),
                    budget) == want


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
# the streamed read of a document's text

def _decoded_first(path, budget):
    """The load as it was before the streamed read: the whole text through
    `json.loads`, then the decoded value."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise lf.DocumentError(f"document is not valid JSON: {exc}") from None
    except RecursionError:
        raise lf.DocumentError("document nests too deeply to decode") from None
    return load_document(data, budget)


def _load_outcome(load, path, budget):
    try:
        return "document", load(path, budget)
    except lf.WorkbenchError as exc:
        return type(exc), str(exc)


def _assert_streams_as_decoded(tmp_path, text, budget, streams):
    """`load_document` of `text` as a file gives the document, or the error
    type and text, of `json.loads` and then the decoded value; with
    `streams`, without ever calling `json.loads`."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    want = _load_outcome(_decoded_first, path, budget)
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json, "loads", counted)
        got = _load_outcome(load_document, path, budget)
    assert got == want
    if streams:
        assert not calls


def _obj(*members) -> str:
    """The text of a JSON object of `(key, value text)` members, in order
    and with any repeats."""
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in members) + "}"


@pytest.mark.parametrize("fault", (None, *FAULTS))
def test_streamed_read_matches_decoded_first(tmp_path, fault):
    for i, lat_name in enumerate(sorted(LATTICES) * 2):
        lat = LATTICES[lat_name]
        uni = _universe(2 + i % 2)
        rng = random.Random(i)
        entries = _entries(lat, uni, rng)
        budget = _inject(fault, entries, lat, rng) if fault else None
        doc = {"lattice": SPECS[lat_name],
               "universes": {"U": list(uni.elements)},
               "systems": {"S": {"universe": "U", "entries": entries}}}
        # compact text, as the benchmark writes it, and json's default
        compact = (",", ":") if i % 2 else None
        _assert_streams_as_decoded(
            tmp_path, json.dumps(doc, separators=compact),
            budget or lf.DEFAULT_BUDGET, streams=fault is None)


_LAT = json.dumps(SPECS["godel3"])
_UNIS = json.dumps({"U": ["u0", "u1", "u2"]})
_ENTRIES = json.dumps(_entries(LATTICES["godel3"], _universe(3),
                               random.Random(0)))
_SYSTEM = _obj(("universe", '"U"'), ("entries", _ENTRIES))
_REGULAR = _obj(("lattice", _LAT), ("universes", _UNIS),
                ("systems", _obj(("S", _SYSTEM))))
_SPACE = 27
_DEEP = "[" * 5000 + "]" * 5000


def _systems(*systems) -> str:
    """A document on the Gödel 3-chain of systems on `U`, in this order."""
    return _obj(("lattice", _LAT), ("universes", _UNIS),
                ("systems", _obj(*systems)))


# each shape of text: (text, budget, whether the read streams it)
SHAPES = {
    "regular": (_REGULAR, _SPACE, True),
    "indent=2": (json.dumps(json.loads(_REGULAR), indent=2), _SPACE, True),
    "trailing whitespace": (_REGULAR + "\n \t\r\n", _SPACE, True),
    "whitespace around every separator": (json.dumps(
        json.loads(_REGULAR), separators=(" ,\t", " :\n")), _SPACE, True),
    "a repeat inside a value": (_REGULAR.replace(
        _UNIS, '{"U": ["a"], "U": ["u0", "u1", "u2"]}'), _SPACE, True),
    "NaN outside the entries": (_REGULAR.replace(
        "{", '{"note": NaN, ', 1), _SPACE, True),
    "two systems": (_systems(("S", _SYSTEM), ("T", _SYSTEM)), _SPACE, True),
    "lattice after the entries": (_obj(
        ("universes", _UNIS), ("systems", _obj(("S", _SYSTEM))),
        ("lattice", _LAT)), _SPACE, False),
    "universes after the entries": (_obj(
        ("lattice", _LAT), ("systems", _obj(("S", _SYSTEM))),
        ("universes", _UNIS)), _SPACE, False),
    "universe after the entries": (_systems(
        ("S", _obj(("entries", _ENTRIES), ("universe", '"U"')))),
        _SPACE, False),
    "lattice twice, before the entries": (_REGULAR.replace(
        "{", '{"lattice": {"kind": "boolean", "atoms": 2}, ', 1),
        _SPACE, False),
    "lattice twice, after the entries": (_REGULAR[:-1] + ', "lattice": '
                                         + json.dumps(SPECS["boolean2"]) + "}",
                                         64, False),
    "systems twice": (_REGULAR[:-1] + ', "systems": {"T": ' + _SYSTEM + "}}",
                      _SPACE, False),
    "system twice": (_systems(
        ("S", _obj(("universe", '"U"'), ("entries", "[]"))), ("S", _SYSTEM)),
        _SPACE, False),
    "entries twice": (_systems(("S", _obj(
        ("universe", '"U"'), ("entries", _ENTRIES), ("entries", "[]")))),
        _SPACE, False),
    "universe twice": (_systems(("S", _obj(
        ("universe", '"V"'), ("universe", '"U"'), ("entries", _ENTRIES)))),
        _SPACE, False),
    "BOM": ("\ufeff" + _REGULAR, _SPACE, False),
    "trailing data": (_REGULAR + " {}", _SPACE, False),
    "truncated": (_REGULAR[:-3], _SPACE, False),
    "trailing comma": (_REGULAR.replace(_ENTRIES, _ENTRIES[:-1] + ",]"),
                       _SPACE, False),
    "NaN member": (_REGULAR.replace('"1"]', "NaN]", 1), _SPACE, False),
    "deep nesting inside an entry": (
        _REGULAR.replace("[[", f"[{_DEEP}, [", 1), _SPACE, False),
    "shallow nesting inside an entry": (
        _REGULAR.replace("[[", f"[{_DEEP[4950:5050]}, [", 1), _SPACE, False),
    "empty entry list": (_REGULAR.replace(_ENTRIES, "[]"), _SPACE, False),
    "entries not a list": (_REGULAR.replace(_ENTRIES, '{"a": 1}'),
                           _SPACE, False),
    "unknown universe": (_REGULAR.replace('"universe":"U"',
                                          '"universe":"V"'), _SPACE, False),
    "universe not a string": (_REGULAR.replace('"universe":"U"',
                                               '"universe":["U"]'),
                              _SPACE, False),
    "universes not an object": (_REGULAR.replace(_UNIS, '[["u0"]]'),
                                _SPACE, False),
    "lattice error": (_REGULAR.replace(_LAT, '{"kind": "godel_chain"}'),
                      _SPACE, False),
    "lattice over the budget": (_REGULAR.replace(
        _LAT, '{"kind": "godel_chain", "n": 100000}'), _SPACE, False),
    "budget one below the space": (_REGULAR, _SPACE - 1, False),
    "budget 1": (_REGULAR, 1, False),
    "root not an object": ("[" + _REGULAR + "]", _SPACE, False),
    "empty object": ("{}", _SPACE, False),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_streamed_read_of_each_shape_matches_decoded_first(tmp_path, shape):
    text, budget, streams = SHAPES[shape]
    assert streams or (text, budget) != (_REGULAR, _SPACE)
    _assert_streams_as_decoded(tmp_path, text, budget, streams)


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


def _written(report) -> list[str]:
    """The chunks the report writer passes on, made small enough that a
    report spans several."""
    chunks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK", 16)
        cli._write_json(report, chunks.append)
    return chunks


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_KEYS, _REPORTS, max_size=6))
@example({})
@example({"command": "closure from-partition", "system": {"entries": [
    [["0", "1/2"], "1"], [[], "0"], [["x"], 1, None]]}})
@example({"a": ["s", 1, "t"], "b": [[], {}, [[]], {"": {}}]})
@example({1: "int", 2.5: "float", True: "bool", None: "none",
          float("nan"): "nan", float("-inf"): "inf", "1": "str"})
def test_writer_matches_json_dumps(report):
    chunks = _written(report)
    assert "".join(chunks) == json.dumps(report, indent=2) + "\n"
    assert all(len(chunk) >= 16 for chunk in chunks[:-1])


def _entries_list(struct) -> list:
    """A closure system's or operator's entries as a list of [set, image]
    pairs, each set's values in enumeration order."""
    d = struct.lattice.displays
    return [[[d[v] for v in values],
             d[image] if isinstance(image, int) else [d[v] for v in image]]
            for values, image in zip(
                Space(struct.lattice, struct.universe).values(), struct.table)]


@pytest.mark.parametrize("name", sorted(with_product(LATTICES)))
@pytest.mark.parametrize("npoints", range(4))
def test_table_entries_are_laid_out_as_their_list(name, npoints):
    lat = with_product(LATTICES)[name]
    uni = lf.Universe("X", tuple(f"x{k}" for k in range(npoints)))
    size = len(lat) ** npoints
    rng = random.Random(f"{name}{npoints}")
    system = system_from_explicit(
        lat, uni, [rng.choice(lat.elements()) for _ in range(size)])
    for struct in (system, lf.operator_from_system(system)):
        report = {"command": "x", "table": cli._table_json(struct)}
        listed = {**report, "table": {**report["table"],
                                      "entries": _entries_list(struct)}}
        assert "".join(_written(report)) == \
            json.dumps(listed, indent=2) + "\n"


@pytest.mark.parametrize("bad", [{(1, 2): "tuple key"}, {"a": [1, object()]},
                                 {"a": {frozenset(): 1}}])
def test_writer_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError) as want:
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError) as got:
        _written(bad)
    assert str(got.value) == str(want.value)


def test_report_ends_with_one_newline(capsys):
    code = cli.run(["validate", "--doc", str(FIXTURES / "w3.json"),
                    "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps the size of every write it is given."""

    def __init__(self):
        self.sizes = []

    def writable(self):
        return True

    def write(self, data):
        self.sizes.append(len(data))
        return len(data)


def test_large_report_reaches_unbuffered_stdout_in_chunks(big_system_doc,
                                                          monkeypatch):
    # what sys.stdout is under PYTHONUNBUFFERED: every write a raw write
    raw = _CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        raw, encoding="ascii", write_through=True))
    code = cli.run(["operator", "from-system", "--system", "S",
                    "--doc", str(big_system_doc), "--no-timing"])
    assert code == 0
    total = sum(raw.sizes)
    assert total > 8 * cli.CHUNK
    assert len(raw.sizes) <= math.ceil(total / cli.CHUNK) + 2
    assert max(raw.sizes) <= cli.CHUNK + 1024
