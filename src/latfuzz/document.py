"""Instance documents: one JSON file naming every object a CLI invocation
can refer to.

Loading is eager and strict: every cross-reference must resolve, every value
must parse into the declared lattice, and every partition/candidate is fully
validated.  Non-fatal oddities (declared pairs outside the graph of an index
map) are collected as warnings.

A document can hold explicit systems of thousands of entries, so a
document's text is read one value at a time with `json`'s own scanner, and
each `systems` entry list is read one entry at a time straight into its
table: no decoded tree of a whole space ever exists.  `_system_table` is
the one reader of an entry list, a single pass over any iterable: an
entry's index is the sum of one dict lookup per point, and the first fault
raises the plain loop's error.  Anything out of the ordinary (the lattice,
the universes or a system's universe after its entries, a repeated key,
text that is not plain JSON, any error) sends the whole text to
`json.loads` instead, so every table, error and message stays the same.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from collections.abc import Iterable
from operator import getitem
from pathlib import Path

from . import lattice as lattice_mod
from .closure import ClosureSystem, system_from_explicit
from .errors import BudgetExceeded, DocumentError, WorkbenchError
from .fuzzyset import FuzzySet, Space, Universe, UniverseMap, from_labels
from .lattice import DEFAULT_BUDGET, Lattice
from .morphism import FPMapCandidate, make_candidate
from .partition import FuzzyPartition, validate_partition
from .record import Record
from .relation import FuzzyRelation


class InstanceDocument(Record):
    lattice: Lattice
    universes: dict[str, Universe] = {}
    fuzzy_sets: dict[str, FuzzySet] = {}
    partitions: dict[str, FuzzyPartition] = {}
    relations: dict[str, FuzzyRelation] = {}
    maps: dict[str, UniverseMap] = {}
    index_maps: dict[str, dict] = {}
    candidates: dict[str, FPMapCandidate] = {}
    pairings: dict[str, tuple[str, str]] = {}
    systems: dict[str, ClosureSystem] = {}
    warnings: list[str] = []

    def universe(self, name):
        return self._get("universe", self.universes, name)

    def fuzzy_set(self, name):
        return self._get("fuzzy set", self.fuzzy_sets, name)

    def partition(self, name):
        return self._get("partition", self.partitions, name)

    def relation(self, name):
        return self._get("relation", self.relations, name)

    def map(self, name):
        return self._get("map", self.maps, name)

    def candidate(self, name):
        return self._get("candidate", self.candidates, name)

    def system(self, name):
        return self._get("closure system", self.systems, name)

    @staticmethod
    def _get(kind, table, name):
        if name not in table:
            raise DocumentError(f"document names no {kind} {name!r}")
        return table[name]


def _require(cond, message):
    if not cond:
        raise DocumentError(message)


def load_document(source, budget: int = DEFAULT_BUDGET) -> InstanceDocument:
    """Parse a document from a path, JSON text, or an already-decoded dict.
    A string is JSON text when it names no file and its first non-whitespace
    character is `{`, `[` or a byte-order mark, so such text gets the error
    a file with that text gets."""
    lat = None
    if isinstance(source, (str, Path)):
        source, lat = _decode(source, budget)
    _require(isinstance(source, dict), "document root must be an object")

    try:
        return _build(source, budget, lat)
    except (DocumentError, BudgetExceeded):
        raise
    except WorkbenchError as exc:
        raise DocumentError(str(exc)) from exc


_TEXT_STARTS = ("{", "[", "\ufeff")


def _decode(source: str | Path, budget: int):
    """The JSON value of a document given as a path or as JSON text, with
    each system's entries already read into its table, and the lattice if
    that read built it.  A file's text lives only in this frame, so it is
    freed before the document is built from the value."""
    if not (isinstance(source, str) and source.lstrip()[:1] in _TEXT_STARTS
            and not os.path.isfile(source)):
        try:
            source = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DocumentError(f"cannot read document: {exc}") from exc
    reader = _Reader(source, budget)
    try:
        return reader.document(), reader.lattice
    except (_Irregular, ValueError, RecursionError):
        pass
    try:
        return json.loads(source), None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("document nests too deeply to decode") from None


_scan = json.JSONDecoder().scan_once
_skip = json.decoder.WHITESPACE.match
_SPACE = " \t\n\r"


class _Irregular(Exception):
    """Something the streamed read leaves to `json.loads`."""


class _Table(list):
    """A system's membership table, read from the text entry by entry."""


class _Reader:
    """A document's text, read as `json.loads` reads it, one value at a time
    from a cursor `i`, except that the entries of each system go straight
    into its table.  Whatever this read does not expect raises
    `_Irregular`."""

    def __init__(self, text: str, budget: int):
        self.text = text
        self.budget = budget
        self.i = 0
        self.lattice = None

    def _next(self) -> str:
        """The character after any whitespace at the cursor, which moves
        onto it."""
        self.i = _skip(self.text, self.i).end()
        return self.text[self.i:self.i + 1]

    def _take(self, char: str) -> None:
        if self._next() != char:
            raise _Irregular
        self.i += 1

    def _value(self):
        self._next()
        try:
            value, self.i = _scan(self.text, self.i)
        except StopIteration:
            raise _Irregular from None
        return value

    def _keys(self):
        """Each key of the object at the cursor, the cursor then at its
        value, which the caller reads before the next key."""
        self._take("{")
        if self._next() == "}":
            self.i += 1
            return
        seen = set()
        while True:
            if self._next() != '"':
                raise _Irregular
            key = self._value()
            if key in seen:  # json would keep the last
                raise _Irregular
            seen.add(key)
            self._take(":")
            yield key
            if self._next() == "}":
                self.i += 1
                return
            self._take(",")

    def document(self) -> dict:
        data = {}
        for key in self._keys():
            data[key] = (self._systems(data) if key == "systems"
                         else self._value())
        if self._next():
            raise _Irregular
        return data

    def _systems(self, data: dict) -> dict:
        systems = {}
        for name in self._keys():
            spec = systems[name] = {}
            for key in self._keys():
                spec[key] = (self._table(data, name, spec)
                             if key == "entries" else self._value())
        return systems

    def _table(self, data: dict, name: str, spec: dict) -> _Table:
        """The table of system `name`, from the entry list at the cursor;
        the lattice and the universe must come before it."""
        universes = data.get("universes")
        label = spec.get("universe")
        if not ("lattice" in data and isinstance(universes, dict)
                and isinstance(label, str)
                and isinstance(universes.get(label), list)):
            raise _Irregular
        try:
            if self.lattice is None:
                self.lattice = lattice_mod.build(data["lattice"], self.budget)
            uni = Universe(label, tuple(universes[label]))
            return _Table(_system_table(name, self.lattice, uni,
                                        self._entries(), self.budget))
        # json.loads decides which error wins; TypeError: unhashable labels
        except (WorkbenchError, TypeError):
            raise _Irregular from None

    def _entries(self):
        """Each entry of the list at the cursor, decoded one at a time."""
        self._take("[")
        if self._next() == "]":
            self.i += 1
            return
        text = self.text
        i = self.i
        try:
            while True:
                entry, i = _scan(text, i)
                yield entry
                # the regex only where there is whitespace, which compact
                # text has none of
                if text[i] in _SPACE:
                    i = _skip(text, i).end()
                if text[i] != ",":
                    break
                i += 1
                if text[i] in _SPACE:
                    i = _skip(text, i).end()
        except (StopIteration, IndexError):  # no value, or the text ends
            raise _Irregular from None
        self.i = i
        self._take("]")


# the object sections of a document, in load order, with the keys each
# entry must have and the JSON type of each
SECTIONS = {
    "universes": {},
    "fuzzy_sets": {"universe": str, "values": dict},
    "partitions": {"universe": str, "blocks": dict},
    "relations": {"universe": str, "rows": list},
    "maps": {"source": str, "target": str, "values": dict},
    "index_maps": {"source": str, "target": str, "values": dict},
    "candidates": {"source": str, "target": str, "phi": str, "psi": str},
    "pairings": {"left": str, "right": str},
    "systems": {"universe": str, "entries": list},
}
_JSON_TYPES = {str: "a string", dict: "an object", list: "a list"}


def _section(data: dict, section: str):
    """The (name, entry) pairs of a section, each checked against
    `SECTIONS`."""
    entries = data.get(section, {})
    _require(isinstance(entries, dict), f"section {section!r} must be an object")
    keys = SECTIONS[section]
    for name, spec in entries.items():
        where = f"{section} entry {name!r}"
        _require(not keys or isinstance(spec, dict), f"{where} must be an object")
        for key, kind in keys.items():
            _require(key in spec, f"{where} lacks key {key!r}")
            _require(isinstance(spec[key], kind),
                     f"{where}: {key!r} must be {_JSON_TYPES[kind]}")
        yield name, spec


def _build(data: dict, budget: int, lat: Lattice | None) -> InstanceDocument:
    """The document `data` describes; `lat` is its lattice if already built."""
    _require("lattice" in data, "document lacks a lattice description")
    if lat is None:
        lat = lattice_mod.build(data["lattice"], budget)
    doc = InstanceDocument(lattice=lat)

    for name, elements in _section(data, "universes"):
        _require(isinstance(elements, list),
                 f"universe {name}: elements must be a list")
        # value maps are keyed by element, and JSON object keys are strings
        _require(all(isinstance(e, str) for e in elements),
                 f"universe {name}: elements must be strings")
        doc.universes[name] = Universe(name, tuple(elements))

    for name, spec in _section(data, "fuzzy_sets"):
        uni = doc.universe(spec["universe"])
        doc.fuzzy_sets[name] = from_labels(lat, uni, spec["values"])

    for name, spec in _section(data, "partitions"):
        uni = doc.universe(spec["universe"])
        _require(all(isinstance(v, dict) for v in spec["blocks"].values()),
                 f"partitions entry {name!r}: each block must be an object")
        blocks = [
            (bname, from_labels(lat, uni, values))
            for bname, values in spec["blocks"].items()
        ]
        xi = spec.get("xi")
        _require(xi is None or isinstance(xi, dict),
                 f"partitions entry {name!r}: 'xi' must be an object")
        doc.partitions[name] = validate_partition(uni, blocks, xi)

    for name, spec in _section(data, "relations"):
        uni = doc.universe(spec["universe"])
        rows = spec["rows"]
        _require(
            len(rows) == len(uni)
            and all(isinstance(r, list) and len(r) == len(uni) for r in rows),
            f"relation {name}: table is not {len(uni)}x{len(uni)}",
        )
        doc.relations[name] = FuzzyRelation(
            lat, uni, tuple(tuple(lat.parse(v) for v in row) for row in rows)
        )

    for name, spec in _section(data, "maps"):
        src = doc.universe(spec["source"])
        tgt = doc.universe(spec["target"])
        doc.maps[name] = UniverseMap.from_labels(src, tgt, spec["values"])

    for name, spec in _section(data, "index_maps"):
        doc.partition(spec["source"])
        doc.partition(spec["target"])
        doc.index_maps[name] = dict(spec)

    for name, spec in _section(data, "candidates"):
        source = doc.partition(spec["source"])
        target = doc.partition(spec["target"])
        phi = doc.map(spec["phi"])
        psi_spec = doc.index_maps.get(spec["psi"])
        _require(psi_spec is not None,
                 f"candidate {name}: unknown index map {spec['psi']!r}")
        _require(
            psi_spec["source"] == spec["source"]
            and psi_spec["target"] == spec["target"],
            f"candidate {name}: index map {spec['psi']} joins "
            f"{psi_spec['source']}->{psi_spec['target']}, not "
            f"{spec['source']}->{spec['target']}",
        )
        pairs = spec.get("pairs")
        if pairs is not None:
            _require(
                isinstance(pairs, list)
                and all(isinstance(p, list) and len(p) == 2 for p in pairs),
                f"candidates entry {name!r}: 'pairs' must be a list of "
                f"[source block, target block] pairs",
            )
            pairs = [tuple(p) for p in pairs]
        cand, warns = make_candidate(
            source, target, phi, psi_spec["values"], pairs
        )
        doc.candidates[name] = cand
        doc.warnings.extend(f"candidate {name}: {w}" for w in warns)

    for name, spec in _section(data, "pairings"):
        left = doc.candidate(spec["left"])
        right = doc.candidate(spec["right"])
        _require(
            left.source == right.source,
            f"pairing {name}: candidates start from different sources",
        )
        doc.pairings[name] = (spec["left"], spec["right"])

    for name, spec in _section(data, "systems"):
        uni = doc.universe(spec["universe"])
        table = spec["entries"]
        if type(table) is not _Table:
            table = _system_table(name, lat, uni, table, budget)
        doc.systems[name] = system_from_explicit(lat, uni, table, budget)

    return doc


def _system_table(name: str, lat: Lattice, uni: Universe, entries: Iterable,
                  budget: int) -> list[int]:
    """The membership table of system `name`, one ordinal per set in
    `Space.values()` order, from one pass over its `[value-tuple, value]`
    entries.  An entry raises at its shape, its first unknown display, its
    arity, a duplicate or its member, in that order; then the budget, then
    the first set with no entry."""
    n = len(uni)
    size = len(lat) ** n
    ordinal = dict(zip(lat.displays, lat.elements()))
    if size <= budget:
        # display -> its digit's share of the index, one dict per point
        weights = [{d: v * w for d, v in ordinal.items()}
                   for w in Space(lat, uni).weights]
        table, key_of = [-1] * size, sum
    else:  # neither a table nor index weights: a dict keyed by value tuple
        weights, table, key_of = [ordinal] * n, defaultdict(lambda: -1), tuple
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], list)):
            raise DocumentError(
                f"system {name}: entries are [value-tuple, value] pairs")
        values, member = entry
        key = None
        if len(values) == n:  # map() would stop at the shorter of the two
            try:
                key = key_of(map(getitem, weights, values))
            except (KeyError, TypeError):  # TypeError: an unhashable display
                pass
        if key is None:
            list(map(lat.parse, values))  # raises at an unknown display
            raise DocumentError(
                f"system {name}: tuple arity does not match {uni.name}")
        if table[key] != -1:
            raise DocumentError(f"system {name}: duplicate entry for {values}")
        try:
            table[key] = ordinal[member]
        except (KeyError, TypeError):
            table[key] = lat.parse(member)
    space = Space(lat, uni, budget, f"system {name} table")
    if -1 in table:
        missing = space.values_at(table.index(-1))
        raise DocumentError(f"system {name}: missing entry for "
                            f"{[lat.displays[v] for v in missing]}")
    return table
