"""Instance documents: one JSON file naming every object a CLI invocation
can refer to.

Loading is eager and strict: every cross-reference must resolve, every value
must parse into the declared lattice, and every partition/candidate is fully
validated.  Non-fatal oddities (declared pairs outside the graph of an index
map) are collected as warnings.

A document can hold explicit systems of thousands of entries, so a file is
read in windows of `WINDOW` characters, one value at a time with `json`'s
own scanner, and each `systems` entry list straight into its table: neither
the whole text nor a decoded tree of a whole space ever exists, as long as
each list is canonical: `_Reader._run` must match all of it as compact text
in `Space.values()` order, each member a display as `json` encodes it.  Any
other list, and anything else out of the ordinary (the lattice, the
universes or a system's universe after its entries, a repeated key, a space
over the budget, text that is not plain JSON or not UTF-8, any error) sends
the whole text to `json.loads` and each decoded list to `_system_table`, so
every table, error and message stays the same.
"""

from __future__ import annotations

import io
import json
import os
import re
from collections import defaultdict
from collections.abc import Iterable
from itertools import islice, product
from operator import add, getitem
from pathlib import Path

from . import morphism
from . import lattice as lattice_mod
from .errors import BudgetExceeded, DocumentError, WorkbenchError
from .fuzzyset import (ClosureSystem, FuzzySet, Space, Universe, UniverseMap,
                       from_labels)
from .lattice import DEFAULT_BUDGET, Lattice
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
    candidates: dict[str, morphism.FPMapCandidate] = {}
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
WINDOW = 1 << 16  # characters of a file read at a time


def _decode(source: str | Path, budget: int):
    """The JSON value of a document given as a path or as JSON text, with
    each system's entries already read into its table, and the lattice if
    that read built it.  A file's whole text is read only for `json.loads`,
    when the streamed read gives up."""
    text = (isinstance(source, str) and source.lstrip()[:1] in _TEXT_STARTS
            and not os.path.isfile(source) and source)
    try:
        with (io.StringIO() if text else
              Path(source).open(encoding="utf-8")) as file:
            reader = _Reader(text or "", file, budget)
            try:
                return reader.document(), reader.lattice
            except (_Irregular, ValueError, RecursionError):
                pass
        text = text or Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read document: {exc}") from exc
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("document nests too deeply to decode") from None


_scan = json.JSONDecoder().scan_once
_skip = json.decoder.WHITESPACE.match
# the `],` ending a compact entry's set, its member and its `]`
_MEMBER = re.compile(r'(\],"[^"\\]*(?:\\.[^"\\]*)*"\])')


class _Irregular(Exception):
    """Something the streamed read leaves to `json.loads`."""


class _Table(list):
    """A system's membership table, matched in the text of its entries."""


class _Reader:
    """A document's text, read as `json.loads` reads it, one value at a time
    from a cursor `i` in a window `text` of `file`, but a system's entries go
    into its table by `_run`, which must match them all.  A value is taken
    once three more characters are in the window: a number cut in its
    fraction or exponent ends two before.  Surprises raise `_Irregular`."""

    def __init__(self, text: str, file, budget: int):
        self.text = text
        self.file = file
        self.budget = budget
        self.i = 0
        self.lattice = None

    def _more(self) -> bool:
        """Whether the file goes on; if so, the window keeps its text from
        the cursor on and grows geometrically, by that much or `WINDOW`."""
        chunk = self.file.read(max(WINDOW, len(self.text) - self.i))
        if chunk:
            self.text, self.i = self.text[self.i:] + chunk, 0
        return bool(chunk)

    def _next(self) -> str:
        """The character after any whitespace at the cursor, which moves
        onto it; empty at the end of the text."""
        while True:
            self.i = _skip(self.text, self.i).end()
            if self.i < len(self.text) or not self._more():
                return self.text[self.i:self.i + 1]

    def _take(self, char: str) -> None:
        if self._next() != char:
            raise _Irregular
        self.i += 1

    def _value(self):
        self._next()
        while True:
            try:
                value, end = _scan(self.text, self.i)
            except (StopIteration, ValueError):  # or cut at the window's end
                if self._more():
                    continue
                raise _Irregular from None
            if end + 2 < len(self.text) or not self._more():
                self.i = end
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
                spec[key] = (self._table(data, spec)
                             if key == "entries" else self._value())
        return systems

    def _table(self, data: dict, spec: dict) -> _Table:
        """The table of the system `spec` describes, from the entry list at
        the cursor; the lattice and the universe must come before it, and
        the space must fit the budget before anything is allocated."""
        universes = data.get("universes")
        label = spec.get("universe")
        if not ("lattice" in data and isinstance(universes, dict)
                and isinstance(label, str)
                and isinstance(universes.get(label), list)):
            raise _Irregular
        try:
            if self.lattice is None:
                self.lattice = lattice_mod.build(data["lattice"], self.budget)
        except WorkbenchError:  # json.loads decides which error wins
            raise _Irregular from None
        # `_build` checks the universe's labels before it reaches the table
        dim = len(universes[label])
        size = len(self.lattice) ** dim
        if size > self.budget:
            raise _Irregular
        self._take("[")
        return self._run(dim, size)

    def _run(self, dim: int, size: int) -> _Table:
        """The `size` members of the list at the cursor, matched a span of
        entries at a time against `json.dumps(..., separators=(",", ":"))`
        of the sets in order, the cursor then after its `]`."""
        enc = [json.dumps(d) for d in self.lattice.displays]
        code = {"]," + e + "]": v for v, e in enumerate(enc)}
        points = [enc] * dim or [[""]]  # `[[` and a set's displays
        points[0] = ["[[" + e for e in points[0]]
        heads = map(",".join, product(*points))
        span = 64 * ((dim + 1) * (max(map(len, enc)) + 1) + 5)  # >= 64 entries
        table = _Table()
        while len(table) < size:
            text, i = self.text, self.i
            if len(text) - i < span and self._more():
                continue
            # a span's entries, each with the character after it in the window
            end = min(len(text) - 1, i + span)
            found = _MEMBER.findall(text, i, end)[:size - len(table)]
            want = ",".join(map(add, islice(heads, len(found)), found))
            want += "]" if len(table) + len(found) == size else ","
            if not (found and text.startswith(want, i)  # `[]` misses a set
                    and code.keys() >= {*found}):
                raise _Irregular
            table += map(code.__getitem__, found)
            self.i = i + len(want)
        return table


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
        morphism.index_map(doc.partition(spec["source"]),
                           doc.partition(spec["target"]), spec["values"])
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
        cand, warns = morphism.make_candidate(
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
        if type(table) is not _Table:  # decoded by `json.loads`
            table = _system_table(name, lat, uni, table, budget)
        # either read has checked every member and the table's size
        doc.systems[name] = ClosureSystem(lat, uni, tuple(table), "explicit")

    return doc


def _system_table(name: str, lat: Lattice, uni: Universe, entries: Iterable,
                  budget: int) -> list[int]:
    """The membership table of system `name`, one ordinal per set in
    `Space.values()` order, from one pass over its decoded `[value-tuple,
    value]` entries.  An entry raises at its shape, its first unknown
    display, its arity, a duplicate or its member, in that order; then the
    budget, then the first set with no entry."""
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
