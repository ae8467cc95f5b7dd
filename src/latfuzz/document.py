"""Instance documents: one JSON file naming every object a CLI invocation
can refer to.

Loading is eager and strict: every cross-reference must resolve, every value
must parse into the declared lattice, and every partition/candidate is fully
validated.  Non-fatal oddities (declared pairs outside the graph of an index
map) are collected as warnings.

A document can hold explicit systems of thousands of entries, so loading
holds as little beside the decoded JSON as it can.  A file's text is freed
as soon as it is decoded.  A `systems` entry list that is well-formed, complete and within
the budget is read in bulk into one preallocated table: each entry's index
is the sum of one dict lookup per point, and a slot filled twice rejects
the list.  Any other list is read entry by entry, so the first fault and
its message stay those of the plain loop.
"""

from __future__ import annotations

import json
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
    """Parse a document from a path, JSON text, or an already-decoded dict."""
    data = _decode(source) if isinstance(source, (str, Path)) else source
    _require(isinstance(data, dict), "document root must be an object")

    try:
        return _build(data, budget)
    except (DocumentError, BudgetExceeded):
        raise
    except WorkbenchError as exc:
        raise DocumentError(str(exc)) from exc


def _decode(source: str | Path):
    """The JSON value of a document given as a path or as JSON text.  A file's
    text lives only in this frame, so it is freed before the document is
    built from the value."""
    if not (isinstance(source, str) and source.lstrip().startswith("{")):
        try:
            source = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DocumentError(f"cannot read document: {exc}") from exc
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("document nests too deeply to decode") from None


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


def _build(data: dict, budget: int) -> InstanceDocument:
    _require("lattice" in data, "document lacks a lattice description")
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
        table = _system_table(name, lat, uni, spec["entries"], budget)
        doc.systems[name] = system_from_explicit(lat, uni, table, budget)

    return doc


def _system_table(name: str, lat: Lattice, uni: Universe, entries: list,
                  budget: int) -> list[int]:
    """The membership table of system `name`, one ordinal per set in
    `Space.values()` order, from its `[value-tuple, value]` entries."""
    table = _bulk_table(lat, uni, entries, budget)
    if table is not None:
        return table
    # entry by entry, so the first fault is the one reported
    by_values = {}
    for entry in entries:
        _require(isinstance(entry, list) and len(entry) == 2
                 and isinstance(entry[0], list),
                 f"system {name}: entries are [value-tuple, value] pairs")
        key = tuple(lat.parse(v) for v in entry[0])
        _require(len(key) == len(uni),
                 f"system {name}: tuple arity does not match {uni.name}")
        _require(key not in by_values,
                 f"system {name}: duplicate entry for {entry[0]}")
        by_values[key] = lat.parse(entry[1])
    space = Space(lat, uni, budget, f"system {name} table")
    if len(by_values) < space.size:
        missing = next(v for v in space.values() if v not in by_values)
        raise DocumentError(
            f"system {name}: missing entry for "
            f"{[lat.displays[v] for v in missing]}")
    return [by_values[v] for v in space.values()]


def _bulk_table(lat: Lattice, uni: Universe, entries: list,
                budget: int) -> list[int] | None:
    """The table of a well-formed, complete entry list on a space within
    the budget, each entry's index summed from one dict lookup per point;
    None for any other input, which the entry-by-entry loop then
    diagnoses."""
    n = len(uni)
    size = len(lat) ** n
    if size > budget or len(entries) != size:
        return None
    ordinal = dict(zip(lat.displays, lat.elements()))
    # display -> its digit's share of the index, one dict per point
    weights = [{d: v * w for d, v in ordinal.items()}
               for w in Space(lat, uni).weights]
    table = [-1] * size
    try:
        for entry in entries:
            if type(entry) is not list or len(entry) != 2:
                return None
            values, member = entry
            # map() would stop at the shorter of the two
            if type(values) is not list or len(values) != n:
                return None
            key = sum(map(getitem, weights, values))
            # each of the `size` entries must fill a slot of its own
            if table[key] != -1:
                return None
            table[key] = ordinal[member]
    except (KeyError, TypeError):  # TypeError: an unhashable display
        return None
    return table
