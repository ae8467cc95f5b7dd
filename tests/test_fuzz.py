"""Exit-code fuzz of the document loader: `validate` on mutated fixtures.

Each mutant takes one shipped fixture and changes one node of its JSON
tree: it drops the node (a key, or a list item), or replaces it with one of
a few values of the wrong shape.  Nodes at every depth count, so a section,
an entry, a field and a single value are all mutated.  Whatever the
mutant, `validate` must return one of the documented exit codes (0 ok,
1 check failed, 2 input error, 3 over budget) and raise nothing.

The full list has about 4500 mutants; the test runs every STRIDE-th one.
STRIDE is prime to the number of mutation kinds, so consecutive picks
cycle through all kinds, and small enough that every section is hit.
"""

import json

import pytest

from conftest import FIXTURES
from latfuzz import cli

SOURCES = ("w3", "example31", "grid23")
JUNK = (5, [], {}, "x", None, [5], [[5]], {"a": 5})
KINDS = ("drop",) + tuple(json.dumps(v) for v in JUNK)
STRIDE = 7


def _paths(node, path=()):
    """The path of every node below `node`, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(doc, path, kind):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(kind)
    return doc


def _mutants():
    """(source, path, kind) for every node of every source and every kind."""
    for source in SOURCES:
        doc = json.loads((FIXTURES / f"{source}.json").read_text())
        for path in _paths(doc):
            for kind in KINDS:
                yield source, path, kind


def test_mutated_documents_exit_with_a_documented_code(capsys):
    mutants = list(_mutants())
    picked = mutants[::STRIDE]
    assert {kind for _, _, kind in picked} == set(KINDS)
    assert {(s, p[0]) for s, p, _ in picked} == \
        {(s, p[0]) for s, p, _ in mutants}
    texts = {s: (FIXTURES / f"{s}.json").read_text() for s in SOURCES}
    for source, path, kind in picked:
        text = json.dumps(_mutate(json.loads(texts[source]), path, kind))
        try:
            code = cli.run(["validate", "--doc", text, "--no-timing"])
        except Exception as exc:  # noqa: BLE001 - any exception is the failure
            pytest.fail(f"{source} {list(path)} -> {kind}: {exc!r}")
        assert code in (0, 1, 2, 3), (source, path, kind, code)
        capsys.readouterr()
