"""Every function and method of the package serves a command.

One fresh interpreter profiles every call while it imports `latfuzz.cli`
and runs the CLI test corpus, the CLI error cases, the over-budget fixture
and `REACHERS`, then `cli.main` once.  Each `def` under `src/latfuzz` must
have been entered, unless `EXEMPT` names it or the `NOT_REACHED` ledger
does.  The ledger may only shrink: an entry that a command enters, or that
no longer names a `def`, fails the test as well.  So a function that only
the tests call does not stay in the package by being exported.

The profile is set before the package is imported, so import-time calls
(record classes being created, the parser tables being built) count; in
this process `conftest.py` has imported the package already.  A `def` is
matched to a code object by file, first line and name, the first line of a
decorated `def` being its first decorator's.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import (LONG_LABELS, MALFORMED_DOCUMENTS,
                      MALFORMED_LATTICES, OVER_BUDGET, W3, _chain2,
                      corpus_argvs)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latfuzz"

# argvs beyond the CLI tests' own, each the only one to reach what it names
REACHERS = [
    # UniverseMap.is_surjective, the proviso of the dia-coa transfer
    ("transfer", "dia-coa", "--doc", W3, "--map", "collapse",
     "--source-partition", "X2P", "--target-partition", "SP"),
    # lattice.boolean_algebra
    ("validate", "--doc", json.dumps({"lattice": {"kind": "boolean",
                                                  "atoms": 2}})),
    # lattice._first_difference, naming where the tensor does not commute
    ("validate", "--doc", json.dumps({"lattice": _chain2(
        tensor=[["0", "1"], ["0", "1"]])})),
    # algebra._first_violation and Space.pushed_index: the blocks decide a
    # holding check, so only a failing one sweeps, here graded -> crisp
    ("check", "dia-hom", "--doc", json.dumps({
        "lattice": {"kind": "godel_chain", "n": 3},
        "universes": {"X": ["a", "b"]},
        "partitions": {
            "G": {"universe": "X", "blocks": {"a": {"a": "1", "b": "1/2"},
                                              "b": {"a": "0", "b": "1"}}},
            "C": {"universe": "X", "blocks": {"a": {"a": "1", "b": "0"},
                                              "b": {"a": "0", "b": "1"}}}},
        "maps": {"id": {"source": "X", "target": "X",
                        "values": {"a": "a", "b": "b"}}}}),
     "--map", "id", "--source-partition", "G", "--target-partition", "C"),
]

# protocol methods and immutability guards: safety code no command needs
EXEMPT = {
    "record.Record.__repr__",
    "record.Record.__hash__",
    "record.Record.__setattr__",
    "record.Record.__delattr__",
}

# entered by no command yet; each names the ROADMAP item that removes it
NOT_REACHED = {
    # item 7: formats a counterexample to a clause that is a theorem on
    # every input the CLI accepts
    "ftransform.transform_law_suite.<locals>.show",
}

# run in the fresh interpreter: argv[1] is the package directory, stdin a
# JSON list of argvs; prints the [file, first line, name] of every code
# object entered under the package
PROBE = """
import io, json, sys
package = sys.argv[1]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

argvs = json.load(sys.stdin)
out = sys.stdout
sys.stdout = io.StringIO()
sys.setprofile(profile)
from latfuzz import cli
for argv in argvs:
    cli.run(argv)
sys.argv = ["latfuzz", *argvs[0]]
try:
    cli.main()
except SystemExit:
    pass
sys.setprofile(None)
json.dump([[c.co_filename, c.co_firstlineno, c.co_name] for c in entered
           if c.co_filename.startswith(package)], out)
"""


def _argvs(tmp_path) -> list:
    """Every argv the probe runs, each with `--no-timing`."""
    argvs = [*corpus_argvs(), *REACHERS,
             ("closure", "from-partition", "--partition", "P10",
              "--doc", OVER_BUDGET)]
    for spec, _ in MALFORMED_LATTICES.values():
        argvs.append(("validate", "--doc", json.dumps({"lattice": spec})))
    for k, (doc, _) in enumerate(MALFORMED_DOCUMENTS.values()):
        if isinstance(doc, bytes):
            path = tmp_path / f"doc{k}.json"
            path.write_bytes(doc)
            doc = str(path)
        else:
            doc = json.dumps(doc)
        argvs.append(("validate", "--doc", doc))
    for doc in LONG_LABELS.values():
        argvs.append(("validate", "--doc", json.dumps(doc)))
    return [[*argv, "--no-timing"] for argv in argvs]


def _entered(tmp_path) -> set:
    """(file, first line, name) of every package code object entered."""
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE)],
        input=json.dumps(_argvs(tmp_path)),
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    return {(str(Path(f).resolve()), line, name)
            for f, line, name in json.loads(probe.stdout)}


def _definitions() -> dict:
    """(file, first line, name) -> "module.qualname" of every `def` in the
    package, nested ones with `<locals>` as in a `__qualname__`."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                qualname = f"{prefix}{child.name}"
                found[(str(path), first, child.name)] = qualname
                visit(child, path, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.resolve(), f"{path.stem}.")
    return found


def test_every_package_function_is_entered_by_a_command(tmp_path):
    entered = _entered(tmp_path)
    missed = {qualname for key, qualname in _definitions().items()
              if key not in entered}
    assert sorted(missed - EXEMPT) == sorted(NOT_REACHED)

