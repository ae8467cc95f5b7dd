"""The package's public surface: what `latfuzz` exports is what README's
"Library API" list names, module by module, every public top-level
function or class of a package module is used by another module or
exported, only the CLI defines report layout methods, and a command that
needs none of the modules loaded on first use does not run them.  That a
command enters every function and method is `test_reachability.py`'s
check."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latfuzz"

# the console script (see pyproject.toml) and the in-process form of it
ENTRY_POINTS = {("cli", "main"), ("cli", "run")}


def _exports() -> dict:
    """Exported name -> defining module, from the package's relative
    imports and from `_LAZY`, its declaration of the modules it loads on
    first use and the names it exports from each."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.name: node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names}
    lazy, = (ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and [target.id for target in node.targets] == ["_LAZY"])
    exports.update((name, module) for module, names in lazy.items()
                   for name in names)
    return exports


def _readme_api() -> dict:
    """Name -> module, from the bullets of README's "Library API" list."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.split(r"\n- ", section)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        for name in names:
            listed[name] = module.removeprefix("latfuzz.")
    return listed


def test_every_export_is_listed_in_readme_under_its_module():
    assert _readme_api() == _exports()


def _referenced(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_used_elsewhere_or_exported():
    assert 'latfuzz = "latfuzz.cli:main"' in \
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    exported = set(_exports())
    unused = []
    for module, tree in sorted(trees.items()):
        elsewhere = set().union(*(_referenced(other)
                                  for name, other in trees.items()
                                  if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or (module, name) in ENTRY_POINTS:
                continue
            if name not in elsewhere and name not in exported:
                unused.append(f"{module}.{name}")
    assert unused == []


# the names of report layout methods, which only the CLI may define
LAYOUT = {"to_dict", "display_map", "display_rows"}


def test_only_the_cli_lays_out_reports():
    """Library functions return plain results, and `cli.py` alone knows
    the report keys and their nesting."""
    found = [f"{path.stem}.{node.name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cli"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in LAYOUT]
    assert found == []


# run in a fresh interpreter: prints the package modules whose top-level
# code ran while `validate` read a document
LAZY_PROBE = """
import io, sys
ran = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "<module>":
        ran.add(frame.f_globals.get("__name__"))

sys.setprofile(profile)
from latfuzz import cli
sys.stdout = io.StringIO()
code = cli.run(["validate", "--doc", sys.argv[1], "--no-timing"])
sys.setprofile(None)
sys.stdout = sys.__stdout__
print(code, *sorted(m for m in ran if m and m.startswith("latfuzz")))
"""


def _validate_runs(document: str) -> set:
    probe = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, str(ROOT / "fixtures" / document)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60, check=True)
    code, *ran = probe.stdout.split()
    assert code == "0"
    assert "latfuzz.document" in ran
    return set(ran)


def test_validate_runs_no_module_it_does_not_need():
    """A document of lattice, universes, fuzzy sets and partitions runs none
    of the modules loaded on first use; one that also carries explicit
    systems and candidates runs only `morphism`, which checks the
    candidates, and not `closure`, whose record types the loader reads
    from `fuzzyset`."""
    lazy = {"latfuzz.algebra", "latfuzz.ftransform", "latfuzz.closure"}
    assert not (lazy | {"latfuzz.morphism"}) & _validate_runs(
        "example31.json")
    ran = _validate_runs("w3.json")
    assert "latfuzz.morphism" in ran
    assert not lazy & ran


def _imported_names(tree) -> set:
    """The names a module binds by its imports, `__future__` aside."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def test_every_imported_name_is_used():
    """A deletion takes its imports with it: outside `__init__`, which
    imports to export, each name a module imports is read in that module,
    annotations included."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}"
                   for name in sorted(_imported_names(tree) - read)]
    assert unused == []
