"""The package's public surface: what `latfuzz` exports is what README's
"Library API" list names, module by module, every public top-level
function or class of a package module is used by another module or
exported, and only the CLI defines report layout methods."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latfuzz"

# the console script (see pyproject.toml) and the in-process form of it
ENTRY_POINTS = {("cli", "main"), ("cli", "run")}


def _exports() -> dict:
    """Exported name -> defining module, from the package's imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}


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
