"""Import-graph layering: lower packages never import upper ones.

``engine``, ``mpc``, ``data``, ``core`` and ``algorithms`` sit below
``serve``, ``api`` and ``planner``.  Every import statement (top-level,
lazy or under ``TYPE_CHECKING``) is read from the AST; the remaining
inversions are listed explicitly so the list can only shrink.  The
row-at-a-time reference executor, :mod:`repro.oracle`, sits above them
all: tests and benchmarks import it, no module of the package does.
"""

from __future__ import annotations

import ast
from importlib.util import resolve_name
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
LOWER = ("engine", "mpc", "data", "core", "algorithms")
UPPER = ("serve", "api", "planner")

#: (importing file relative to the package, imported module).
KNOWN_INVERSIONS = {
    ("algorithms/registry.py", "repro.planner.stats"),
}


def _imported_modules(path: Path):
    """Absolute dotted names of every module ``path`` imports."""
    package = ".".join(("repro", *path.relative_to(ROOT).parts[:-1]))
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = resolve_name(
                "." * node.level + (node.module or ""), package
            )
            if module == "repro":
                # ``from repro import serve`` names a subpackage.
                yield from (f"repro.{alias.name}" for alias in node.names)
            else:
                yield module


def test_lower_layers_do_not_import_upper_layers():
    inversions = {
        (path.relative_to(ROOT).as_posix(), module)
        for layer in LOWER
        for path in sorted((ROOT / layer).rglob("*.py"))
        for module in _imported_modules(path)
        if module.split(".")[:2] in (["repro", upper] for upper in UPPER)
    }
    assert inversions == KNOWN_INVERSIONS


def test_no_package_module_imports_the_oracle():
    importers = [
        path.relative_to(ROOT).as_posix()
        for path in sorted(ROOT.rglob("*.py"))
        if "repro.oracle" in _imported_modules(path)
    ]
    assert importers == []
