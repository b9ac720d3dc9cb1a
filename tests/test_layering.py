"""Import-graph layering: lower packages never import upper ones.

``engine``, ``mpc``, ``data``, ``core`` and ``algorithms`` sit below
``serve``, ``api`` and ``planner``.  Every import statement (top-level,
lazy or under ``TYPE_CHECKING``) is read from the AST; there are no
inversions left, and ``KNOWN_INVERSIONS`` stays empty.  The
row-at-a-time reference executor, :mod:`repro.oracle`, sits above them
all: tests and benchmarks import it, no module of the package does.

LP solving stays behind :mod:`repro.core.covers` (whose shape memo is
the one memo of LP results) and the Friedgut LP of
:mod:`repro.core.friedgut`; ``functools`` caches stay out of every
other module, so per-module memos cannot creep back.
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
KNOWN_INVERSIONS: set[tuple[str, str]] = set()

#: The only modules outside ``lp/`` that may import ``repro.lp``; the
#: root ``__init__.py`` only exposes it as ``repro.lp`` beside the
#: other subpackages.
LP_IMPORTERS = {"__init__.py", "core/covers.py", "core/friedgut.py"}

#: The only modules that may use ``functools.lru_cache``/``cache``.
FUNCTOOLS_CACHE_USERS = {"core/covers.py", "mpc/routing.py"}


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


def test_only_covers_and_friedgut_import_the_lp_solver():
    importers = {
        path.relative_to(ROOT).as_posix()
        for path in sorted(ROOT.rglob("*.py"))
        if path.relative_to(ROOT).parts[0] != "lp"
        and any(
            module.split(".")[:2] == ["repro", "lp"]
            for module in _imported_modules(path)
        )
    }
    assert importers == LP_IMPORTERS


def _uses_functools_cache(path: Path) -> bool:
    names = {"lru_cache", "cache"}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in names for alias in node.names):
                return True
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            return True
    return False


def test_functools_caches_stay_in_covers_and_routing():
    users = {
        path.relative_to(ROOT).as_posix()
        for path in sorted(ROOT.rglob("*.py"))
        if _uses_functools_cache(path)
    }
    assert users <= FUNCTOOLS_CACHE_USERS


def test_no_package_module_imports_the_oracle():
    importers = [
        path.relative_to(ROOT).as_posix()
        for path in sorted(ROOT.rglob("*.py"))
        if "repro.oracle" in _imported_modules(path)
    ]
    assert importers == []
