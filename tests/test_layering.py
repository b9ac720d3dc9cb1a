"""Import-graph layering: lower packages never import upper ones.

``engine``, ``mpc``, ``data``, ``core`` and ``algorithms`` sit below
``serve``, ``api`` and ``planner``.  Every import statement (top-level,
lazy or under ``TYPE_CHECKING``) is read from the AST; there are no
inversions left, and ``KNOWN_INVERSIONS`` stays empty.  The
row-at-a-time reference executor, :mod:`repro.oracle`, sits above them
all: tests and benchmarks import it, no module of the package does.  It
keeps its own books: of the simulator it checks it takes only the
failure type and the report containers.  The simulator is column-only:
no module names the deleted row API.  Deliveries take one path: the
executor stages every step through one simulator verb, no routing step
declares itself ``shardable``, and no module names the deleted second
staging path.  Data is columnar only: no module imports the deleted
row model or names its converters, :mod:`repro.data` exports no row
type, and the backtracking row join lives only in the oracle.

Everything runs in one process: no module imports ``multiprocessing``,
nothing builds a process pool executor, no class defines a pickling
hook, and serving statements over RPC never loads
``multiprocessing``.

Sorted int64 tables are probed and spliced through one copy of the
structured-view helpers, in :mod:`repro.data.columnar`: IVM's merge
imports them rather than keeping its own.  The local join probes
with ``searchsorted`` only: :mod:`repro.algorithms.localjoin` builds
no ``bincount``/``cumsum`` table over the key span.  Replies carry
answers as bytes written from the int64 table: the RPC layer and the
answer encoder build no Python rows.  The RPC layer runs statements
only through :class:`~repro.api.session.Statement` methods, so the
benchmark's trace of ``Statement.execute`` roots every read.

LP solving stays behind :mod:`repro.core.covers` (whose shape memo is
the one memo of LP results) and the Friedgut LP of
:mod:`repro.core.friedgut`; ``functools`` caches stay out of every
other module, so per-module memos cannot creep back.  The planner and
the algorithm registry hold no module-level memo at all: a statement's
decision state lives in the session's decision cache, and heavy-value
counts on the immutable relations.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from importlib.util import resolve_name
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.engine import execute_plan

ROOT = Path(repro.__file__).parent
LOWER = ("engine", "mpc", "data", "core", "algorithms")
UPPER = ("serve", "api", "planner")

#: (importing file relative to the package, imported module).
KNOWN_INVERSIONS: set[tuple[str, str]] = set()

#: The only modules outside ``lp/`` that may import ``repro.lp``; the
#: root ``__init__.py`` only exposes it as ``repro.lp`` beside the
#: other subpackages.
LP_IMPORTERS = {"__init__.py", "core/covers.py", "core/friedgut.py"}

#: What :mod:`repro.oracle` may import from ``repro.mpc``: the failure
#: type and the report containers, never the accounting.
ORACLE_MPC_NAMES = {"CapacityExceeded", "RoundStats", "SimulationReport"}
ORACLE_FORBIDDEN = {
    "MPCSimulator", "plan_simulator", "plan_config", "bits_per_value",
}

#: The deleted row-at-a-time simulator API.
ROW_API = (
    "Mailbox", "worker_rows", "send_from_input", "broadcast_from_input",
    "has_row_deliveries",
)

#: The deleted whole-vs-counted split of delivery staging.
DUAL_PATH_API = (
    "send_columns", "stage_lazy_columns", "_ColumnStage",
    "has_eager_pools", "route_block_counts", "shardable",
)

#: The deleted row data model: its constructors and its converters.
ROW_MODEL = re.compile(
    r"\b(?:Relation|Database)\(|"
    r"\b(?:as_mapping|from_relation|to_relation|columnar_database)\b"
)

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


#: Module-level names that planner/registry functions may write: the
#: registry table itself (``register``), which is not a memo.
MODULE_STATE_WRITES = {("algorithms/registry.py", "_REGISTRY")}


def _module_memos(path: Path):
    """``(file, name)`` of every module-level memo in ``path``: a
    ``lru_cache``/``cache`` decorator, or a module-level name a
    function writes into (``global``, item assignment, ``setdefault``
    / ``update``)."""
    tree = ast.parse(path.read_text())
    module_names = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if isinstance(target, ast.Name)
    }
    where = path.relative_to(ROOT).as_posix()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in function.decorator_list:
            if isinstance(decorator, ast.Call):
                decorator = decorator.func
            name = getattr(decorator, "attr", getattr(decorator, "id", ""))
            if name in {"lru_cache", "cache"}:
                yield where, f"@{name} {function.name}"
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                yield from ((where, name) for name in node.names)
            elif isinstance(node, ast.Subscript) and not isinstance(
                node.ctx, ast.Load
            ):
                written = node.value
            elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", None
            ) in {"setdefault", "update"}:
                written = node.func.value
            else:
                continue
            if isinstance(written, ast.Name) and written.id in module_names:
                yield where, written.id


def test_planner_and_registry_keep_no_module_level_memo():
    paths = [*sorted((ROOT / "planner").glob("*.py")),
             ROOT / "algorithms" / "registry.py"]
    memos = {memo for path in paths for memo in _module_memos(path)}
    assert memos == MODULE_STATE_WRITES


def test_no_package_module_imports_the_oracle():
    importers = [
        path.relative_to(ROOT).as_posix()
        for path in sorted(ROOT.rglob("*.py"))
        if "repro.oracle" in _imported_modules(path)
    ]
    assert importers == []


def test_oracle_keeps_its_own_books():
    tree = ast.parse((ROOT / "oracle.py").read_text())
    named = set()
    from_mpc = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
            if node.module.startswith("repro.mpc"):
                from_mpc.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
    assert named.isdisjoint(ORACLE_FORBIDDEN)
    assert from_mpc == ORACLE_MPC_NAMES
    assert "repro.engine.executor" not in set(
        _imported_modules(ROOT / "oracle.py")
    )


def test_no_module_names_the_row_api():
    pattern = re.compile(r"\b(?:" + "|".join(ROW_API) + r")\b")
    users = {
        path.relative_to(ROOT).as_posix(): sorted(
            set(pattern.findall(path.read_text()))
        )
        for path in _package_modules()
        if pattern.search(path.read_text())
    }
    assert users == {}


def test_no_module_imports_the_row_model():
    importers = {
        path.relative_to(ROOT).as_posix()
        for path in _package_modules()
        for module in _imported_modules(path)
        if module in ("repro.data.database", "repro.data.matching")
    }
    assert importers == set()
    assert not (ROOT / "data" / "database.py").exists()


def test_no_module_names_the_row_model():
    users = {
        path.relative_to(ROOT).as_posix(): sorted(
            set(ROW_MODEL.findall(path.read_text()))
        )
        for path in _package_modules()
        if ROW_MODEL.search(path.read_text())
    }
    assert users == {}


def test_repro_data_exports_no_row_type():
    import repro.data

    exported = {getattr(repro.data, name) for name in repro.data.__all__}
    types = {value.__name__ for value in exported if isinstance(value, type)}
    assert types == {
        "ColumnarDatabase",
        "ColumnarRelation",
        "DataError",
        "DatabaseDelta",
        "VersionedDatabase",
    }


def test_the_backtracking_join_lives_only_in_the_oracle():
    definers = {
        path.relative_to(ROOT).as_posix()
        for path in _package_modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "evaluate_query"
    }
    assert definers == {"oracle.py"}


def test_no_module_names_the_second_delivery_path():
    pattern = re.compile(r"\b(?:" + "|".join(DUAL_PATH_API) + r")\b")
    users = {
        path.relative_to(ROOT).as_posix(): sorted(
            set(pattern.findall(path.read_text()))
        )
        for path in _package_modules()
        if pattern.search(path.read_text())
    }
    assert users == {}


def test_no_routing_step_defines_shardable():
    from repro.engine import steps

    step_types = [
        value
        for value in vars(steps).values()
        if isinstance(value, type) and issubclass(value, steps.RoutingStep)
    ]
    assert len(step_types) == 7
    assert [
        step_type.__name__
        for step_type in step_types
        if "shardable" in vars(step_type)
    ] == []


def test_the_executor_stages_through_one_simulator_verb():
    from repro.mpc.simulator import MPCSimulator

    tree = ast.parse((ROOT / "engine" / "executor.py").read_text())
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and inspect.isfunction(getattr(MPCSimulator, node.func.attr, None))
    }
    assert called == {"begin_round", "send", "end_round"}


def _package_modules():
    return sorted(ROOT.rglob("*.py"))


def test_no_module_imports_multiprocessing():
    importers = {
        path.relative_to(ROOT).as_posix()
        for path in _package_modules()
        if any(
            module.split(".")[0] == "multiprocessing"
            for module in _imported_modules(path)
        )
    }
    assert importers == set()


def test_nothing_uses_a_process_pool_executor():
    users = [
        path.relative_to(ROOT).as_posix()
        for path in _package_modules()
        if "ProcessPoolExecutor" in path.read_text()
    ]
    assert users == []


def test_no_class_defines_pickling_hooks():
    # Nothing is pickled: with one process, nothing crosses one.
    hooks = {
        f"{path.relative_to(ROOT).as_posix()}::{node.name}"
        for path in _package_modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__reduce__"
            for item in node.body
        )
    }
    assert hooks == set()


def test_execute_plan_has_no_parallel_parameter():
    assert "parallel" not in inspect.signature(execute_plan).parameters


def test_query_takes_no_workers(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["query", "S1(a,b), S2(b,c)", "--algorithm", "multiround",
              "--workers", "2"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_ivm_merge_keeps_no_structured_view_helper():
    path = ROOT / "serve" / "ivm" / "merge.py"
    tree = ast.parse(path.read_text())
    probes = sorted(
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"searchsorted", "view"}
    )
    assert probes == []
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro.data.columnar"
        for alias in node.names
    }
    assert {"absent_rows", "insert_rows", "remove_rows"} <= imported


def test_local_join_builds_no_direct_address_table():
    tree = ast.parse((ROOT / "algorithms" / "localjoin.py").read_text())
    tables = sorted(
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"bincount", "cumsum"}
    )
    assert tables == []


def test_replies_build_no_python_rows():
    service = ast.parse((ROOT / "serve" / "service.py").read_text())
    kernels = {
        node.name: node
        for node in service.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("encode_answers", "splice_answers", "_row_edges")
    }
    rpc = ast.parse((ROOT / "serve" / "rpc.py").read_text())

    def methods(tree):
        return {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        }

    assert "tolist" not in methods(rpc)
    assert len(kernels) == 3
    for kernel in kernels.values():
        assert methods(kernel).isdisjoint({"tolist", "dumps", "decode"})


def test_rpc_runs_statements_only_through_statement_methods():
    # The e2e trace roots every read at ``Statement.execute``: a server
    # calling the session's or the service's executor directly would
    # leave that span, and every span under it, empty.
    rpc = ast.parse((ROOT / "serve" / "rpc.py").read_text())
    names = {
        node.id for node in ast.walk(rpc) if isinstance(node, ast.Name)
    }
    attributes = {
        (ast.unparse(node.value), node.attr)
        for node in ast.walk(rpc)
        if isinstance(node, ast.Attribute)
    }
    assert "QueryService" not in names
    assert not {attr for _, attr in attributes} & {
        "_service", "_decide", "_holds", "_lock"
    }
    # ``RpcServer._execute`` is the server's own coalescing wrapper.
    assert {owner for owner, attr in attributes if attr == "_execute"} == {
        "self"
    }
    used = {attr for owner, attr in attributes if owner == "statement"}
    assert {"held", "execute"} <= used
    assert used <= {
        "held", "execute", "explain", "describe_plan", "canonical_key"
    }


@pytest.mark.parametrize(
    "first",
    [
        "import repro.planner",
        "import repro.serve.service",
        "import repro.serve.rpc",
        "import repro.serve.metrics",
        "import repro.api.session",
        "from repro.serve import RpcServer, serve_tcp",
    ],
)
def test_any_module_imports_first(first):
    # A fresh interpreter per entry point: an import cycle shows only
    # when its modules load in one particular order.
    subprocess.run(
        [sys.executable, "-c", f"{first}\nimport repro"],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
    )


def test_serving_never_loads_multiprocessing():
    # A fresh interpreter: this test process may have loaded it already.
    probe = (
        "import asyncio, json, sys\n"
        "from repro import connect\n"
        "from repro.core.query import parse_query\n"
        "from repro.data.generators import matching_database\n"
        "from repro.serve.rpc import RpcServer\n"
        "query = parse_query('S1(x,y), S2(y,z)')\n"
        "session = connect(matching_database(query, n=20, rng=1), p=4)\n"
        "async def serve():\n"
        "    async with RpcServer(session) as server:\n"
        "        reader, writer = await asyncio.open_connection(\n"
        "            *server.address)\n"
        "        for op in ('query', 'stats'):\n"
        "            request = {'op': op, 'q': str(query)}\n"
        "            writer.write(json.dumps(request).encode() + b'\\n')\n"
        "            assert json.loads(await reader.readline())['ok']\n"
        "        writer.close()\n"
        "        await writer.wait_closed()\n"
        "asyncio.run(serve())\n"
        "session.close()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('multiprocessing')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
    )
    assert result.stdout.strip() == "[]"
