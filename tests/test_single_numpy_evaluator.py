"""``src/`` holds one numpy site evaluator and one route/ship loop.

The per-worker numpy join, the fleet join, their density heuristic and
the tri-state ``segmented`` switch were folded into the shard loop of
``engine/local.py``; the process-parallel engine subclass, the second
streamed counting loop, the simulator's own group-by-worker code and
the ``REPRO_CHUNK_ROWS`` environment knob were folded into
``RoundEngine``; its row ranges, their pool executor and the
reassembly of shard decisions went when routing became one inline
call per step -- the route/ship loop runs in the parent and the
process pool only evaluates streamed views; the ``run_*`` wrappers, the
fixpoint plan kind and the REPL's own service went when ``connect()``
and ``compile_with`` + ``execute_plan`` became the only ways to run a
query; the ``pure`` backend and its switchboard went when numpy became
the engine and the row-at-a-time path became ``repro.oracle``.  None
of their names may reappear in the package (a second path would have
to be named something).

Rows are canonicalised by one kernel,
:func:`repro.data.columnar.sorted_unique_rows`: no ``unique(...,
axis=0)`` void-row sort and no Python re-sort of a view's rows is left
beside it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

DELETED = re.compile(
    r"SEGMENTED_DENSITY_THRESHOLD|_prefer_segmented"
    r"|merged_answer_table_per_worker|worker_answer_table\b"
    r"|fleet_answer_table|slice_pool_for_workers|segmented="
    r"|ParallelRoundEngine|_stream_counts|_route_sharded|route_shards"
    r"|_build_pool|_merge_pools|CHUNK_ROWS_ENV|REPRO_CHUNK_ROWS"
    r"|run_(hypercube|hypercube_skew_aware|plan|partial_hypercube"
    r"|broadcast_join|single_server|single_attribute_join)\b"
    r"|HCResult|SkewAwareResult|MultiRoundResult|PartialResult"
    r"|BaselineResult|legacy_entry_points_allowed|warn_legacy_entry_point"
    r"|FixpointSpec|compile_hash_to_min|FALLBACK_FIXPOINT|_serve_handle"
    r"|parallel_min_rows"
    r"|repro\.backend|resolve_backend|numpy_or_none|require_numpy"
    r"|REPRO_DISABLE_NUMPY|_send_rows|worker_answer_rows|with_backend"
    r"|BackendError"
    r"|_row_ranges|_over_ranges|range_task|route_shard|count_shard"
    r"|_reassemble|RoutedStep|_eval_shards_parallel|min_rows"
    r"|parallel_rounds|fallback_rounds"
    r"|ServiceResult|\.raw\.|ivm_max_bytes|ivm_max_delta_fraction"
    r"|_compile_eps"
)


def test_deleted_evaluator_names_stay_deleted():
    root = Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if DELETED.search(line)
    ]
    assert not hits, "\n".join(hits)


def _calls(path: Path, callee: str):
    """``(innermost enclosing function | None, call)`` per ``callee``
    call, whether spelled ``callee(...)`` or ``module.callee(...)``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        if isinstance(node, ast.Call) and name == callee:
            found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_one_row_sort():
    root = Path(repro.__file__).parent
    void_sorts = {
        (path.relative_to(root).as_posix(), function)
        for path in sorted(root.rglob("*.py"))
        for function, call in _calls(path, "unique")
        if any(keyword.arg == "axis" for keyword in call.keywords)
    }
    # The one survivor needs ``return_inverse`` on an overflowing key.
    assert void_sorts == {("algorithms/localjoin.py", "_factorize_keys")}
    executor = root / "engine" / "executor.py"
    source = executor.read_text()
    assert not [
        ast.get_source_segment(source, call)
        for _, call in _calls(executor, "sorted")
        if "rows()" in ast.get_source_segment(source, call)
    ]


def test_only_the_session_builds_a_query_service():
    import inspect

    from repro.serve import service

    repo = Path(__file__).resolve().parents[1]
    sources = [
        path
        for tree in ("src", "tests", "benchmarks")
        for path in sorted((repo / tree).rglob("*.py"))
    ] + [repo / "README.md"]
    construction = re.compile(r"QueryService\(")
    assert [
        path.relative_to(repo).as_posix()
        for path in sources
        for _ in construction.findall(path.read_text())
    ] == ["src/repro/api/session.py"]
    # The executor takes only what the session forwards, and serving
    # has one front: no raw-service handle, no second write method.
    parameters = inspect.signature(service.QueryService).parameters
    assert len(parameters) <= 9
    assert not hasattr(repro.Session, "service")
    assert not hasattr(service.QueryService, "update")
    assert not {"QueryService", "ServiceResult", "ServiceStats"} & set(
        repro.serve.__all__
    )
