"""``src/`` holds one numpy site evaluator and one route/ship loop.

The per-worker numpy join, the fleet join, their density heuristic and
the tri-state ``segmented`` switch were folded into the shard loop of
``engine/local.py``; the process-parallel engine subclass, the second
streamed counting loop, the simulator's own group-by-worker code and
the ``REPRO_CHUNK_ROWS`` environment knob were folded into
``RoundEngine``'s loop over row ranges; the ``run_*`` wrappers, the
fixpoint plan kind and the REPL's own service went when ``connect()``
and ``compile_with`` + ``execute_plan`` became the only ways to run a
query.  None of their names may reappear in the package (a second
path would have to be named something).
"""

from __future__ import annotations

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


def test_only_the_session_builds_a_query_service():
    root = Path(repro.__file__).parent
    assert [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        for _ in range(path.read_text().count("QueryService("))
    ] == ["api/session.py"]
