"""``src/`` holds one numpy site evaluator, and keeps holding one.

The per-worker numpy join, the fleet join, their density heuristic and
the tri-state ``segmented`` switch were folded into the shard loop of
``engine/local.py``; none of their names may reappear in the package
(a second evaluator would have to be named something).
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

DELETED = re.compile(
    r"SEGMENTED_DENSITY_THRESHOLD|_prefer_segmented"
    r"|merged_answer_table_per_worker|worker_answer_table\b"
    r"|fleet_answer_table|slice_pool_for_workers|segmented="
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
