"""Triangle counting with HyperCube shares (Suri-Vassilvitskii).

The cycle query ``C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)`` is the
canonical "hard" one-round query: ``tau* = 3/2`` forces space exponent
``1/3``, i.e. every tuple must be replicated ``p^{1/3}`` times.  This
script counts triangles of a random graph by loading its edge set into
all three relations and running HC, then shows what happens when you
*refuse* to pay the replication (run at eps = 0 with Proposition 3.11:
most triangles are missed, at the predicted rate).

Run:  python examples/triangle_counting.py
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy

from repro.algorithms.localjoin import evaluate_query_table
from repro.algorithms.registry import compile_with
from repro.core import one_round_answer_fraction, parse_query
from repro.data import ColumnarDatabase, ColumnarRelation
from repro.engine import execute_plan


def random_graph_relation(
    name: str, num_vertices: int, num_edges: int, rng: random.Random
) -> ColumnarRelation:
    """A symmetric edge relation (both orientations stored)."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < num_edges:
        u = rng.randint(1, num_vertices)
        v = rng.randint(1, num_vertices)
        if u != v:
            edges.add((u, v))
            edges.add((v, u))
    return ColumnarRelation.from_rows(name, edges, domain_size=num_vertices)


def main() -> None:
    rng = random.Random(11)
    num_vertices, num_edges, p = 120, 900, 27

    base = random_graph_relation("S1", num_vertices, num_edges, rng)
    database = ColumnarDatabase.from_relations(
        ColumnarRelation(name, 2, base.columns, num_vertices)
        for name in ("S1", "S2", "S3")
    )
    query = parse_query("C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")

    truth = evaluate_query_table(
        query, {relation.name: relation.columns for relation in database}
    )
    # Each triangle appears 6 times as an ordered (x, y, z) answer.
    print(f"graph: {num_vertices} vertices, {len(base) // 2} edges, "
          f"{len(truth) // 6} triangles")

    plan = compile_with("hypercube", query, p, seed=5)
    result = execute_plan(plan, database)
    assert numpy.array_equal(result.table, truth)
    print(f"\nHC with shares {plan.allocation.shares} on p={p}:")
    print(f"  found all {len(result.answers)} ordered triangles")
    print(f"  max load {result.report.max_load_tuples} tuples "
          f"(input {sum(map(len, database))} tuples)")
    print(f"  replication rate {result.report.replication_rate:.2f} "
          f"~ p^(1/3) = {p ** (1 / 3):.2f}")

    # Refusing to replicate: eps = 0 cannot compute C3 in one round.
    partial = execute_plan(
        compile_with("partial", query, p, eps=Fraction(0), seed=5), database
    )
    bound = one_round_answer_fraction(query, Fraction(0), p)
    print(f"\nat eps=0 (no replication) only "
          f"{len(partial.answers) / len(truth):.1%} of answers were found; "
          f"Theorem 3.3 caps one-round algorithms at ~{bound:.1%}")


if __name__ == "__main__":
    main()
