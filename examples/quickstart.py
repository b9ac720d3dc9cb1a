"""Quickstart: analyse a query and run HyperCube on one round.

Covers the core loop of the library:

1. write a conjunctive query in the paper's notation;
2. compute its fractional covering number ``tau*`` and space
   exponent ``eps = 1 - 1/tau*`` (Theorem 1.1) with the exact LP;
3. generate a random matching database (the paper's input model);
4. pin the one-round HyperCube algorithm (``compile_with`` +
   ``execute_plan``; ``session_quickstart.py`` shows the planner-backed
   front door) on a simulated MPC cluster and inspect answers,
   per-server load and replication rate;
5. re-run on the vectorized numpy backend (when available) and check
   the engines agree exactly.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.algorithms.localjoin import evaluate_query
from repro.algorithms.registry import compile_with
from repro.backend import numpy_available
from repro.core import (
    analyze_covers,
    characteristic,
    parse_query,
    share_exponents,
)
from repro.data import matching_database
from repro.engine import execute_plan


def main() -> None:
    # The triangle query C3 -- the paper's running example.
    query = parse_query("C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
    print(f"query:            {query}")

    analysis = analyze_covers(query)
    print(f"tau*:             {analysis.tau_star}")
    print(f"space exponent:   {analysis.space_exponent}")
    print(f"vertex cover:     {dict(analysis.vertex_cover)}")
    print(f"edge packing:     {dict(analysis.edge_packing)}")
    print(f"share exponents:  {share_exponents(query, analysis.vertex_cover)}")
    print(f"characteristic:   {characteristic(query)} "
          f"(E[|q|] = n^{1 + characteristic(query)})")

    # A uniform random matching database with domain size n.
    n, p = 200, 16
    database = matching_database(query, n=n, rng=42)
    print(f"\ninput: {database.total_tuples} tuples, "
          f"{database.total_bits} bits, matching={database.is_matching_database()}")

    plan = compile_with("hypercube", query, p, seed=42)
    result = execute_plan(plan, database)
    truth = evaluate_query(
        query, {name: database[name].tuples for name in database.relations}
    )
    assert result.answers == truth

    print(f"\nHyperCube on p={p} servers "
          f"(grid {plan.allocation.shares}):")
    print(f"answers found:    {len(result.answers)} (= exact join)")
    print(result.report.summary())

    # The columnar numpy engine runs the identical protocol, just
    # vectorized: same answers, same per-round load accounting.
    if numpy_available():
        vectorized = execute_plan(
            compile_with("hypercube", query, p, seed=42, backend="numpy"),
            database,
        )
        assert vectorized.answers == result.answers
        assert (
            vectorized.report.rounds[0].received_bits
            == result.report.rounds[0].received_bits
        )
        print("\nnumpy backend:    identical answers and load accounting")
    else:
        print("\nnumpy backend:    not available (pure reference only)")


if __name__ == "__main__":
    main()
