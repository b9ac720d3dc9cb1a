"""Session quickstart: one front door, a planner behind it.

The public API in five steps:

1. ``repro.connect(database)`` opens a :class:`repro.Session`;
2. ``session.query(text)`` prepares a lazy ``Statement``;
3. ``.explain()`` shows which algorithm the cost-based planner picks
   (and what it beat) without touching the data;
4. ``.execute()`` runs it -- bit-identical to pinning the chosen
   algorithm with ``compile_with`` + ``execute_plan``;
5. ``.stream()`` iterates answers lazily, and ``session.update``
   mutates the data under the caches.

Run:  python examples/session_quickstart.py
"""

from __future__ import annotations

from fractions import Fraction

import repro
from repro.core import parse_query
from repro.data import matching_database
from repro.data.generators import skewed_database


def main() -> None:
    # -- 1. connect over any database ----------------------------------
    triangle = parse_query("C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
    session = repro.connect(
        matching_database(triangle, n=200, rng=0), p=16
    )

    # -- 2-3. prepare a statement, ask the planner why -----------------
    statement = session.query(triangle)
    explain = statement.explain()
    print(f"query:            {triangle}")
    print(f"chosen algorithm: {explain.algorithm}")
    print(f"shares:           {dict(explain.shares or ())}")
    print(
        f"predicted:        {explain.predicted_rounds} round(s), "
        f"~{explain.predicted_load:.0f} tuples/worker"
    )
    print(f"beat:             "
          + ", ".join(c.algorithm for c in explain.candidates[1:]))

    # -- 4. execute (and re-execute: the second hit is memoized) -------
    result = statement.execute()
    print(f"answers:          {len(result.answers)} "
          f"(max load {result.report.max_load_tuples} tuples)")
    again = statement.execute()
    print(f"repeat cached:    {again.cached}")

    # -- 5. stream + update --------------------------------------------
    first_three = []
    for row in statement.stream():
        first_three.append(row)
        if len(first_three) == 3:
            break
    print(f"first rows:       {first_three}")
    version = session.update(inserts={"S1": [(7, 9)]})
    print(f"updated:          now at version {version}")

    # The planner routes by workload: a long chain goes multi-round,
    # a skewed join goes to heavy-hitter routing -- same front door.
    chain = parse_query(
        "S1(a,b), S2(b,c), S3(c,d), S4(d,e), S5(e,f), S6(f,g)"
    )
    chain_session = repro.connect(matching_database(chain, n=100, rng=0))
    print(f"long chain:       {chain_session.explain(chain).algorithm}")

    join = parse_query("S1(x,y), S2(y,z)")
    skew_session = repro.connect(
        skewed_database(join, n=200, rng=0, heavy_fraction=0.5)
    )
    print(f"skewed join:      {skew_session.explain(join).algorithm}")

    # Pinning is still one keyword away (and partial answers opt-in).
    pinned = chain_session.query(chain, algorithm="hypercube").execute()
    print(f"pinned HC:        {len(pinned.answers)} answers, "
          f"{pinned.report.max_load_tuples} max load")
    # Below C3's space exponent 1/3 a one-round algorithm cannot
    # report everything; opting in to partial answers takes the
    # Proposition 3.11 tradeoff instead of going multi-round.
    partial_session = repro.connect(matching_database(triangle, n=200, rng=0))
    total = len(partial_session.query(triangle).execute())
    partial = partial_session.query(
        triangle, eps=Fraction(1, 4), allow_partial=True
    ).execute()
    print(f"partial eps=1/4:  {partial.algorithm} reported "
          f"{len(partial.answers)} of {total} answers")


if __name__ == "__main__":
    main()
