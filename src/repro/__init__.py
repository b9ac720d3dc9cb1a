"""repro: Communication Steps for Parallel Query Processing, rebuilt.

A complete Python implementation of Beame, Koutris and Suciu,
*Communication Steps for Parallel Query Processing* (PODS 2013):

* the MPC(eps) computation model as an exact simulator
  (:mod:`repro.mpc`),
* conjunctive-query theory -- hypergraphs, the characteristic
  ``chi(q)``, fractional vertex covers / edge packings and ``tau*``
  via an exact rational LP solver (:mod:`repro.core`, :mod:`repro.lp`),
* the HyperCube algorithm, its below-budget partial variant, multi-
  round query plans, connected components and baselines
  (:mod:`repro.algorithms`),
* matching databases and the paper's experiment inputs
  (:mod:`repro.data`), and
* table/figure regeneration harnesses (:mod:`repro.analysis`).

Quickstart -- the planner-backed Session front door::

    from repro import connect, core, data

    q = core.parse_query("C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
    print(core.covering_number(q))        # 3/2
    print(core.space_exponent(q))         # 1/3

    session = connect(data.matching_database(q, n=100, rng=0), p=16)
    statement = session.query(q)
    print(statement.explain().format())   # chosen algorithm + why
    result = statement.execute()          # planner picks the route
    print(len(result.answers), result.report.summary())

There are two ways to run a query: ``connect`` (planner, caches,
incremental maintenance) and, for pinned cache-free runs,
``repro.algorithms.registry.compile_with(name, ...)`` +
``repro.engine.execute_plan(plan, database)``.
"""

from repro import algorithms, analysis, api, core, data, lp, mpc
from repro.api import Result, Session, Statement, connect

#: The one statement of the version: pyproject.toml reads it from here.
__version__ = "0.2.0"

__all__ = [
    "algorithms",
    "analysis",
    "api",
    "core",
    "data",
    "lp",
    "mpc",
    "Result",
    "Session",
    "Statement",
    "connect",
    "__version__",
]
