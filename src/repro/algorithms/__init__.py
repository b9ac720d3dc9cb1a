"""Algorithms from the paper, plus the baselines it compares against.

Every query-answering algorithm is a pure plan *compiler*
(``compile_*``, registered by name in
:mod:`repro.algorithms.registry`); plans are executed by
:func:`repro.engine.execute_plan`.  Application code reaches them
through :func:`repro.connect`; ``compile_with(name, ...)`` +
``execute_plan`` is the pinned, cache-free path.

* :mod:`repro.algorithms.localjoin` -- exact in-memory evaluation of a
  full conjunctive query (the "unlimited local compute" of a worker).
* :mod:`repro.algorithms.hypercube` -- the one-round HyperCube (HC)
  algorithm of Section 3.1 (Proposition 3.2), binding heavy hitters
  at execution (after Koutris-Suciu [17]); on skew-free data no value
  is heavy and it routes as plain HC.
* :mod:`repro.algorithms.partial` -- the below-threshold algorithm of
  Proposition 3.11 that reports a ``p^{1 - (1-eps) tau*}`` fraction of
  answers.
* :mod:`repro.algorithms.multiround` -- the plan compiler of
  Proposition 4.1: one HC round per plan level.
* :mod:`repro.algorithms.baselines` -- broadcast join, single-server
  evaluation, the single-attribute hash join of Koutris-Suciu [17],
  and the cartesian grid of the introduction's drug-interaction
  example.

The experiment drivers over inputs that are not conjunctive queries
keep a ``run_*`` function each:

* :mod:`repro.algorithms.components` -- CONNECTED-COMPONENTS in the
  tuple-based model (Theorem 4.10) and the dense-graph two-round
  contrast of Karloff et al.
* :mod:`repro.algorithms.witness` -- the JOIN-WITNESS experiment of
  Proposition 3.12.
"""

from repro.algorithms.localjoin import evaluate_query_table
from repro.algorithms.components import (
    ComponentsResult,
    run_dense_two_round,
    run_hash_to_min,
)
from repro.algorithms.witness import WitnessResult, run_witness_experiment
from repro.algorithms.hypercube import detect_heavy_hitters
from repro.algorithms.baselines import CartesianResult, run_cartesian_grid

__all__ = [
    "evaluate_query_table",
    "ComponentsResult",
    "run_dense_two_round",
    "run_hash_to_min",
    "WitnessResult",
    "run_witness_experiment",
    "detect_heavy_hitters",
    "CartesianResult",
    "run_cartesian_grid",
]
