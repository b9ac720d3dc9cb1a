"""Parameter sweeps for the measured experiments (E4-E9 in DESIGN.md).

Each sweep returns a list of plain dict rows, ready for
:func:`repro.analysis.reporting.format_table`; benchmarks print them
and EXPERIMENTS.md records paper-vs-measured per row.  Shapes to watch:

* E4 :func:`sweep_hc_load` -- HC max load tracks ``n / p^{1-eps(q)}``.
* E5 :func:`sweep_one_round_fraction` -- below the space exponent the
  reported-answer fraction decays like ``p^{-(tau*(1-eps)-1)}``.
* E6 :func:`sweep_multiround_rounds` -- plan depth for ``L_k`` steps
  like ``ceil(log_{k_eps} k)``.
* E7 :func:`sweep_components_rounds` -- sparse CC rounds grow with
  ``log p``; dense CC stays at 2 rounds.
* E8 :func:`sweep_witness` -- witness hit-rate decays with ``p``.
* E9 :func:`sweep_cartesian_tradeoff` -- replication ``g`` versus
  reducer size ``2n/g``.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

import numpy

from repro.algorithms.baselines import run_cartesian_grid
from repro.algorithms.components import run_dense_two_round, run_hash_to_min
from repro.algorithms.localjoin import evaluate_query_table
from repro.algorithms.registry import compile_with
from repro.algorithms.witness import run_witness_experiment
from repro.core.bounds import (
    cc_round_lower_bound,
    k_eps,
    one_round_answer_fraction,
    round_lower_bound,
    round_upper_bound,
)
from repro.core.covers import covering_number, space_exponent
from repro.core.families import line_query
from repro.core.query import ConjunctiveQuery
from repro.data.columnar import ColumnarDatabase, ColumnarRelation
from repro.data.generators import (
    dense_graph,
    layered_path_graph,
    matching_database,
)
from repro.engine import execute_plan


def _exact_answers(query: ConjunctiveQuery, database: ColumnarDatabase):
    """The single-site join: ``query``'s answer table over ``database``."""
    return evaluate_query_table(
        query, {relation.name: relation.columns for relation in database}
    )


def sweep_hc_load(
    query: ConjunctiveQuery,
    n: int = 400,
    p_values: tuple[int, ...] = (4, 8, 16, 32, 64),
    trials: int = 3,
    seed: int = 0,
) -> list[dict[str, object]]:
    """E4: HC maximum load (tuples/server) versus ``p``.

    The theory column is ``l * n / p^{1-eps(q)}`` tuples (each of the
    ``l`` atoms contributes up to ``n / p^{1-eps}``); the measured
    column should track it within small constants, and the ratio
    column (measured / theory) should stay roughly flat in ``p`` --
    that flatness is Proposition 3.2.
    """
    eps = space_exponent(query)
    rows = []
    for p in p_values:
        loads = []
        for trial in range(trials):
            database = matching_database(query, n, rng=seed + trial)
            plan = compile_with("hypercube", query, p, seed=seed + trial)
            loads.append(
                execute_plan(plan, database).report.max_load_tuples
            )
        theory = (
            query.num_atoms * n / float(p) ** float(1 - eps)
        )
        measured = statistics.mean(loads)
        rows.append(
            {
                "query": query.name,
                "p": p,
                "eps": eps,
                "max_load_tuples": round(measured, 1),
                "theory_load": round(theory, 1),
                "ratio": round(measured / theory, 2),
            }
        )
    return rows


def sweep_one_round_fraction(
    query: ConjunctiveQuery,
    eps: Fraction,
    n: int = 300,
    p_values: tuple[int, ...] = (4, 8, 16, 32, 64),
    trials: int = 5,
    seed: int = 0,
) -> list[dict[str, object]]:
    """E5: reported-answer fraction of the Prop 3.11 algorithm vs p.

    Valid regime: ``eps < 1 - 1/tau*(query)``.  The theory column is
    ``p^{-(tau*(1-eps)-1)}`` (Theorem 3.3); measured/theory should be
    roughly flat in ``p``.
    """
    rows = []
    for p in p_values:
        fractions = []
        for trial in range(trials):
            database = matching_database(query, n, rng=seed + 31 * trial)
            plan = compile_with(
                "partial", query, p, eps=eps, seed=seed + 17 * trial
            )
            # Prop. 3.11's measured quantity: reported / |q(I)|.
            total = len(_exact_answers(query, database))
            reported = len(execute_plan(plan, database).answers)
            fractions.append(reported / total if total else 0.0)
        theory = one_round_answer_fraction(query, eps, p)
        measured = statistics.mean(fractions)
        rows.append(
            {
                "query": query.name,
                "p": p,
                "eps": eps,
                "measured_fraction": round(measured, 4),
                "theory_fraction": round(theory, 4),
                "ratio": round(measured / theory, 2) if theory else None,
            }
        )
    return rows


def sweep_multiround_rounds(
    k_values: tuple[int, ...] = (4, 8, 16),
    eps_values: tuple[Fraction, ...] = (Fraction(0), Fraction(1, 2)),
    n: int = 100,
    p: int = 8,
    seed: int = 0,
) -> list[dict[str, object]]:
    """E6: rounds used by the ``L_k`` plan versus theory.

    Columns: measured simulator rounds, the paper's target
    ``ceil(log_{k_eps} k)``, and Lemma 4.3 / Corollary 4.8 bounds.
    Every execution is verified against the single-site join.
    """
    rows = []
    for k in k_values:
        query = line_query(k)
        database = matching_database(query, n, rng=seed)
        truth = _exact_answers(query, database)
        for eps in eps_values:
            result = execute_plan(
                compile_with("multiround", query, p, eps=eps, seed=seed),
                database,
            )
            if not numpy.array_equal(result.table, truth):
                raise AssertionError(
                    f"plan execution wrong for L{k} at eps={eps}"
                )
            base = k_eps(eps)
            target = _ceil_log(base, k)
            rows.append(
                {
                    "query": query.name,
                    "eps": eps,
                    "k_eps": base,
                    "rounds_measured": result.report.num_rounds,
                    "paper_rounds": target,
                    "lower_bound": round_lower_bound(query, eps),
                    "upper_bound": round_upper_bound(query, eps),
                }
            )
    return rows


def sweep_components_rounds(
    p_values: tuple[int, ...] = (4, 16, 64, 256),
    layer_size: int = 24,
    seed: int = 0,
) -> list[dict[str, object]]:
    """E7: CC rounds on sparse layered graphs vs dense graphs.

    The sparse instance uses ``k = floor(sqrt(p))`` layers (the
    ``p^delta`` of Theorem 4.10 at ``eps = 0``), so measured rounds
    should grow with ``log p``; the dense contrast stays at 2.
    """
    rows = []
    for p in p_values:
        k = max(2, int(p ** 0.5))
        sparse = layered_path_graph(
            num_layers=k, layer_size=layer_size, rng=seed
        )
        sparse_run = run_hash_to_min(sparse, p=p, seed=seed)
        if not sparse_run.correct:
            raise AssertionError(f"hash-to-min wrong at p={p}")
        vertices = 8 * p
        dense = dense_graph(
            num_vertices=vertices,
            num_edges=min(
                vertices * (vertices - 1) // 2, 16 * vertices
            ),
            rng=seed,
        )
        dense_run = run_dense_two_round(dense, p=p, seed=seed)
        if not dense_run.correct:
            raise AssertionError(f"dense CC wrong at p={p}")
        rows.append(
            {
                "p": p,
                "path_length_k": k,
                "sparse_rounds": sparse_run.rounds_used,
                "lower_bound": cc_round_lower_bound(p, Fraction(0)),
                "dense_rounds": dense_run.rounds_used,
            }
        )
    return rows


def sweep_witness(
    n: int = 144,
    p_values: tuple[int, ...] = (2, 4, 8, 16),
    eps: Fraction = Fraction(0),
    trials: int = 20,
    seed: int = 0,
) -> list[dict[str, object]]:
    """E8: JOIN-WITNESS hit rate vs p (Proposition 3.12).

    Hit rate is measured conditionally on a witness existing (the
    instance has ``E[|q|] = 1``, so many draws are empty).  The chain
    fraction column is the Theorem 3.3 decay for ``tau* = 2``.
    """
    rows = []
    for p in p_values:
        hits = 0
        eligible = 0
        chain_fractions = []
        for trial in range(trials):
            result = run_witness_experiment(
                n=n, p=p, eps=eps, seed=seed + 101 * trial
            )
            chain_fractions.append(result.chain_fraction)
            if result.true_witnesses:
                eligible += 1
                if result.found:
                    hits += 1
        rows.append(
            {
                "p": p,
                "eps": eps,
                "instances_with_witness": eligible,
                "witness_found": hits,
                "hit_rate": round(hits / eligible, 3) if eligible else None,
                "mean_chain_fraction": round(
                    statistics.mean(chain_fractions), 4
                ),
                "theory_chain_fraction": round(
                    float(p) ** -(2 * float(1 - eps) - 1), 4
                ),
            }
        )
    return rows


def sweep_cartesian_tradeoff(
    n: int = 512,
    p: int = 64,
    group_values: tuple[int, ...] = (1, 2, 4, 8),
    seed: int = 0,
) -> list[dict[str, object]]:
    """E9: the drug-interaction tradeoff (introduction).

    Replication rate equals ``g`` while the reducer input is
    ``2n/g``; the product of the two is invariant (``2n``), and
    ``g = sqrt(p)`` balances reducer size against total communication.
    """
    rng = random.Random(seed)
    left = ColumnarRelation.from_rows(
        "A", [(value,) for value in range(1, n + 1)], domain_size=n
    )
    right = ColumnarRelation.from_rows(
        "B", [(value,) for value in rng.sample(range(1, n + 1), n)],
        domain_size=n,
    )
    rows = []
    for g in group_values:
        result = run_cartesian_grid(left, right, p=p, groups=g)
        if result.num_pairs != n * n:
            raise AssertionError(f"cartesian grid missed pairs at g={g}")
        rows.append(
            {
                "g": g,
                "replication_rate": round(result.replication_rate, 2),
                "max_reducer_tuples": result.max_reducer_tuples,
                "theory_reducer": round(2 * n / g, 1),
                "total_tuples_moved": result.report.rounds[0].total_tuples,
            }
        )
    return rows


def _ceil_log(base: int, value: int) -> int:
    result = 0
    power = 1
    while power < value:
        power *= base
        result += 1
    return result
