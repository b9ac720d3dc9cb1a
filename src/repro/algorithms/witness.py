"""The JOIN-WITNESS experiment (Proposition 3.12).

Query: ``q(w,x,y,z) = R(w), S1(w,x), S2(x,y), S3(y,z), T(z)`` with the
``S_i`` uniform matchings and ``R, T`` random subsets of size
``sqrt(n)``, so ``E[|q(I)|] = 1``: a needle-in-a-haystack.  The paper
proves that no one-round MPC(eps) algorithm with ``eps < 1/2`` finds a
witness except with polynomially small probability.

The experiment mirrors the proof's structure: ``R`` and ``T`` are
small enough to broadcast (their bits are negligible), so the
algorithm's only real task is the chain ``q' = S1, S2, S3`` whose
covering number is 2.  We run the Proposition 3.11 partial algorithm
on ``q'`` with the given ``eps``, intersect the recovered ``q'``
tuples with the broadcast ``R`` and ``T``, and report whether a
witness survived -- repeated over seeds, the hit rate decays like
``p^{-(2(1-eps)-1)}``, exactly the bound's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.algorithms.localjoin import evaluate_query_table
from repro.algorithms.partial import compile_partial_hypercube
from repro.core.query import parse_query
from repro.data.columnar import ColumnarDatabase
from repro.data.generators import witness_database
from repro.engine import execute_plan

#: The Proposition 3.12 query (chain part only; R and T are broadcast).
WITNESS_CHAIN = parse_query("q(w,x,y,z) = S1(w,x), S2(x,y), S3(y,z)")


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one JOIN-WITNESS trial.

    Attributes:
        found: True when some full witness was recovered.
        witnesses: the recovered witnesses (may be empty).
        true_witnesses: the actual answers of the full query.
        chain_fraction: fraction of ``q'`` tuples the one-round
            algorithm recovered (the Theorem 3.3 quantity).
    """

    found: bool
    witnesses: tuple[tuple[int, ...], ...]
    true_witnesses: tuple[tuple[int, ...], ...]
    chain_fraction: float


def run_witness_experiment(
    n: int,
    p: int,
    eps: Fraction | float = Fraction(0),
    seed: int = 0,
) -> WitnessResult:
    """One trial of the Proposition 3.12 experiment.

    Args:
        n: domain size (also the size of each matching ``S_i``).
        p: number of servers.
        eps: space exponent; the theorem's regime is ``eps < 1/2``.
        seed: drives the instance and the algorithm's randomness.
    """
    database = witness_database(n, rng=seed)
    r_values = set(database["R"].columns[0].tolist())
    t_values = set(database["T"].columns[0].tolist())

    chain_db = ColumnarDatabase(
        relations={
            name: database[name] for name in ("S1", "S2", "S3")
        },
        domain_size=n,
    )
    reported = execute_plan(
        compile_partial_hypercube(
            WITNESS_CHAIN, p, Fraction(eps), seed=seed
        ),
        chain_db,
    ).answers
    chain_truth = evaluate_query_table(
        WITNESS_CHAIN,
        {relation.name: relation.columns for relation in chain_db},
    ).tolist()

    def witnesses(rows):
        return tuple(
            tuple(row)
            for row in rows
            if row[0] in r_values and row[-1] in t_values
        )

    recovered = witnesses(reported)
    return WitnessResult(
        found=bool(recovered),
        witnesses=recovered,
        true_witnesses=witnesses(chain_truth),
        chain_fraction=(
            len(reported) / len(chain_truth) if chain_truth else 0.0
        ),
    )
