"""The cost-based planner behind the Session front door.

Splits into two halves:

* :mod:`repro.planner.stats` -- cheap, data-dependent statistics: a
  :class:`DataProfile` of relation cardinalities and skew samples
  (heavy-hitter detection under the query's own HyperCube shares).
  The dataclass itself lives beside the cost models that read it, in
  :mod:`repro.algorithms.registry`, and is re-exported here.
* :mod:`repro.planner.planner` -- the choice: every registered
  algorithm's declared cost model (:mod:`repro.algorithms.registry`)
  bids once per statement (:class:`Bids`), each profile prices the
  bids, and the cheapest eligible one wins, with a full
  :class:`Explain` report of the duel (chosen algorithm, shares,
  predicted rounds/load, the paper's bounds, every candidate's
  reason).
"""

from repro.algorithms.registry import DataProfile
from repro.planner.planner import (
    Bids,
    Candidate,
    Explain,
    Planner,
    PlannerChoice,
    PlannerStats,
)
from repro.planner.stats import collect_profile

__all__ = [
    "Bids",
    "Candidate",
    "DataProfile",
    "Explain",
    "Planner",
    "PlannerChoice",
    "PlannerStats",
    "collect_profile",
]
