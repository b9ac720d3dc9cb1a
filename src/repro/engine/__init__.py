"""The shared columnar round engine.

Every algorithm in :mod:`repro.algorithms` compiles its communication
rounds to the same small IR -- a list of
:class:`~repro.engine.steps.RoutingStep`s -- executed column-wise by one
:class:`~repro.engine.executor.RoundEngine` over the MPC simulator:

====================  =================================================
algorithm             routing steps per round
====================  =================================================
HyperCube             one :class:`HashRoute` per atom on the share
                      grid; when :class:`HeavyBind` finds heavy values,
                      one :class:`HeavyGridRoute` per atom instead
                      (light values hash, heavy values split over a
                      ``g1 x g2`` cartesian sub-grid)
multi-round plans     per operator, one :class:`HashRoute` per atom on
                      the operator's own grid (views re-hashed by
                      content between rounds)
below-threshold HC    one :class:`RemapRanks`-wrapped
                      :class:`HashRoute` per atom (virtual grid,
                      sampled points)
broadcast join        one :class:`Broadcast` per atom
single-server         one :class:`ToServer` per atom
single-attribute join one :class:`HashRoute` per atom on a 1-D grid
cartesian grid        one :class:`RoundRobinGrid` per operand
hash-to-min (CC)      per iteration, one :class:`HashRoute` round over
                      the iteration's (vertex, payload) pairs (driven
                      by ``run_hash_to_min``: the depth is
                      data-dependent, so it is not a :class:`Plan`)
====================  =================================================

New execution scenarios (new operators, sharding, asynchronous
shipping) are new step types or new step parameters -- not new copies
of the route/ship/join loop.

Since the compile/execute split, the step program of a whole
execution is packaged as an immutable :class:`~repro.engine.plan.Plan`
(compiled once per (query, eps, p) by the algorithms'
``compile_*`` functions, executed any number of times by
:func:`~repro.engine.executor.execute_plan`) -- the seam the serving
layer's plan/result caches build on.
"""

from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.engine.executor import (
    PlanExecution,
    RoundEngine,
    execute_plan,
    plan_config,
    plan_simulator,
)
from repro.engine.local import (
    collect_answers,
    fragment_tuple_count,
    materialise_view,
)
from repro.engine.plan import (
    CollectAnswers,
    FinalizeView,
    HeavyBind,
    KeyMap,
    Plan,
    PlanRound,
    PlanSignature,
    ViewSpec,
    key_map_of,
)
from repro.engine.profile import RoundProfiler
from repro.engine.steps import (
    Broadcast,
    GridSpec,
    HashRoute,
    HeavyGridRoute,
    RemapRanks,
    RoundRobinGrid,
    RoutingStep,
    ToServer,
    grid_factors,
)

__all__ = [
    "CollectAnswers",
    "Deadline",
    "DeadlineExceeded",
    "FinalizeView",
    "HeavyBind",
    "KeyMap",
    "Plan",
    "PlanExecution",
    "PlanRound",
    "PlanSignature",
    "RoundEngine",
    "RoundProfiler",
    "ViewSpec",
    "execute_plan",
    "key_map_of",
    "plan_config",
    "plan_simulator",
    "collect_answers",
    "fragment_tuple_count",
    "materialise_view",
    "Broadcast",
    "GridSpec",
    "HashRoute",
    "HeavyGridRoute",
    "RemapRanks",
    "RoundRobinGrid",
    "RoutingStep",
    "ToServer",
    "grid_factors",
]
