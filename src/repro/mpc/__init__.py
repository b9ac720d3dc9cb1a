"""The Massively Parallel Communication (MPC) simulator (Section 2.1).

The MPC(eps) model: ``p`` workers with unlimited local compute joined
by private channels; computation proceeds in rounds of local work plus
global communication; per round each worker may *receive* at most
``O(N / p^{1-eps})`` bits, where ``N`` is the input size in bits and
``eps`` is the space exponent.

The simulator is an exact bookkeeping device for the two quantities
the paper bounds -- rounds and received bits per worker per round --
so algorithm implementations (HyperCube, multi-round plans, connected
components) run unchanged against it while their communication
behaviour is measured and, optionally, *enforced* (a worker receiving
more than its capacity raises :class:`CapacityExceeded`, the
simulator's analogue of the paper's load-balance failure event).

Input relations start on dedicated *input servers* (Section 2.4), one
per relation, which may send arbitrary messages during round 1 and are
silent afterwards -- exactly the model the lower bounds assume.
"""

from repro.mpc.model import MPCConfig
from repro.mpc.simulator import (
    CapacityExceeded,
    MPCSimulator,
    ProtocolError,
)
from repro.mpc.stats import RoundStats, SimulationReport
from repro.mpc.routing import (
    HashFamily,
    grid_coordinates,
    grid_rank,
    grid_rank_columns,
)

__all__ = [
    "MPCConfig",
    "CapacityExceeded",
    "MPCSimulator",
    "ProtocolError",
    "RoundStats",
    "SimulationReport",
    "HashFamily",
    "grid_coordinates",
    "grid_rank",
    "grid_rank_columns",
]
