"""The serving layer: compile once, execute per request.

The engine boundary (steps in, stats + mailboxes out) is the seam the
whole package builds on: a :class:`~repro.serve.service.QueryService`
is a long-lived process that accepts repeated ``execute(query)`` and
``update(delta)`` calls over a mutating
:class:`~repro.data.versioned.VersionedDatabase`, amortizing planning
across requests:

* a :class:`~repro.serve.cache.PlanCache` keyed by canonicalized
  ``(query, eps, p, backend)`` -- isomorphic queries share one
  compiled plan (:mod:`repro.core.isomorphism` supplies the witness
  that rebinds relations and permutes answer columns);
* a result cache memoizing whole executions per (plan, rebind,
  version) -- the repeated-query fast path, including cached
  :class:`~repro.mpc.simulator.CapacityExceeded` failures;
* simulator reuse: one :class:`~repro.mpc.simulator.MPCSimulator` per
  configuration, reset between requests instead of reallocating ``p``
  mailboxes;
* per-request :class:`~repro.engine.profile.RoundProfiler` stats
  aggregated into service-level counters.
"""

from repro.serve.admission import (
    AdmissionQueue,
    ServerOverloaded,
    TokenBucket,
)
from repro.serve.cache import CacheRebind, LRUCache, PlanCache
from repro.engine.faults import FAULT_ENVS, FaultConfig, active_faults
from repro.serve.metrics import Histogram, MetricsServer, render_metrics
from repro.serve.rpc import RpcServer, RpcStats, serve_tcp
from repro.serve.service import (
    QueryService,
    ServiceResult,
    ServiceStats,
)

__all__ = [
    "AdmissionQueue",
    "CacheRebind",
    "FAULT_ENVS",
    "FaultConfig",
    "Histogram",
    "LRUCache",
    "MetricsServer",
    "PlanCache",
    "QueryService",
    "RpcServer",
    "RpcStats",
    "ServerOverloaded",
    "ServiceResult",
    "ServiceStats",
    "TokenBucket",
    "active_faults",
    "render_metrics",
    "serve_tcp",
]
