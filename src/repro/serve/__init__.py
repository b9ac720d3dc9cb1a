"""The serving layer behind :func:`repro.connect`.

A :class:`~repro.api.session.Session` is the one serving object; this
package holds what it serves with.  Its private request executor,
:class:`~repro.serve.service.QueryService`, answers repeated
statements over a mutating
:class:`~repro.data.versioned.VersionedDatabase`, amortizing planning
across requests:

* a :class:`~repro.serve.cache.PlanCache` keyed by canonicalized
  ``(query, algorithm, eps, p)`` -- isomorphic queries share one
  compiled plan (:mod:`repro.core.isomorphism` supplies the witness
  that rebinds relations and permutes answer columns);
* a result cache memoizing whole executions per (plan, rebind,
  version) -- the repeated-query fast path, including cached
  :class:`~repro.mpc.simulator.CapacityExceeded` failures;
* incremental view maintenance (:mod:`repro.serve.ivm`) after deltas;
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
from repro.serve.metrics import Histogram, render_metrics

__all__ = [
    "AdmissionQueue",
    "CacheRebind",
    "FAULT_ENVS",
    "FaultConfig",
    "Histogram",
    "LRUCache",
    "PlanCache",
    "RpcServer",
    "RpcStats",
    "ServerOverloaded",
    "TokenBucket",
    "active_faults",
    "render_metrics",
    "serve_tcp",
]


def __getattr__(name: str):
    # The RPC names load on first use: rpc imports the service, the
    # service the planner, and the planner repro.serve.metrics, so an
    # eager rpc import here is a cycle whenever the planner (or the
    # service) is imported before this package.
    if name in ("RpcServer", "RpcStats", "serve_tcp"):
        from repro.serve import rpc

        return getattr(rpc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
