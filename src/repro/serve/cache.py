"""The plan cache: canonicalized query -> compiled plan.

Plans are data-independent (see :mod:`repro.engine.plan`), so the only
cache key that matters is *what was compiled*: the query and the MPC
parameters ``(eps, p, seed, ...)``.  Queries are matched up
to isomorphism -- ``q(x,y,z) = S1(x,y), S2(y,z)`` and
``q(a,b,c) = S2(u,v), S1(v,w)`` route differently but answer the same
question, so they share one plan: the cache stores the first-seen
query as the canonical representative and uses
:func:`repro.core.isomorphism.find_query_isomorphism` to build a
:class:`CacheRebind` for every isomorphic variant (which relations
feed which steps, and how answer columns permute back into the
request's head order).

Lookup cost: an exact hit is one dict probe.  An isomorphic probe is
restricted to a bucket of structurally-compatible candidates (same
atom count, variable count, arity multiset and variable-degree
multiset), and each successful probe installs an alias entry so the
variant hits exactly from then on.  Entries are LRU-evicted beyond
``maxsize``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy

from repro.core.isomorphism import find_query_isomorphism
from repro.core.query import ConjunctiveQuery
from repro.data.columnar import sorted_unique_rows
from repro.engine.plan import Plan
from repro.serve.metrics import counter


class LRUCache:
    """A minimal LRU store with predicate purging.

    The bounded store behind the service's result cache and
    the session's planner-decision/profile caches.  ``on_evict`` (when
    given) is called once per size-cap eviction -- the hook
    :class:`~repro.serve.service.ServiceStats` counts cache pressure
    through.  Predicate purges (version invalidation) are not
    evictions.
    """

    def __init__(
        self, maxsize: int, on_evict: Callable[[], None] | None = None
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"need maxsize >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Any | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def peek(self, key: Any) -> Any | None:
        """:meth:`get` without moving ``key``'s recency."""
        return self._entries.get(key)

    def put(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict()

    def purge(self, stale: Callable[[Any], bool]) -> int:
        """Drop entries whose *key* satisfies ``stale``."""
        victims = [key for key in self._entries if stale(key)]
        for key in victims:
            del self._entries[key]
        return len(victims)

    def remap(self, rekey: Callable[[Any], Any | None]) -> int:
        """Rewrite entry keys in place, preserving recency order.

        ``rekey`` maps each key to its replacement, or ``None`` to
        keep the key unchanged.  Used to chain version-stamped caches
        across a no-op version bump: the values stay valid, only the
        version embedded in the key moves.  When a rewritten key
        collides with an existing one, the rewritten entry wins.

        Returns:
            The number of keys rewritten.
        """
        moved = 0
        entries = OrderedDict()
        for key, value in self._entries.items():
            new_key = rekey(key)
            if new_key is not None and new_key != key:
                moved += 1
                key = new_key
            entries[key] = value
        self._entries = entries
        return moved


@dataclass(frozen=True)
class CacheRebind:
    """How to execute a cached plan for an isomorphic request.

    Attributes:
        relation_map: plan relation name -> request (database)
            relation name; feeds
            :func:`repro.engine.executor.execute_plan`'s
            ``relation_map``.
        head_permutation: request answer column ``i`` is plan answer
            column ``head_permutation[i]``.
    """

    relation_map: tuple[tuple[str, str], ...]
    head_permutation: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        """True when the request is the canonical query itself."""
        return all(
            plan_name == request_name
            for plan_name, request_name in self.relation_map
        ) and self.head_permutation == tuple(
            range(len(self.head_permutation))
        )

    def remap_table(self, table: Any) -> Any:
        """Permute an answer table's columns into the request's head
        order.

        The plan's answers come back sorted in the *plan* head order;
        a non-trivial permutation breaks sortedness, so re-sort (the
        permuted rows stay unique).  The identity returns ``table``.
        """
        permutation = self.head_permutation
        if permutation == tuple(range(len(permutation))):
            return table
        return sorted_unique_rows(numpy.take(table, permutation, axis=1))


def identity_rebind(query: ConjunctiveQuery) -> CacheRebind:
    """The no-op rebind of a query served by its own plan."""
    return CacheRebind(
        relation_map=tuple(
            (atom.name, atom.name) for atom in query.atoms
        ),
        head_permutation=tuple(range(len(query.head))),
    )


def _rebind_from_isomorphism(
    request: ConjunctiveQuery, canonical: ConjunctiveQuery
) -> CacheRebind | None:
    witness = find_query_isomorphism(request, canonical)
    if witness is None:
        return None
    # witness.atoms: request atom -> canonical atom.  The executor
    # wants the other direction: which request relation feeds each
    # plan (canonical) relation.
    relation_map = tuple(
        sorted(
            (canonical_name, request_name)
            for request_name, canonical_name in witness.atoms.items()
        )
    )
    head_permutation = tuple(
        canonical.head.index(witness.variables[variable])
        for variable in request.head
    )
    return CacheRebind(
        relation_map=relation_map, head_permutation=head_permutation
    )


def _structure_fingerprint(query: ConjunctiveQuery) -> tuple:
    """A cheap isomorphism invariant bucketing candidate queries."""
    degrees = sorted(
        sum(atom.variables.count(variable) for atom in query.atoms)
        for variable in query.variables
    )
    return (
        query.num_atoms,
        query.num_variables,
        tuple(sorted(atom.arity for atom in query.atoms)),
        tuple(degrees),
    )


@dataclass
class _Entry:
    plan: Plan
    canonical: ConjunctiveQuery
    rebind: CacheRebind
    # The bucket this entry is probeable from (None for alias entries
    # of isomorphic variants); kept so eviction can clean the bucket
    # index without scanning every bucket.
    bucket_key: tuple | None = None


#: Size-cap evictions of the plan cache and the service's result cache.
CACHE_EVICTIONS = counter(
    "service_cache_evictions_total", "Size-cap evictions, by cache layer."
)
PLAN_HITS = counter(
    "service_plan_hits_total",
    "Plan-cache hits, by match (exact text or isomorphic variant).",
)


@dataclass
class PlanCacheStats:
    """Counters a long-lived service exposes for observability."""

    stats_section = "service"
    stats_prefix = "plan_"

    hits: int = PLAN_HITS.field(match="exact")
    isomorphic_hits: int = PLAN_HITS.field(match="isomorphic")
    misses: int = counter(
        "service_plan_compiles_total",
        "Plan-cache misses (fresh compilations).",
    ).field()
    evictions: int = CACHE_EVICTIONS.field(cache="plan")


class PlanCache:
    """An LRU cache of compiled plans, matched up to isomorphism.

    Args:
        maxsize: entry budget (alias entries for isomorphic variants
            count too); least-recently-used entries are evicted.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"need maxsize >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = PlanCacheStats()
        # exact key -> entry; exact key embeds query text + head +
        # the compile parameters.
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        # bucket (structure fingerprint + parameters) -> exact keys of
        # canonical entries (not aliases) to probe for isomorphism.
        self._buckets: dict[tuple, list[tuple]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _exact_key(query: ConjunctiveQuery, params: tuple) -> tuple:
        return (str(query), query.head, params)

    def peek(self, query: ConjunctiveQuery, params: tuple) -> _Entry | None:
        """The exact-key entry, counting nothing and moving no recency."""
        return self._entries.get(self._exact_key(query, params))

    def get_or_compile(
        self,
        query: ConjunctiveQuery,
        params: tuple,
        compiler: Callable[[ConjunctiveQuery], Plan],
    ) -> tuple[Plan, CacheRebind, bool]:
        """The cached plan for ``query`` under ``params``.

        Args:
            query: the request query.
            params: every compile parameter that affects the plan
                (``eps``, ``p``, seed, capacity...); two
                requests share a plan only when their params match
                exactly.
            compiler: called with ``query`` on a miss; its plan is
                stored as the canonical entry for the whole
                isomorphism class.

        Returns:
            ``(plan, rebind, hit)`` -- ``hit`` is False only when the
            compiler ran.
        """
        exact = self._exact_key(query, params)
        entry = self._entries.get(exact)
        if entry is not None:
            self._entries.move_to_end(exact)
            self.stats.hits += 1
            return entry.plan, entry.rebind, True

        bucket_key = (_structure_fingerprint(query), params)
        for candidate_key in self._buckets.get(bucket_key, []):
            candidate = self._entries.get(candidate_key)
            if candidate is None:
                continue
            rebind = _rebind_from_isomorphism(query, candidate.canonical)
            if rebind is None:
                continue
            self._entries.move_to_end(candidate_key)
            self.stats.isomorphic_hits += 1
            # Alias entry: the variant hits exactly from now on.
            self._store(
                exact,
                _Entry(
                    plan=candidate.plan,
                    canonical=candidate.canonical,
                    rebind=rebind,
                ),
            )
            return candidate.plan, rebind, True

        plan = compiler(query)
        self.stats.misses += 1
        self._store(
            exact,
            _Entry(
                plan=plan,
                canonical=query,
                rebind=identity_rebind(query),
                bucket_key=bucket_key,
            ),
        )
        return plan, identity_rebind(query), False

    def _store(self, exact: tuple, entry: _Entry) -> None:
        self._entries[exact] = entry
        if entry.bucket_key is not None:
            self._buckets.setdefault(entry.bucket_key, []).append(exact)
        while len(self._entries) > self.maxsize:
            evicted_key, evicted = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if evicted.bucket_key is None:
                continue
            keys = self._buckets.get(evicted.bucket_key)
            if keys is None:
                continue
            if evicted_key in keys:
                keys.remove(evicted_key)
            if not keys:
                del self._buckets[evicted.bucket_key]

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()
        self._buckets.clear()
