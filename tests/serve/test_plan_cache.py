"""Unit tests for the plan cache: canonicalization, rebinds, LRU."""

from __future__ import annotations

from fractions import Fraction

import numpy
import pytest

from repro.algorithms.hypercube import compile_hypercube
from repro.core.query import parse_query
from repro.serve.cache import PlanCache


def _params(eps=None, p=8, seed=0):
    return ("hypercube", eps, p, seed, 4.0, False)


def _compiler(p=8, seed=0):
    calls = []

    def compile_(query):
        calls.append(query)
        return compile_hypercube(query, p=p, seed=seed)

    return compile_, calls


class TestExactHits:
    def test_second_lookup_hits(self):
        cache = PlanCache()
        compile_, calls = _compiler()
        query = parse_query("S1(x,y), S2(y,z)")
        plan1, rebind1, hit1 = cache.get_or_compile(
            query, _params(), compile_
        )
        plan2, rebind2, hit2 = cache.get_or_compile(
            query, _params(), compile_
        )
        assert not hit1 and hit2
        assert plan1 is plan2
        assert len(calls) == 1
        assert rebind1.is_identity and rebind2.is_identity

    def test_stats_count_hits_and_misses(self):
        cache = PlanCache()
        compile_, _ = _compiler()
        query = parse_query("S1(x,y), S2(y,z)")
        cache.get_or_compile(query, _params(), compile_)
        cache.get_or_compile(query, _params(), compile_)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1


class TestIsomorphicHits:
    def test_isomorphic_query_shares_the_plan(self):
        cache = PlanCache()
        compile_, calls = _compiler()
        canonical = parse_query("S1(x,y), S2(y,z)")
        variant = parse_query("S2(a,b), S1(b,c)")
        plan1, _, _ = cache.get_or_compile(canonical, _params(), compile_)
        plan2, rebind, hit = cache.get_or_compile(
            variant, _params(), compile_
        )
        assert hit
        assert plan1 is plan2
        assert len(calls) == 1
        assert cache.stats.isomorphic_hits == 1
        assert not rebind.is_identity

    def test_rebind_maps_plan_relations_to_request_relations(self):
        cache = PlanCache()
        compile_, _ = _compiler()
        canonical = parse_query("S1(x,y), S2(y,z)")
        variant = parse_query("S2(a,b), S1(b,c)")
        cache.get_or_compile(canonical, _params(), compile_)
        _, rebind, _ = cache.get_or_compile(variant, _params(), compile_)
        # The variant's S2 plays the canonical S1's role (first hop).
        assert dict(rebind.relation_map) == {"S1": "S2", "S2": "S1"}

    def test_rebind_permutes_answers_into_request_head_order(self):
        cache = PlanCache()
        compile_, _ = _compiler()
        canonical = parse_query("S1(x,y), S2(y,z)")
        variant = parse_query("q(c,b,a) = S2(a,b), S1(b,c)")
        cache.get_or_compile(canonical, _params(), compile_)
        _, rebind, hit = cache.get_or_compile(variant, _params(), compile_)
        assert hit
        # Plan answers are (x, y, z) = variant's (a, b, c); the
        # variant's head order is (c, b, a).
        table = numpy.array([[1, 2, 3], [2, 1, 0]], dtype=numpy.int64)
        assert rebind.remap_table(table).tolist() == [[0, 1, 2], [3, 2, 1]]

    def test_isomorphic_variant_becomes_exact_after_first_probe(self):
        cache = PlanCache()
        compile_, _ = _compiler()
        cache.get_or_compile(
            parse_query("S1(x,y), S2(y,z)"), _params(), compile_
        )
        variant = parse_query("S2(a,b), S1(b,c)")
        cache.get_or_compile(variant, _params(), compile_)
        cache.get_or_compile(variant, _params(), compile_)
        assert cache.stats.isomorphic_hits == 1
        assert cache.stats.hits == 1

    def test_non_isomorphic_same_fingerprint_compiles(self):
        cache = PlanCache()
        compile_, calls = _compiler()
        cache.get_or_compile(
            parse_query("S1(x,y), S2(y,z)"), _params(), compile_
        )
        # Same atom/variable/arity counts and degree multiset cannot
        # happen for a structurally different 2-chain, so use a
        # different shape entirely: it must compile fresh.
        cache.get_or_compile(
            parse_query("S1(x,y), S2(x,y)"), _params(), compile_
        )
        assert len(calls) == 2


class TestParameterSensitivity:
    def test_miss_on_changed_eps_p_seed(self):
        cache = PlanCache()
        query = parse_query("S1(x,y), S2(y,z)")
        compile_, calls = _compiler()
        cache.get_or_compile(query, _params(), compile_)
        cache.get_or_compile(query, _params(eps=Fraction(1, 2)), compile_)
        compile_p16, calls_p16 = _compiler(p=16)
        cache.get_or_compile(query, _params(p=16), compile_p16)
        compile_seed, calls_seed = _compiler(seed=1)
        cache.get_or_compile(query, _params(seed=1), compile_seed)
        assert len(calls) == 2
        assert len(calls_p16) == 1
        assert len(calls_seed) == 1
        assert cache.stats.misses == 4
        assert cache.stats.hits == 0

    def test_isomorphism_never_crosses_parameters(self):
        cache = PlanCache()
        compile_, calls = _compiler()
        cache.get_or_compile(
            parse_query("S1(x,y), S2(y,z)"), _params(p=8), compile_
        )
        cache.get_or_compile(
            parse_query("S2(a,b), S1(b,c)"), _params(p=16), compile_
        )
        assert len(calls) == 2
        assert cache.stats.isomorphic_hits == 0


class TestEviction:
    def test_lru_eviction_beyond_maxsize(self):
        cache = PlanCache(maxsize=2)
        compile_, calls = _compiler()
        queries = [
            parse_query("S1(x,y)"),
            parse_query("S1(x,y), S2(y,z)"),
            parse_query("S1(x,y), S2(y,z), S3(z,w)"),
        ]
        for query in queries:
            cache.get_or_compile(query, _params(), compile_)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry recompiles.
        cache.get_or_compile(queries[0], _params(), compile_)
        assert len(calls) == 4

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestBucketHygiene:
    def test_buckets_shrink_with_evictions(self):
        cache = PlanCache(maxsize=1)
        compile_, _ = _compiler()
        cache.get_or_compile(parse_query("S1(x,y)"), _params(), compile_)
        cache.get_or_compile(
            parse_query("S1(x,y), S2(y,z)"), _params(), compile_
        )
        cache.get_or_compile(
            parse_query("S1(x,y), S2(y,z), S3(z,w)"), _params(), compile_
        )
        # Every eviction cleans its bucket, so the index never holds
        # more buckets than live canonical entries.
        assert len(cache._buckets) == 1
