"""RPC parallel dispatch: worker clamping, fan-out wiring, stats."""

from __future__ import annotations

import asyncio

from repro.serve.metrics import MetricsServer
from repro.serve.rpc import RpcServer, serve_tcp

from tests.serve.test_metrics import _http_get, parse_exposition
from tests.serve.test_rpc import _Client, _session, rpc_test


class TestDispatchWidth:
    def test_defaults_follow_the_session_fanout_width(self):
        session = _session(workers=2)
        try:
            server = RpcServer(session)
            assert server.workers == 2
        finally:
            session.close()

    def test_clamped_to_one_without_a_fanout_pool(self):
        # Dispatching a thread-unsafe session from several threads is
        # never allowed: an explicit workers=4 over a plain session
        # still runs single-threaded.
        session = _session()
        try:
            assert RpcServer(session, workers=4).workers == 1
            assert RpcServer(session).workers == 1
        finally:
            session.close()

    def test_clamped_once_the_pool_breaks(self):
        session = _session(workers=2)
        try:
            for process in session.fanout._processes:
                process.kill()
                process.join(timeout=30)
            assert RpcServer(session).workers == 1
        finally:
            session.close()


class TestEndToEnd:
    def test_queries_fan_out_and_stats_report_it(self):
        async def body():
            session = _session(workers=2)
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    first = await client.call(
                        {"id": 1, "op": "query", "q": "S1(x,y), S2(y,z)"}
                    )
                    assert first["ok"] and first["count"] == 60
                    second = await client.call(
                        {"id": 2, "op": "query", "q": "S1(x,y)"}
                    )
                    assert second["ok"] and second["count"] == 60

                    stats = await client.call({"op": "stats"})
                    parallel = stats["parallel"]
                    assert parallel["dispatch_threads"] == 2
                    assert parallel["fanout_workers"] == 2
                    assert parallel["fanout_usable"] is True
                    assert parallel["fanout_queries"] == 2
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    def test_stats_and_metrics_report_fleet_totals(self):
        # The workers execute every statement; their counts must reach
        # the parent's stats reply and /metrics page, while the update
        # every process applies still counts once.
        statements = ("S1(x,y), S2(y,z)", "S1(x,y)", "S1(x,y), S2(y,z)")

        async def body():
            session = _session(workers=2)
            try:
                async with RpcServer(session) as server:
                    async with MetricsServer(server) as metrics:
                        client = await _Client.open(server)
                        for q in statements:
                            response = await client.call(
                                {"op": "query", "q": q}
                            )
                            assert response["ok"], response
                        assert (
                            await client.call(
                                {
                                    "op": "update",
                                    "relation": "S1",
                                    "rows": [[7, 9]],
                                }
                            )
                        )["ok"]
                        stats = await client.call({"op": "stats"})
                        await client.close()
                        _, _, page = await _http_get(
                            *metrics.address, "/metrics"
                        )
                        return stats, page
            finally:
                session.close()

        stats, page = rpc_test(body())
        k = len(statements)
        assert stats["parallel"]["fanout_queries"] == k
        assert stats["service"]["requests"] == k
        assert stats["service"]["updates"] == 1
        planner = stats["planner"]
        assert planner["decisions"] + planner["decision_cache_hits"] == k
        samples = {
            name: value
            for family in parse_exposition(page).values()
            for name, labels, value in family["samples"]
            if not labels
        }
        assert samples["repro_service_requests_total"] == k
        assert samples["repro_service_updates_total"] == 1

    def test_answers_match_a_single_process_server(self):
        queries = ("S1(x,y), S2(y,z), S3(z,x)", "S1(x,y), S2(y,z)")

        async def serve(workers):
            session = _session(workers=workers)
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    answers = []
                    for index, q in enumerate(queries):
                        response = await client.call(
                            {"id": index, "op": "query", "q": q}
                        )
                        assert response["ok"], response
                        answers.append(response["answers"])
                    await client.close()
                    return answers
            finally:
                session.close()

        async def body():
            assert await serve(1) == await serve(2)

        rpc_test(body())

    def test_updates_stay_serialized_and_visible_to_workers(self):
        async def body():
            session = _session(workers=2)
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    before = await client.call(
                        {"id": 1, "op": "query", "q": "S1(x,y)"}
                    )
                    update = await client.call(
                        {
                            "id": 2,
                            "op": "update",
                            "relation": "S1",
                            "rows": [[7, 9]],
                        }
                    )
                    assert update["ok"] and update["version"] == 1
                    after = await client.call(
                        {"id": 3, "op": "query", "q": "S1(x,y)"}
                    )
                    assert after["count"] == before["count"] + 1
                    assert after["version"] == 1
                    assert session.fanout.usable
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    def test_queries_survive_a_pool_broken_mid_serve(self):
        # Fan-out dies while serving: dispatch re-routes to the single
        # control thread and answers keep flowing in-process.
        async def body():
            session = _session(workers=2)
            try:
                async with RpcServer(session) as server:
                    client = await _Client.open(server)
                    first = await client.call(
                        {"id": 1, "op": "query", "q": "S1(x,y)"}
                    )
                    assert first["ok"] and first["count"] == 60
                    for process in session.fanout._processes:
                        process.kill()
                        process.join(timeout=30)
                    second = await client.call(
                        {"id": 2, "op": "query", "q": "S1(x,y), S2(y,z)"}
                    )
                    assert second["ok"] and second["count"] == 60
                    stats = await client.call({"op": "stats"})
                    assert stats["parallel"]["fanout_usable"] is False
                    await client.close()
            finally:
                session.close()

        rpc_test(body())

    def test_serve_tcp_announces_dispatch_threads(self):
        async def body():
            session = _session(workers=2)
            announcements = []
            ready = asyncio.Event()
            task = asyncio.create_task(
                serve_tcp(
                    session,
                    port=0,
                    ready=ready,
                    announce=announcements.append,
                )
            )
            try:
                await asyncio.wait_for(ready.wait(), timeout=30)
                assert "2 dispatch threads" in announcements[0]
            finally:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                session.close()

        rpc_test(body())
