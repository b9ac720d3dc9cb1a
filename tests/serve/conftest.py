"""Shared fixtures of the serving tests."""

from __future__ import annotations

import asyncio

import pytest


@pytest.fixture
def wait_closed_as_in_python_3_12(monkeypatch):
    """``asyncio.Server.wait_closed`` as of Python 3.12.1: it returns
    only once the server is closed and every connection has dropped.
    Up to 3.11 it returns at once on a closed server, which hid a
    close() that waited on its own clients."""

    async def wait_closed(self):
        if self._waiters is None:
            return
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        await waiter

    monkeypatch.setattr(
        asyncio.base_events.Server, "wait_closed", wait_closed
    )
