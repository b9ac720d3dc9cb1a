"""Deterministic fault injection for the serving path.

The degradation paths of deadlines and streamed replies (a statement
overrunning its budget between or inside rounds, a client vanishing
mid-stream) are hard to exercise reliably with real timeouts and
disconnects.
This module turns each of them into an environment knob so tests and
CI legs trigger them deterministically:

``REPRO_FAULT_ROUND_DELAY_MS``
    Sleep this many milliseconds before every engine round (read once
    per plan execution).  Makes a fast query reliably slow, so
    deadline checks *between rounds* fire on demand.
``REPRO_FAULT_BLOCK_DELAY_MS``
    Sleep this many milliseconds before routing each block (a
    one-block step's too).  Makes the deadline expire *mid-round*
    (inside an open round's block loop) -- the dangerous half of
    cancellation, proving the session serves the next request after
    a partial round.
``REPRO_FAULT_DISCONNECT_BATCHES``
    The RPC server aborts a streamed response's connection after
    writing N batch lines, simulating a client that vanished
    mid-stream; the server must survive and count the aborted stream.

All knobs are off (no-ops) when unset; malformed values raise at the
first read rather than silently disabling the fault.  The module
lives in the engine package because the round loop is its lowest
reader, and imports only the standard library.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

ROUND_DELAY_ENV = "REPRO_FAULT_ROUND_DELAY_MS"
BLOCK_DELAY_ENV = "REPRO_FAULT_BLOCK_DELAY_MS"
DISCONNECT_ENV = "REPRO_FAULT_DISCONNECT_BATCHES"

#: Every knob, for introspection (metrics, README, CI matrix).
FAULT_ENVS = (
    ROUND_DELAY_ENV,
    BLOCK_DELAY_ENV,
    DISCONNECT_ENV,
)


def _float_env(name: str) -> float:
    """A non-negative float knob; 0.0 when unset."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {raw!r}")
    return value


def _int_env(name: str) -> int | None:
    """A positive integer knob; None when unset."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {raw!r}")
    return value


def round_delay_seconds() -> float:
    """Injected per-round delay in seconds (0.0 = off)."""
    return _float_env(ROUND_DELAY_ENV) / 1000.0


def block_delay_seconds() -> float:
    """Injected per-block delay in seconds (0.0 = off)."""
    return _float_env(BLOCK_DELAY_ENV) / 1000.0


def disconnect_after_batches() -> int | None:
    """Streamed batch count after which the RPC connection is cut."""
    return _int_env(DISCONNECT_ENV)


def inject_round_delay(delay_seconds: float) -> None:
    """Sleep one pre-resolved round delay (hot-loop call site)."""
    if delay_seconds > 0:
        time.sleep(delay_seconds)


@dataclass(frozen=True)
class FaultConfig:
    """A snapshot of every active fault knob."""

    round_delay_ms: float = 0.0
    block_delay_ms: float = 0.0
    disconnect_after_batches: int | None = None

    @property
    def any_active(self) -> bool:
        return (
            self.round_delay_ms > 0
            or self.block_delay_ms > 0
            or self.disconnect_after_batches is not None
        )


def active_faults() -> FaultConfig:
    """The current environment's fault configuration."""
    return FaultConfig(
        round_delay_ms=_float_env(ROUND_DELAY_ENV),
        block_delay_ms=_float_env(BLOCK_DELAY_ENV),
        disconnect_after_batches=disconnect_after_batches(),
    )
