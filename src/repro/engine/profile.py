"""Per-round phase timing for the engine's hot paths.

A :class:`RoundProfiler` splits the wall-clock of an execution into
the phases the cost model talks about:

* ``route``  -- computing destinations (hashing, grid ranking);
* ``ship``   -- staging the routed tuples on the simulator;
* ``deliver``-- closing the round (pooling, capacity accounting);
* ``local``  -- post-round local evaluation (joins, views).

Every executor accepts an optional ``profiler=`` and feeds it through
:meth:`RoundProfiler.measure`; the CLI's ``--profile`` flag prints the
resulting per-round breakdown, which is how the "where does the time
go" question that motivates local-evaluation optimisations is one
command away.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

PHASES = ("route", "ship", "deliver", "local")


class RoundProfiler:
    """Accumulates per-(round, phase) wall-clock seconds."""

    def __init__(self) -> None:
        self.rounds: dict[int, dict[str, float]] = {}
        #: round index -> phase -> per-block seconds, in block order
        #: (every execution records each routed block's ``route``
        #: time here -- one block per step when ``chunk_rows`` is
        #: None -- and one ``eval`` entry per local-evaluation shard).
        self.blocks: dict[int, dict[str, list[float]]] = {}

    def add(self, round_index: int, phase: str, seconds: float) -> None:
        """Record ``seconds`` against one round's phase."""
        phases = self.rounds.setdefault(round_index, {})
        phases[phase] = phases.get(phase, 0.0) + seconds

    @contextmanager
    def measure(self, round_index: int, phase: str) -> Iterator[None]:
        """Time a block and record it under ``(round_index, phase)``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(round_index, phase, time.perf_counter() - start)

    def add_block(
        self, round_index: int, phase: str, seconds: float
    ) -> None:
        """Record one block's seconds for a round's phase."""
        self.blocks.setdefault(round_index, {}).setdefault(
            phase, []
        ).append(seconds)

    def phase_total(self, phase: str) -> float:
        """Total seconds spent in one phase across all rounds."""
        return sum(
            phases.get(phase, 0.0) for phases in self.rounds.values()
        )

    @property
    def total_seconds(self) -> float:
        """Total profiled seconds across all rounds and phases."""
        return sum(
            sum(phases.values()) for phases in self.rounds.values()
        )

    def format_table(self, title: str = "per-round timing") -> str:
        """The breakdown as a printable table (CLI ``--profile``)."""
        from repro.analysis.reporting import format_table

        rows = []
        for round_index in sorted(self.rounds):
            phases = self.rounds[round_index]
            rows.append(
                [round_index]
                + [f"{phases.get(phase, 0.0):.4f}" for phase in PHASES]
                + [f"{sum(phases.values()):.4f}"]
            )
        rows.append(
            ["total"]
            + [f"{self.phase_total(phase):.4f}" for phase in PHASES]
            + [f"{self.total_seconds:.4f}"]
        )
        table = format_table(
            ["round"]
            + [f"{phase} (s)" for phase in PHASES]
            + ["sum (s)"],
            rows,
            title=title,
        )
        if not self.blocks:
            return table
        block_rows = []
        for round_index in sorted(self.blocks):
            for phase, timings in self.blocks[round_index].items():
                block_rows.append(
                    [
                        round_index,
                        phase,
                        len(timings),
                        f"{min(timings):.4f}",
                        f"{max(timings):.4f}",
                        f"{sum(timings):.4f}",
                    ]
                )
        return table + "\n" + format_table(
            ["round", "phase", "blocks", "min (s)", "max (s)", "sum (s)"],
            block_rows,
            title="per-block timing (routed blocks, eval shards)",
        )
