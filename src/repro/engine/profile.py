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
    """Accumulates per-(round, phase) wall-clock seconds.

    When the parallel engine fans a round's route phase out over a
    process pool, each shard's worker-side seconds are recorded
    separately (:meth:`add_shard`), so ``--profile`` can show both the
    parent's wall clock for the phase and how evenly the shards split
    the work under it.
    """

    def __init__(self) -> None:
        self.rounds: dict[int, dict[str, float]] = {}
        #: round index -> list of (shard index, worker-side seconds).
        self.shards: dict[int, list[tuple[int, float]]] = {}
        #: round index -> phase -> per-block seconds, in block order
        #: (streamed executions record every block's route/ship time
        #: here; every numpy execution records one ``eval`` entry per
        #: local-evaluation shard).
        self.blocks: dict[int, dict[str, list[float]]] = {}
        #: round index -> seconds the next round's routing ran
        #: concurrently with this round's local evaluation (streamed
        #: pipelining; concurrent time, deliberately not part of any
        #: additive phase total).
        self.overlap: dict[int, float] = {}

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

    def add_shard(
        self, round_index: int, shard_index: int, seconds: float
    ) -> None:
        """Record one shard's worker-side route seconds for a round."""
        self.shards.setdefault(round_index, []).append(
            (shard_index, seconds)
        )

    def add_block(
        self, round_index: int, phase: str, seconds: float
    ) -> None:
        """Record one streamed block's seconds for a round's phase."""
        self.blocks.setdefault(round_index, {}).setdefault(
            phase, []
        ).append(seconds)

    def add_overlap(self, round_index: int, seconds: float) -> None:
        """Record pipelined overlap seconds against one round."""
        self.overlap[round_index] = (
            self.overlap.get(round_index, 0.0) + seconds
        )

    @property
    def overlap_seconds(self) -> float:
        """Total seconds local eval ran concurrently with routing."""
        return sum(self.overlap.values())

    def shard_seconds(self, round_index: int) -> tuple[float, ...]:
        """Worker-side seconds of each shard of one round, in order."""
        return tuple(
            seconds
            for _, seconds in sorted(self.shards.get(round_index, []))
        )

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
                + [f"{self.overlap.get(round_index, 0.0):.4f}"]
                + [f"{sum(phases.values()):.4f}"]
            )
        rows.append(
            ["total"]
            + [f"{self.phase_total(phase):.4f}" for phase in PHASES]
            + [f"{self.overlap_seconds:.4f}"]
            + [f"{self.total_seconds:.4f}"]
        )
        table = format_table(
            ["round"]
            + [f"{phase} (s)" for phase in PHASES]
            + ["overlap (s)", "sum (s)"],
            rows,
            title=title,
        )
        if self.blocks:
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
            table = table + "\n" + format_table(
                ["round", "phase", "blocks", "min (s)", "max (s)", "sum (s)"],
                block_rows,
                title="per-block timing (streamed blocks, eval shards)",
            )
        if not self.shards:
            return table
        shard_rows = []
        for round_index in sorted(self.shards):
            timings = self.shard_seconds(round_index)
            shard_rows.append(
                [
                    round_index,
                    len(timings),
                    f"{min(timings):.4f}",
                    f"{max(timings):.4f}",
                    f"{sum(timings):.4f}",
                ]
            )
        return table + "\n" + format_table(
            ["round", "shards", "min (s)", "max (s)", "sum (s)"],
            shard_rows,
            title="per-shard timing",
        )
