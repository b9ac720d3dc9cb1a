"""Fixed-width text tables for benchmark and example output."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table.

    Args:
        headers: column titles.
        rows: row cells; each cell is str()-ed.
        title: optional caption printed above the table.
    """
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append(render_row(["-" * width for width in widths]))
    lines.extend(render_row(row) for row in materialised)
    return "\n".join(lines)
