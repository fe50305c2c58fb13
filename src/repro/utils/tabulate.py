"""Minimal dependency-free ASCII table rendering for experiment reports."""

from __future__ import annotations

from typing import Iterable, Sequence


def _fmt_cell(value: object, precision: int) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e6 or (0 < abs(value) < 1e-3):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table.

    Floats are formatted with ``precision`` digits; very large/small values
    fall back to scientific notation.  The output is used verbatim in
    EXPERIMENTS.md and by the CLI, so it is deterministic.
    """
    str_rows = [[_fmt_cell(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"

    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    out: list[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(sep)
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)
