"""Experiment report tables.

An :class:`ExperimentTable` collects homogeneous rows (dicts) and renders them
as the ASCII tables embedded in EXPERIMENTS.md and printed by
``repro experiments``.  Keeping rendering here means the CLI, the examples and
the documentation all show identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.exceptions import InvalidParameterError
from repro.utils.tabulate import format_table


@dataclass
class ExperimentTable:
    """An ordered collection of result rows with a fixed column set."""

    title: str
    columns: Sequence[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, row: Mapping) -> None:
        """Append a row; missing columns become empty strings, extras are rejected."""
        unknown = set(row) - set(self.columns)
        if unknown:
            raise InvalidParameterError(f"row has unknown columns: {sorted(unknown)}")
        self.rows.append({col: row.get(col, "") for col in self.columns})

    def add_note(self, note: str) -> None:
        """Attach a free-form footnote rendered under the table."""
        self.notes.append(note)

    def render(self, precision: int = 3) -> str:
        """Render the table (plus footnotes) as ASCII text."""
        body = format_table(
            headers=list(self.columns),
            rows=[[row[col] for col in self.columns] for row in self.rows],
            precision=precision,
            title=f"== {self.title} ==",
        )
        if self.notes:
            body += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return body

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise InvalidParameterError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]


def render_report(tables: Iterable[ExperimentTable], header: str | None = None) -> str:
    """Concatenate several tables into one report string."""
    parts = []
    if header:
        parts.append(header)
    parts.extend(table.render() for table in tables)
    return "\n\n".join(parts)
