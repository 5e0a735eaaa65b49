"""Experiment reports: the rows/series the benchmark harness prints.

Each harness in this package produces an :class:`ExperimentReport`
containing the same columns the corresponding paper table or figure reports,
so running a bench target regenerates the paper's data series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentReport:
    """A named, tabular experiment result."""

    experiment: str
    description: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row; unknown columns are rejected to catch typos early."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}; expected {list(self.columns)}")
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]

    def to_text(self) -> str:
        """Human-readable rendering (what the bench targets print)."""
        header = f"== {self.experiment} ==\n{self.description}\n"
        table = format_table(self.columns, self.rows)
        notes = "".join(f"\nnote: {note}" for note in self.notes)
        return header + table + notes

    def __str__(self) -> str:
        return self.to_text()


def format_table(columns: Sequence[str], rows: Sequence[Dict[str, Any]]) -> str:
    """Render rows as a fixed-width text table."""

    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    rendered_rows = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(row[index]) for row in rendered_rows))
        if rendered_rows
        else len(str(column))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rendered_rows
    )
    return "\n".join(part for part in (header, separator, body) if part)
