"""Plain-text tables for the experiment drivers and benchmark output."""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def _format_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 float_format: str = ".2f", title: str = "") -> str:
    """Render an aligned fixed-width text table."""
    rendered_rows: List[List[str]] = [
        [_format_cell(cell, float_format) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) if _is_numeric(cell)
                               else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False

