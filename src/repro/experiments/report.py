"""Row-set rendering and serialization for the experiment harness.

Every experiment runner returns a list of row dictionaries; these helpers
render them in the same layout as the paper's tables (plain text aligned for
terminals, GitHub-flavoured markdown for docs) and serialize full row sets —
with run metadata — to CSV and JSON for the result store and the CLI.

Numeric columns are right-aligned so magnitudes line up the way they do in
the paper's tables; everything else is left-aligned.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Mapping, Optional, Sequence


def _is_number(value: object) -> bool:
    """True for real numbers (bool is *not* numeric for alignment purposes)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve_columns(
    rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]]
) -> List[str]:
    if columns is not None:
        return list(columns)
    resolved: List[str] = []
    for row in rows:
        for key in row:
            if key not in resolved:
                resolved.append(key)
    return resolved


def _numeric_columns(
    rows: Sequence[Dict[str, object]], columns: Sequence[str]
) -> List[bool]:
    """Per column: does every present value look like a number?"""
    flags = []
    for c in columns:
        values = [r[c] for r in rows if c in r and r[c] != ""]
        flags.append(bool(values) and all(_is_number(v) for v in values))
    return flags


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str] | None = None,
    floatfmt: str = "{:.4g}",
    title: str | None = None,
    markdown: bool = False,
) -> str:
    """Render a list of row dicts as an aligned plain-text or markdown table.

    Numeric columns (every present value an int/float) are right-aligned;
    ``markdown=True`` emits a GitHub-flavoured pipe table with matching
    alignment markers, so CLI output pastes cleanly into docs.
    """
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    columns = _resolve_columns(rows, columns)

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        text = str(value)
        return text.replace("|", "\\|") if markdown else text

    table = [[fmt(r.get(c, "")) for c in columns] for r in rows]
    numeric = _numeric_columns(rows, columns)
    widths = [
        max(len(str(c)), max(len(row[i]) for row in table)) for i, c in enumerate(columns)
    ]

    def align(cell: str, width: int, right: bool) -> str:
        return cell.rjust(width) if right else cell.ljust(width)

    lines: List[str] = []
    if title:
        lines.append(("**" + title + "**\n") if markdown else title)
    if markdown:
        lines.append(
            "| " + " | ".join(align(str(c), w, n) for c, w, n in zip(columns, widths, numeric)) + " |"
        )
        lines.append(
            "| " + " | ".join(("-" * max(w - 1, 2)) + ":" if n else "-" * max(w, 3)
                              for w, n in zip(widths, numeric)) + " |"
        )
        for row in table:
            lines.append(
                "| " + " | ".join(align(cell, w, n)
                                  for cell, w, n in zip(row, widths, numeric)) + " |"
            )
    else:
        lines.append("  ".join(align(str(c), w, n) for c, w, n in zip(columns, widths, numeric)))
        lines.append("  ".join("-" * w for w in widths))
        for row in table:
            lines.append("  ".join(align(cell, w, n) for cell, w, n in zip(row, widths, numeric)))
    return "\n".join(lines)


def rows_to_csv(
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str] | None = None,
    metadata: Optional[Mapping[str, object]] = None,
) -> str:
    """Render row dicts as CSV, optionally preceded by ``# key: value`` metadata.

    Cells are quoted by the :mod:`csv` module, so commas and nested lists in
    values survive a round-trip through standard CSV readers.
    """
    rows = list(rows)
    if not rows:
        return ""
    columns = _resolve_columns(rows, columns)
    buffer = io.StringIO()
    if metadata:
        for key, value in metadata.items():
            buffer.write(f"# {key}: {value}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([r.get(c, "") for c in columns])
    return buffer.getvalue().rstrip("\n")


def rows_to_json(
    rows: Sequence[Dict[str, object]],
    metadata: Optional[Mapping[str, object]] = None,
    indent: Optional[int] = 1,
) -> str:
    """Serialize a full row set (plus metadata) as a JSON document.

    The document shape is ``{"metadata": {...}, "rows": [...]}`` — the same
    orientation the result store's artifacts use.  Python floats round-trip
    bit-for-bit through :mod:`json` (shortest repr), so deserialized rows are
    exactly the rows that were serialized.
    """
    document = {"metadata": dict(metadata or {}), "rows": list(rows)}
    return json.dumps(document, indent=indent)
