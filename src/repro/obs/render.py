"""ASCII timeline rendering of recorded traces.

A trace is a forest of nested spans with monotonic timestamps; this
module draws it as a per-span timeline — each span one row, indented
below its parent, with a bar positioned and sized in the trace's global
time window.  Rotated ninety degrees this is a flame graph; kept
horizontal it shows *when* elements overlapped, which is exactly what
the Section 4.3 parallelisation argument is about: on a parallel run
the bars of same-level elements visibly overlap, on a serial run they
tile.

The layout follows the conventions of the other ASCII renderers (fixed
label column, ``#`` bars, millisecond figures) so trace timelines read
like the rest of perfbase's terminal output.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .spans import Span

__all__ = ["timeline", "table"]


def table(rows: Sequence[Sequence[Any]],
          columns: Sequence[tuple[str, str]], title: str) -> str:
    """Render rows through the regular ASCII-table output format.

    The renderer behind the trace summary and metrics tables; the
    regression sentinel's check report uses it so sentinel output reads
    like every other perfbase table.  ``columns`` are
    ``(name, datatype)`` pairs with datatype one of ``string``,
    ``integer``, ``float``; rows are sorted by the first column.

    Builds a throwaway in-memory vector so the table goes through the
    same renderer as query results (imports deferred: the DB layer is
    instrumented and imports this package).
    """
    from ..core.datatypes import DataType
    from ..db.sqlite_backend import SQLiteDatabase
    from ..output.ascii_table import AsciiTableFormat
    from ..query.vectors import ColumnInfo, DataVector

    db = SQLiteDatabase()
    names = [name for name, _ in columns]
    sql_types = {"string": "TEXT", "integer": "INTEGER",
                 "float": "REAL"}
    db.create_table("obs_summary",
                    [(name, sql_types[dt]) for name, dt in columns])
    if rows:
        db.insert_rows("obs_summary", names, rows)
    infos = [ColumnInfo(name, datatype=DataType(dt),
                        is_result=(dt != "string"))
             for name, dt in columns]
    vector = DataVector(db, "obs_summary", infos, n_rows=len(rows),
                        producer="obs")
    fmt = AsciiTableFormat({"title": title, "precision": 6,
                            "sort_by": names[0]})
    text = fmt.render_one(vector)
    db.close()
    return text


#: span kinds hidden by default: per-statement DB spans dominate the
#: row count without adding timeline structure
DEFAULT_HIDDEN = frozenset({"db"})


def _order_forest(spans: Sequence[Span]) -> list[tuple[Span, int]]:
    """Depth-first (span, depth) order: children below their parent,
    siblings by start time, ties broken by span id (deterministic)."""
    ids = {s.span_id for s in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        parent = (span.parent_id
                  if span.parent_id in ids else None)
        children.setdefault(parent, []).append(span)
    for members in children.values():
        members.sort(key=lambda s: (s.start, s.span_id))
    out: list[tuple[Span, int]] = []

    def visit(span: Span, depth: int) -> None:
        out.append((span, depth))
        for child in children.get(span.span_id, ()):
            visit(child, depth + 1)

    for root in children.get(None, ()):
        visit(root, 0)
    return out


def timeline(spans: Iterable[Span], *, width: int = 60,
             label_width: int = 28,
             hide_kinds: Iterable[str] = DEFAULT_HIDDEN,
             max_rows: int = 200,
             title: str = "trace timeline") -> str:
    """Render ``spans`` as an ASCII timeline.

    ``width`` is the bar area in characters; ``hide_kinds`` suppresses
    noisy span kinds (per-statement ``db`` spans by default — pass
    ``()`` to see everything).  Rows beyond ``max_rows`` are elided
    with a note, never silently.
    """
    hidden = frozenset(hide_kinds)
    spans = [s for s in spans if s.finished and s.kind not in hidden]
    if not spans:
        return f"{title}: no spans\n"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans if s.end is not None)
    window = max(t1 - t0, 1e-9)

    rows = _order_forest(spans)
    shown = rows[:max_rows]
    lines = [f"{title}: {len(spans)} span(s), "
             f"{window * 1e3:.3f}ms window"]
    for span, depth in shown:
        label = ("  " * depth + span.name)[:label_width]
        begin = int(round((span.start - t0) / window * width))
        length = int(round(span.wall_seconds / window * width))
        begin = min(begin, width - 1)
        length = max(1, min(length, width - begin))
        bar = (" " * begin + "#" * length).ljust(width)
        lines.append(
            f"{label:<{label_width}} |{bar}| "
            f"{span.wall_seconds * 1e3:>9.3f}ms  {span.kind}")
    if len(rows) > max_rows:
        lines.append(f"... {len(rows) - max_rows} more span(s) "
                     f"elided (max_rows={max_rows})")
    return "\n".join(lines) + "\n"
