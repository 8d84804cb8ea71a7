"""Plain-text rendering of reproduced tables and figure series.

The benchmark harness prints the same rows the paper reports; these
helpers format them without any plotting dependency (the environment is
offline).  Figure series are rendered as aligned text timelines.
"""

from __future__ import annotations

import typing as _t


#: How far apart (s) a Table I mean and its discard-slowest mean must be
#: for :func:`format_cell` to print both.
CELL_THRESHOLD_S = 10.0


def format_cell(mean: float, discarded: float) -> str:
    """Table I cell style: ``mean [discarded]`` when they differ by more
    than :data:`CELL_THRESHOLD_S`."""
    if abs(mean - discarded) <= CELL_THRESHOLD_S:
        return f"{mean:.0f}"
    return f"{mean:.0f} [{discarded:.0f}]"


def render_table(headers: _t.Sequence[str],
                 rows: _t.Sequence[_t.Sequence[_t.Any]],
                 title: str = "") -> str:
    """Monospace table with per-column alignment."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_timeline(events: _t.Sequence[tuple[str, float, float]],
                    width: int = 60, title: str = "") -> str:
    """ASCII Gantt chart: one bar per (label, start, end) tuple.

    Used for the Fig. 4 reproduction: per-result map timelines that make
    the backoff straggler visually obvious.
    """
    if not events:
        return "(no events)"
    t0 = min(start for _l, start, _e in events)
    t1 = max(end for _l, _s, end in events)
    span = max(t1 - t0, 1e-9)
    label_w = max(len(label) for label, _s, _e in events)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'':{label_w}}  t={t0:.0f}s {'.' * (width - 16)} t={t1:.0f}s")
    for label, start, end in events:
        a = int(round((start - t0) / span * (width - 1)))
        b = int(round((end - t0) / span * (width - 1)))
        b = max(b, a)
        bar = " " * a + "#" * (b - a + 1)
        lines.append(f"{label:{label_w}}  |{bar.ljust(width)}|")
    return "\n".join(lines)
