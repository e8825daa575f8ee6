"""Plain-text table and series renderers for the benchmark harness.

Every benchmark regenerates the rows/series of one paper table or
figure; these helpers give them a uniform, diff-friendly format that
is both printed and written under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence

from repro.config import active_exec_config


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def format_series(title: str, x_label: str, series: Mapping[str, Sequence[float]],
                  x_values: Sequence[object]) -> str:
    """Render figure-style series as a table of x vs each series."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x, *(values[i] for values in series.values())])
    return format_table(title, headers, rows)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def percent(value: float, digits: int = 1) -> str:
    """Format a 0-1 fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"


def results_dir() -> str:
    """The directory benchmark outputs are written to
    (``REPRO_RESULTS_DIR``)."""
    path = active_exec_config().results_dir or os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))),
        "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def emit(name: str, text: str) -> str:
    """Print a report and persist it under the results directory."""
    print()
    print(text)
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path
