"""Small, targeted corruptions of real outputs, used to show that each check bites."""

from __future__ import annotations

import csv
import json
from pathlib import Path


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_cell(path: Path, column: str, row: int, change) -> None:
    def edit(rows):
        col = rows[0].index(column)
        body = rows[1:]
        body[row][col] = repr(change(float(body[row][col])))

    _rewrite(path, edit)


def scale_cell(path: Path, column: str) -> None:
    _edit_cell(path, column, 0, lambda x: x * (1.0 + 1e-6))


def shift_cell(path: Path, column: str, delta: float, row: int = 1) -> None:
    _edit_cell(path, column, row, lambda x: x + delta)


def nudge_p(path: Path) -> None:
    """Move the largest p-value below 1 - 1e-6 up by 1e-6."""
    def edit(rows):
        col = rows[0].index("p_value")
        body = rows[1:]
        candidates = [r for r in body if float(r[col]) <= 1.0 - 1e-6]
        target = max(candidates, key=lambda r: float(r[col]))
        target[col] = repr(float(target[col]) + 1e-6)

    _rewrite(path, edit)


def swap_rows(path: Path, first: int = 3) -> None:
    """Swap two neighbouring data rows."""
    def edit(rows):
        rows[first], rows[first + 1] = rows[first + 1], rows[first]

    _rewrite(path, edit)


def flip_edge(path: Path) -> None:
    """Toggle one pair of a graph's adjacency: drop its first edge, or add (0, 1)."""
    payload = json.loads(path.read_text())
    adjacency = payload["adjacency"]
    pairs = [(i, j) for i, row in enumerate(adjacency) for j in range(i + 1, len(row)) if row[j]]
    i, j = pairs[0] if pairs else (0, 1)
    adjacency[i][j] = adjacency[j][i] = 1 - adjacency[i][j]
    path.write_text(json.dumps(payload, indent=2) + "\n")
