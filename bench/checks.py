"""Output checks: byte identity between passes and drift of CSV cells
against the reference values recorded at seed 0.

A reference entry keeps, per CSV file, its shape and either every cell
(small files) or a strided sample of cells plus per-row or per-column sums
(large files, such as the 196 x 4096 field maps). Sums make a drift in any
cell of a large file visible without storing the file.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# A numeric cell matches when |value - reference| <= RTOL * max(|reference|,
# 1e-9 * scale), where scale is the largest magnitude in the reference
# column: values at round-off relative to their column (a singular value of
# a rank-deficient channel) carry no digits worth comparing.
RTOL = 1e-6
_ABS_FLOOR = 1e-9
# A condition number this large means the channel is singular to round-off;
# its digits depend on the rounding of sigma_min, so two such values match.
_SINGULAR_KAPPA = 1e12
_FULL_CELLS = 2000
_SAMPLED_CELLS = 400
_MAX_SUMS = 400


def tree_digest(root: Path) -> dict:
    """sha256 of every file under `root`, keyed by relative path."""
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with path.open("rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        digests[path.relative_to(root).as_posix()] = h.hexdigest()
    return digests


def _rows(path: Path) -> list:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def number(text: str):
    """Float value of a cell; None for text and for inf or nan."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _sums(rows: list, by_row: bool) -> list:
    """(sum, sum of magnitudes) of the numeric cells of each row or column."""
    n = len(rows) if by_row else max(len(r) for r in rows)
    sums = [[0.0, 0.0] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            v = number(cell)
            if v is not None:
                s = sums[i if by_row else j]
                s[0] += v
                s[1] += abs(v)
    return sums


def summarize(path: Path) -> dict:
    """Reference entry for one output file."""
    rows = _rows(path)
    n_cells = sum(len(r) for r in rows)
    entry = {"rows": len(rows), "cells": n_cells}
    if n_cells <= _FULL_CELLS:
        entry["table"] = rows
        return entry
    stride = max(1, n_cells // _SAMPLED_CELLS)
    flat = [(i, j, c) for i, r in enumerate(rows) for j, c in enumerate(r)]
    entry["sample"] = [list(t) for t in flat[::stride]]
    entry["scale"] = _column_scale(rows)
    if len(rows) <= _MAX_SUMS:
        entry["row_sums"] = _sums(rows, by_row=True)
    if max(len(r) for r in rows) <= _MAX_SUMS:
        entry["col_sums"] = _sums(rows, by_row=False)
    return entry


def _column_scale(rows: list) -> list:
    width = max(len(r) for r in rows)
    scale = [0.0] * width
    for row in rows:
        for j, cell in enumerate(row):
            v = number(cell)
            if v is not None:
                scale[j] = max(scale[j], abs(v))
    return scale


def _cell_drift(got: str, want: str, scale: float, header: str) -> float:
    """Relative drift of one cell; inf for a textual mismatch."""
    if got == want:
        return 0.0
    g, w = number(got), number(want)
    if g is None or w is None:
        return math.inf
    if header == "kappa" and min(g, w) > _SINGULAR_KAPPA:
        return 0.0
    return abs(g - w) / max(abs(w), _ABS_FLOOR * scale, 1e-300)


def compare(path: Path, ref: dict) -> tuple:
    """(worst relative drift, first problem or None) of one file against
    its reference entry."""
    rows = _rows(path)
    if len(rows) != ref["rows"] or sum(len(r) for r in rows) != ref["cells"]:
        return math.inf, f"shape {len(rows)} rows / {sum(len(r) for r in rows)} cells"
    header = rows[0] if rows else []
    worst, problem = 0.0, None

    def note(drift, where):
        nonlocal worst, problem
        worst = max(worst, drift)
        if drift > RTOL and problem is None:
            problem = f"{where}: drift {drift:.3e}"

    if "table" in ref:
        want_rows = ref["table"]
        scale = _column_scale(want_rows)
        cells = [(i, j, c) for i, r in enumerate(want_rows) for j, c in enumerate(r)]
    else:
        scale = ref["scale"]
        cells = ref["sample"]
    for i, j, want in cells:
        got = rows[i][j] if j < len(rows[i]) else ""
        col = header[j] if j < len(header) else ""
        note(_cell_drift(got, want, scale[j] if j < len(scale) else 0.0, col), f"cell ({i}, {j})")
    for key, by_row in (("row_sums", True), ("col_sums", False)):
        if key in ref:
            for k, ((s, mag), (ws, wmag)) in enumerate(zip(_sums(rows, by_row), ref[key])):
                note(abs(s - ws) / max(wmag, 1e-300), f"{key}[{k}]")
    return worst, problem
