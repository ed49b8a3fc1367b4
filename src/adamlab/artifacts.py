"""How the artifact files spell numbers: the CSV and JSON writers.

Every function that turns numbers into artifact text lives here, so one
module decides each file's byte format. The callers decide what goes in a
file (``optimizers.export_trajectory_csv``, ``harness.emit``). This module
imports no other ``adamlab`` module.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Any, Iterator, Sequence, TextIO

import numpy as np
import orjson

# write_rows formats and writes this many rows at a time. Each block's cells
# are held as Python strings; 1024 rows keeps that within a few MB on the
# widest tables, where 4096 rows raised Fig3's peak RSS by about 9%.
CSV_BLOCK_ROWS = 1024


# orjson writes a float64 with repr's shortest round-trip digits, and spells
# it as repr does for 1e-4 <= |x| < 1e16, for +-0.0 and for |x| < 1e-9, whose
# negative exponents have two or three digits ("1.4e-23"): these cells are
# _PLAIN. Every other cell needs one rule, _PADDED plus the bin of its |x|
# among _ODD_EDGES (np.searchsorted, side "right", which puts NaN above inf):
# - _PADDED, 1e-9 <= |x| < 1e-5: the one-digit exponent gains repr's zero,
#   "e-" -> "e-0" ("1.5e-7" -> "1.5e-07");
# - _BAND, 1e-5 <= |x| < 1e-4, which orjson writes positionally and repr with
#   exponent -5: "0.0000" is cut, a "." put after the first digit and
#   "e-05" appended ("0.0000123" -> "1.23e-05", "0.00001" -> "1e-05");
# - _SIGNED, finite |x| >= 1e16: repr's "+", "e" -> "e+" ("1e16" -> "1e+16");
# - _NONFINITE, NaN and +-inf, which orjson writes as null: "nan", "inf" and
#   "-inf".
_PLAIN, _PADDED, _BAND, _SIGNED, _NONFINITE = range(5)
_ODD_EDGES = np.array([1e-5, 1e-4, math.inf])


def _rule_cells(rule: int, vals: np.ndarray) -> list[str]:
    """The cells of a non-empty contiguous numeric array whose every cell
    needs rule: one orjson call, its text rewritten by that rule."""
    if rule == _NONFINITE:
        return np.where(np.isnan(vals), "nan", np.where(vals > 0, "inf", "-inf")).tolist()
    text = orjson.dumps(vals, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    if rule == _PADDED:
        text = text.replace(b"e-", b"e-0")
    elif rule == _SIGNED:
        text = text.replace(b"e", b"e+")
    elif rule == _BAND:
        # "0.0000" -> ".", then each "." and the first digit after it swap
        chars = np.frombuffer(bytearray(text.replace(b"0.0000", b".")), np.uint8)
        dots = np.flatnonzero(chars == ord("."))
        chars[dots] = chars[dots + 1]
        chars[dots + 1] = ord(".")
        text = chars.tobytes().replace(b",", b"e-05,").replace(b".e", b"e")
    cells = text.decode().split(",")
    cells.pop()
    return cells


def _cells(vals: np.ndarray) -> list[str]:
    """The CSV cells of one int or float64 column block: the repr of each
    Python int or float it holds, never formatted by a per-cell repr. A
    block whose cells all need one rule takes that rule's one orjson call
    (_rule_cells); most blocks are all _PLAIN. Any other block takes one
    _PLAIN call, and each other rule's cells are formatted again by that
    rule and put back by index."""
    if not len(vals):
        return []
    vals = np.ascontiguousarray(vals)
    if vals.dtype.kind != "f":
        return _rule_cells(_PLAIN, vals)
    a = np.abs(vals)
    # the cells that are not _PLAIN, NaN among them
    odd = np.flatnonzero(~((a < 1e-9) | ((a >= 1e-4) & (a < 1e16))))
    if not len(odd):
        return _rule_cells(_PLAIN, vals)
    rules = np.searchsorted(_ODD_EDGES, a[odd], side="right") + _PADDED
    counts = np.bincount(rules, minlength=_NONFINITE + 1).tolist()
    if len(vals) in counts:
        return _rule_cells(counts.index(len(vals)), vals)
    cells = _rule_cells(_PLAIN, vals)
    for rule in range(_PADDED, _NONFINITE + 1):
        if counts[rule]:
            at = odd[rules == rule]
            for j, cell in zip(at.tolist(), _rule_cells(rule, vals[at])):
                cells[j] = cell
    return cells


def write_rows(parts: Sequence[tuple[TextIO, Sequence]]) -> None:
    """Write each part's rows to its open file, CSV_BLOCK_ROWS rows at a time
    and in lockstep: block j of every part is written before block j + 1 of
    any, so at most one block of cells per file is held. A part is a file and
    one run's columns in its header order: a NumPy column (int or float64,
    formatted by _cells) or one value all its rows share, formatted once; its
    row count is its NumPy columns' length. A cell is the repr of a Python
    int or float, or the string itself. Within a block, a column slice of the
    same dtype and bytes as one already formatted takes that one's cells,
    which _cells, reading nothing else, would give again: a column that two
    files share is formatted once per block."""
    runs = [
        (fh, cols, next((len(c) for c in cols if isinstance(c, np.ndarray)), 0),
         [None if isinstance(c, np.ndarray) else c if isinstance(c, str) else repr(c) for c in cols])
        for fh, cols in parts
    ]
    for start in range(0, max((rows for _, _, rows, _ in runs), default=0), CSV_BLOCK_ROWS):
        formatted: dict[tuple[str, bytes], list[str]] = {}
        for fh, cols, rows, shared in runs:
            stop = min(start + CSV_BLOCK_ROWS, rows)
            if stop <= start:
                continue
            cells = []
            for col, cell in zip(cols, shared):
                if cell is None:
                    vals = col[start:stop]
                    key = (vals.dtype.str, vals.tobytes())
                    if key not in formatted:
                        formatted[key] = _cells(vals)
                    cells.append(formatted[key])
                else:
                    cells.append([cell] * (stop - start))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


@contextmanager
def open_csv(path: str, header: Sequence[str]) -> Iterator[TextIO]:
    """path open for writing, its header line written."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        yield fh


def write_json(payload: dict | list, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def table_columns(table: list[dict[str, Any]]) -> tuple[list[str], list[list]]:
    """A plot table's column names in name order, none when it has no rows,
    and each block's columns in that order."""
    names = sorted(table[0]) if any(len(block["k"]) for block in table) else []
    return names, [[block[name] for name in names] for block in table]


def write_table(table: list[dict[str, Any]], path_base: str) -> str:
    """Write a plot table as JSON, a list of one object per row, with its
    columns in name order and each run's shared values repeated down its
    rows. A CSV plot table is written by emit, each run's block beside its
    trajectory.csv (write_rows)."""
    names, runs = table_columns(table)
    path = path_base + ".json"
    write_json([
        dict(zip(names, vals))
        for block, cols in zip(table, runs)
        for vals in zip(*(c.tolist() if isinstance(c, np.ndarray) else [c] * len(block["k"]) for c in cols))
    ], path)
    return path
