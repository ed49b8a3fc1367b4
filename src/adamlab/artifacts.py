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
# it as repr does for 1e-4 <= |x| < 1e16 and +-0.0. Outside that window
# _cells rewrites its text, with "," after every cell, to repr's spelling.
# Exponents (0 < |x| < 1e-5 and finite |x| >= 1e16) gain repr's "+" and the
# leading zero of a one-digit negative exponent: "1e16" -> "1e+16",
# "1e-7" -> "1e-07".
_EXPONENT_SPELLING = [(b"e", b"e+"), (b"e+-", b"e-")] + [(b"e-%d," % d, b"e-0%d," % d) for d in range(6, 10)]
# 1e-5 <= |x| < 1e-4, which orjson writes positionally and repr with exponent
# -5: "0.0000123" -> "1.23e-05", "0.00001" -> "1e-05".
_BAND_SPELLING = [(b"0.0000%d" % d, b"%d." % d) for d in range(1, 10)] + [(b",", b"e-05,"), (b".e", b"e")]


def _orjson_cells(vals: np.ndarray, rewrites: Sequence[tuple[bytes, bytes]] = ()) -> list[str]:
    """The cells of one orjson call on a contiguous numeric array, its text
    rewritten first."""
    if not len(vals):
        return []
    text = orjson.dumps(vals, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    for old, new in rewrites:
        text = text.replace(old, new)
    cells = text.decode().split(",")
    cells.pop()
    return cells


def _cells(vals: np.ndarray) -> list[str]:
    """The CSV cells of one int or float64 column block: the repr of each
    Python int or float it holds, formatted by one orjson call and never by
    a per-cell repr. A float64 block with cells outside repr's window gets
    them re-spelled by mask: the exponent cells and the 1e-5 <= |x| < 1e-4
    cells each from one more orjson call whose text is rewritten in bulk
    (_EXPONENT_SPELLING, _BAND_SPELLING), and NaN and +-inf, which orjson
    writes as null, as "nan", "inf" and "-inf"."""
    vals = np.ascontiguousarray(vals)
    cells = _orjson_cells(vals)
    if vals.dtype.kind != "f":
        return cells
    a = np.abs(vals)
    # most blocks lie inside repr's window (a NaN fails the max test)
    if a.min(where=a > 0, initial=math.inf) >= 1e-4 and a.max() < 1e16:
        return cells
    exponent = ((a > 0) & (a < 1e-5)) | ((a >= 1e16) & (a < math.inf))
    band = (a >= 1e-5) & (a < 1e-4)
    nonfinite = ~np.isfinite(vals)
    infs_nans = vals[nonfinite]
    respelled = (
        _orjson_cells(vals[exponent], _EXPONENT_SPELLING)
        + _orjson_cells(vals[band], _BAND_SPELLING)
        + np.where(np.isnan(infs_nans), "nan", np.where(infs_nans > 0, "inf", "-inf")).tolist()
    )
    for j, cell in zip(np.concatenate([np.flatnonzero(m) for m in (exponent, band, nonfinite)]).tolist(), respelled):
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


def write_csv(path: str, header: Sequence[str], runs: Sequence[Sequence]) -> None:
    """Write a header line, then each run's rows (write_rows), a run listing
    its columns in header order."""
    with open_csv(path, header) as fh:
        for cols in runs:
            write_rows([(fh, cols)])


def write_json(payload: dict | list, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def table_columns(table: list[dict[str, Any]]) -> tuple[list[str], list[list]]:
    """A plot table's column names in name order, none when it has no rows,
    and each block's columns in that order."""
    names = sorted(table[0]) if any(len(block["k"]) for block in table) else []
    return names, [[block[name] for name in names] for block in table]


def write_table(table: list[dict[str, Any]], path_base: str, fmt: str) -> str:
    """Write a plot table with its columns in name order, each run's shared
    values repeated down its rows: as JSON, a list of one object per row; as
    CSV, a header line and the rows, or one empty line when the table has no
    rows."""
    names, runs = table_columns(table)
    if fmt == "json":
        path = path_base + ".json"
        write_json([
            dict(zip(names, vals))
            for block, cols in zip(table, runs)
            for vals in zip(*(c.tolist() if isinstance(c, np.ndarray) else [c] * len(block["k"]) for c in cols))
        ], path)
        return path
    path = path_base + ".csv"
    write_csv(path, names, runs)
    return path
