"""Plot tables written from columns equal the per-row writer they replaced.

The reference below is the emission path as it was when a plot table was a
list of one dict per epoch snapshot: rows sorted by (run_id, k), then every
cell formatted on its own. The property builds the same random runs both
ways and compares the written bytes, CSV and JSON.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamlab.artifacts import CSV_BLOCK_ROWS, open_csv, table_columns, write_json, write_rows, write_table
from adamlab.harness import default_config_for, emit, merge_config, run_experiment
from adamlab.optimizers import export_trajectory_csv, trajectory_summary


def _fmt(x):
    return repr(float(x))


def reference_write_table(rows, path_base, fmt):
    if fmt == "json":
        path = path_base + ".json"
        with open(path, "w") as fh:
            json.dump(rows, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path
    path = path_base + ".csv"
    if rows:
        cols = sorted(rows[0].keys())
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(_fmt(r[c]) if isinstance(r[c], float) else str(r[c]) for c in cols))
    else:
        lines = [""]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
# multipliers as a config gives them: the int 2 beside floats; as run ids,
# "eta_mult=10.0" sorts before "eta_mult=2.0"
MULTS = [2, 2.0, 10.0, 0.5, 0.99, 1.05, 1e300, 5e-324, -0.0, 100]
# total row counts around the write block, and small ones
ROW_COUNTS = [0, 1, 2, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]


def _fill(pool, stride, n):
    """n values cycled out of a small drawn pool, so big tables stay cheap."""
    return [pool[(i * stride + i // len(pool)) % len(pool)] for i in range(n)]


@st.composite
def runs(draw):
    """[(run_id, {constant: value}, {column: Python values})] in build order."""
    mults = draw(st.lists(st.sampled_from(MULTS), max_size=5, unique_by=repr))
    rows = draw(st.sampled_from(ROW_COUNTS)) if mults else 0
    parts = max(len(mults) - 1, 0)
    cuts = sorted(draw(st.lists(st.integers(0, rows), min_size=parts, max_size=parts)))
    lengths = [b - a for a, b in zip([0, *cuts], [*cuts, rows])]
    pool = draw(st.lists(FLOATS, min_size=1, max_size=12))
    stride = draw(st.integers(1, 13))
    out = []
    for mult, m in zip(mults, lengths):
        rid = f"eta_mult={mult!r}"
        constants = {"run_id": rid, "eta_mult": mult, "seed": draw(st.integers(0, 2**63 - 1))}
        out.append((rid, constants, {
            "k": list(range(1, m + 1)),
            "grad_norm": _fill(pool, stride, m),
            "x": _fill(pool, stride + 1, m),
        }))
    return out


def _block(constants, values):
    """A run's block as the runners build it: NumPy columns from the epoch
    table, and each per-run constant once."""
    return {
        "k": np.array(values["k"], dtype=np.int64),
        "grad_norm": np.array(values["grad_norm"], dtype=np.float64),
        "x": np.array(values["x"], dtype=np.float64),
        **constants,
    }


def write_any_table(table, path_base, fmt):
    """A plot table as JSON by write_table; as CSV, its header line and then
    each run's block, by open_csv and write_rows, as emit writes it without
    the trajectories beside it."""
    if fmt == "json":
        return write_table(table, path_base)
    path = path_base + ".csv"
    names, runs = table_columns(table)
    with open_csv(path, names) as fh:
        for cols in runs:
            write_rows([(fh, cols)])
    return path


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=100, deadline=None)
@given(runs(), st.sampled_from(["csv", "json"]))
def test_column_tables_write_the_bytes_of_row_dicts(tmp_path_factory, built, fmt):
    out = tmp_path_factory.mktemp("emit")
    rows, blocks = [], {}
    for rid, constants, values in built:
        rows.extend({**constants, **dict(zip(values, cells))} for cells in zip(*values.values()))
        blocks[rid] = _block(constants, values)
    rows.sort(key=lambda r: (r["run_id"], r["k"]))
    old = reference_write_table(rows, str(out / "old"), fmt)
    new = write_any_table([blocks[rid] for rid in sorted(blocks)], str(out / "new"), fmt)
    assert _read(new) == _read(old)


def test_run_ids_sort_as_strings_not_as_numbers(tmp_path):
    # a run's id spells its multiplier as given, so 10.0 sorts before 2 in
    # the report rows, the trajectories and the plot table
    config = merge_config(default_config_for("Thm2Divergence"), {"options": {"eta_multipliers": [2, 10.0]}})
    result = run_experiment(config)
    order = ["eta_mult=10.0", "eta_mult=2"]
    assert [row["run_id"] for row in result.report["runs"]] == order
    assert list(result.trajectories) == order
    assert [block["run_id"] for block in result.plot_tables["iterates"]] == order
    assert [block["eta_mult"] for block in result.plot_tables["iterates"]] == [10.0, 2]
    # the writer keeps the table's block order and each run's constants as given
    blocks = {
        rid: _block({"run_id": rid, "eta_mult": mult, "seed": 0},
                    {"k": [1, 2], "grad_norm": [1.0, 0.5], "x": [0.0, 0.0]})
        for rid, mult in (("eta_mult=2", 2), ("eta_mult=10.0", 10.0))
    }
    path = write_any_table([blocks[rid] for rid in sorted(blocks)], str(tmp_path / "t"), "csv")
    assert _read(path).decode().splitlines() == [
        "eta_mult,grad_norm,k,run_id,seed,x",
        "10.0,1.0,1,eta_mult=10.0,0,0.0",
        "10.0,0.5,2,eta_mult=10.0,0,0.0",
        "2,1.0,1,eta_mult=2,0,0.0",
        "2,0.5,2,eta_mult=2,0,0.0",
    ]


def _tree(root):
    return {
        os.path.relpath(os.path.join(dirpath, name), root): _read(os.path.join(dirpath, name))
        for dirpath, _, files in os.walk(root) for name in files
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_the_tree_of_one_writer_call_per_file(tmp_path, fmt):
    # emit writes a CSV plot table in lockstep with the trajectories; the
    # reference writes each trajectory.csv alone, then the table. At 2500
    # steps the completed runs' step rows (2500) and table rows (2501) cross
    # block edges, and the last block of each differs in length.
    config = merge_config(default_config_for("Thm2Slow"), {"T": 2500, "options": {"steps": 2500}})
    result = run_experiment(config)
    assert 2500 in {len(traj.steps) for traj in result.trajectories.values()}
    emit(result, str(tmp_path / "new"), fmt)
    old = tmp_path / "old" / "Thm2Slow"
    old.mkdir(parents=True)
    write_json(result.report, str(old / "report.json"))
    for rid, traj in result.trajectories.items():
        (old / rid).mkdir()
        export_trajectory_csv(traj, str(old / rid / "trajectory.csv"))
        write_json(trajectory_summary(traj), str(old / rid / "summary.json"))
    for name, table in result.plot_tables.items():
        write_any_table(table, str(old / name), fmt)
    assert _tree(tmp_path / "new") == _tree(tmp_path / "old")
