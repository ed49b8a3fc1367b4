"""The CSV writer writes the bytes of the per-cell repr writer it replaced.

The reference below is the one-file writer as it was before numeric columns
were formatted by orjson: every cell of a block went through `tolist()` and
then `repr`, or was written as is when the block's first cell was a string.
``write_csv`` below writes one file through the package's writer, a header
line by ``open_csv`` and then each run's rows by ``write_rows``. The
property draws columns of every kind the writer takes and compares the
written bytes.
"""

import math
import struct

import numpy as np
import orjson
from hypothesis import given, settings
from hypothesis import strategies as st

from adamlab import artifacts
from adamlab.artifacts import CSV_BLOCK_ROWS, _cells, open_csv, write_rows

B = CSV_BLOCK_ROWS


def write_csv(path, header, runs):
    """A header line, then each run's rows, a run listing its columns in
    header order: one file through open_csv and write_rows."""
    with open_csv(path, header) as fh:
        for cols in runs:
            write_rows([(fh, cols)])


def reference_write_csv(path, header, cols):
    rows = len(cols[0]) if cols else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, 4096):
            block = [col[start:start + 4096].tolist() for col in cols]
            cells = [vals if isinstance(vals[0], str) else map(repr, vals) for vals in block]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits % 2**64))[0]


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# repr's positional window is 1e-4 <= |x| < 1e16; its edges and their
# neighbours, the zeros, the infinities, subnormals and NaNs with payloads
# and either sign
EDGES = [s * v for s in (1.0, -1.0) for e in (1e-4, 1e16) for v in _neighbours(e)]
SPECIAL_FLOATS = EDGES + [
    0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, 1e15, 1e-5,
    _float(0x7FF8000000000000), _float(0xFFF8000000000000),
    _float(0x7FF0000000000001), _float(0xFFFFFFFFFFFFFFFF),
    # write_csv's rewrites of orjson's text: the edge of the band
    # 1e-5 <= |x| < 1e-4 and one-digit band mantissas, the padded exponents
    # -6..-9, and exponents of two and three digits
    *_neighbours(1e-5), -1e-05, 9e-05, 1e-6, -1e-6, 5e-7, 1.5e-8, 9e-9, 1e-10, 1e-100, 1e100, 1e308,
]
INT64 = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), INT64.map(_float))
INTS = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 1, 10**16]), INT64)
ROW_COUNTS = [0, 1, 2, B - 1, B, B + 1, 2 * B + 3]


def _fill(draw, rng, rows, pool, bulk):
    """rows values: drawn pool values at drawn positions over a bulk of
    rng draws, so big columns stay cheap to draw."""
    col = bulk(rng, rows)
    if rows:
        for value in pool:
            col[draw(st.integers(0, rows - 1))] = value
    return col


def _float_bulk(rng, rows):
    """Arbitrary bit patterns, mantissas at 2^-14..2^53, where orjson writes
    the cells, and one cell in eight from SPECIAL_FLOATS."""
    bits = rng.integers(-(2**63), 2**63 - 1, size=rows, dtype=np.int64, endpoint=True).view(np.float64)
    mantissas = rng.uniform(-1.0, 1.0, rows) * np.exp2(rng.integers(-14, 54, rows))
    specials = rng.choice(np.array(SPECIAL_FLOATS), rows)
    return np.select([rng.random(rows) < 0.125, rng.random(rows) < 0.5], [specials, bits], mantissas)


def _int_bulk(rng, rows):
    wide = rng.integers(-(2**63), 2**63 - 1, size=rows, dtype=np.int64, endpoint=True)
    return np.where(rng.random(rows) < 0.5, wide, wide % 2001 - 1000)


# A shared column holds one value per run, of one kind of cell, strings or
# numbers: a number column mixes ints and floats as a config gives them (2
# beside 2.0). A column mixing strings and numbers has no CSV form in either
# writer.
SHARED_CELLS = st.one_of(
    st.lists(st.text("abcxyz=._-0123456789", max_size=8), min_size=1, max_size=6),
    st.lists(st.one_of(st.sampled_from([2, 2.0, 10.0, -0.0, 2**70]), FLOATS, INTS), min_size=1, max_size=6),
)


@st.composite
def columns(draw):
    """(header, the table's full columns, the same table as runs): a run is
    a list of its rows of each NumPy column and, for a shared column, its
    one value, which the full column repeats in an object column."""
    rows = draw(st.sampled_from(ROW_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "shared", "strided"]), min_size=1, max_size=5))
    if all(kind == "shared" for kind in kinds):
        kinds.append("int")  # a run's row count is its NumPy columns' length
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=3)))
    bounds = list(zip([0, *cuts], [*cuts, rows]))
    cols, per_run = [], []
    for kind in kinds:
        if kind == "float":
            col = _fill(draw, rng, rows, draw(st.lists(FLOATS, max_size=8)), _float_bulk)
        elif kind == "int":
            col = _fill(draw, rng, rows, draw(st.lists(INTS, max_size=8)), _int_bulk)
        elif kind == "shared":
            pool = draw(SHARED_CELLS)
            values = [pool[j] for j in rng.integers(0, len(pool), len(bounds))]
            col = np.empty(rows, dtype=object)
            for (a, b), value in zip(bounds, values):
                col[a:b] = [value] * (b - a)
            per_run.append(values)
            cols.append(col)
            continue
        else:
            # a column of a rows x 2 matrix, as trajectory.csv writes w0, w1
            matrix = _float_bulk(rng, 2 * rows).reshape(rows, 2)
            col = matrix[:, draw(st.integers(0, 1))]
        per_run.append([col[a:b] for a, b in bounds])
        cols.append(col)
    runs = [[run_cols[r] for run_cols in per_run] for r in range(len(bounds))]
    return [f"c{j}" for j in range(len(cols))], cols, runs


@settings(max_examples=150, deadline=None)
@given(columns())
def test_write_csv_writes_the_bytes_of_the_repr_writer(tmp_path_factory, table):
    header, cols, runs = table
    out = tmp_path_factory.mktemp("csv")
    reference_write_csv(str(out / "old.csv"), header, cols)
    write_csv(str(out / "new.csv"), header, runs)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_write_csv_writes_each_special_float_among_window_cells(tmp_path):
    # a column per special value, so each is the one cell of its block that
    # may lie outside repr's window
    cols = [np.array([0.5, x, -2.0]) for x in SPECIAL_FLOATS]
    header = [f"c{j}" for j in range(len(cols))]
    reference_write_csv(str(tmp_path / "old.csv"), header, cols)
    write_csv(str(tmp_path / "new.csv"), header, [cols])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# |x| in [lo, hi) for each magnitude that needs its own spelling rule, and
# repr's window, where orjson's cells are kept
MAGNITUDES = {
    "small": (5e-324, 1e-9),
    "padded": (1e-9, 1e-5),
    "band": (1e-5, 1e-4),
    "window": (1e-4, 1e16),
    "large": (1e16, math.inf),
}
NONFINITE = [math.nan, math.inf, -math.inf, _float(0x7FF8000000000001), _float(0xFFF8000000000000)]


def _magnitude_bulk(rng, rows, magnitude):
    """rows values of one magnitude and either sign: log-uniform, a quarter
    of them with one to three significant digits, and the two edges of the
    magnitude at drawn positions."""
    if magnitude == "nonfinite":
        return rng.choice(np.array(NONFINITE), rows)
    lo, hi = MAGNITUDES[magnitude]
    top = np.nextafter(hi, 0.0)
    x = np.exp2(rng.uniform(np.log2(lo), np.log2(top), rows))
    exps = rng.integers(math.floor(math.log10(lo)), math.floor(math.log10(top)) + 1, rows)
    short = np.array([f"{m}e{e}" for m, e in zip(rng.integers(1, 1000, rows), exps)]).astype(np.float64)
    x = np.clip(np.where(rng.random(rows) < 0.25, short, x), lo, top)
    x[rng.integers(0, rows, 2)] = [lo, top]
    return x * rng.choice([-1.0, 1.0], rows)


@st.composite
def magnitude_columns(draw):
    """(header, columns) of one to three magnitudes each: a column is its
    first magnitude's cells, with a few or half of its rows taken from each
    other magnitude."""
    rows = draw(st.sampled_from(ROW_COUNTS[1:]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = draw(st.lists(st.sampled_from([*MAGNITUDES, "nonfinite"]), min_size=1, max_size=3, unique=True))
        col = _magnitude_bulk(rng, rows, kinds[0])
        for kind in kinds[1:]:
            taken = rng.random(rows) < draw(st.sampled_from([0.01, 0.5]))
            col = np.where(taken, _magnitude_bulk(rng, rows, kind), col)
        cols.append(col)
    return [f"c{j}" for j in range(len(cols))], cols


@settings(max_examples=150, deadline=None)
@given(magnitude_columns())
def test_write_csv_writes_blocks_of_each_magnitude_as_the_repr_writer(tmp_path_factory, table):
    header, cols = table
    out = tmp_path_factory.mktemp("csv")
    reference_write_csv(str(out / "old.csv"), header, cols)
    write_csv(str(out / "new.csv"), header, [cols])
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_cells_of_an_empty_block_are_empty():
    assert _cells(np.array([], dtype=np.float64)) == []
    assert _cells(np.array([], dtype=np.int64)) == []


def test_cells_formats_no_float_by_a_per_cell_repr(monkeypatch):
    def no_repr(value):
        raise AssertionError(f"repr({value!r})")

    monkeypatch.setattr(artifacts, "repr", no_repr, raising=False)
    rng = np.random.default_rng(0)
    blocks = [np.array(SPECIAL_FLOATS)] + [_magnitude_bulk(rng, 8, m) for m in [*MAGNITUDES, "nonfinite"]]
    for vals in blocks:
        assert _cells(vals) == [repr(v) for v in vals.tolist()]


# Inside repr's window write_csv keeps the cells orjson writes; these are
# the notations it relies on.
ORJSON_NOTATION = [
    (1.0, "1.0"),
    (0.0001, "0.0001"),
    (9999999999999998.0, "9999999999999998.0"),
    (-0.0, "-0.0"),
    (0.0, "0.0"),
    (0.1, "0.1"),
    (-123.456, "-123.456"),
    (1e15, "1000000000000000.0"),
]


def test_orjson_notation_inside_the_window_is_repr():
    values = np.array([x for x, _ in ORJSON_NOTATION])
    got = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    want = [cell for _, cell in ORJSON_NOTATION]
    assert want == [repr(v) for v in values.tolist()]
    assert got == want, (
        f"orjson {orjson.__version__} no longer writes floats inside 1e-4 <= |x| < 1e16 "
        f"as repr does ({got} != {want}); write_csv relies on it"
    )


# Outside the window write_csv rewrites the cells orjson writes; these are
# the notations its rewrites expect.
ORJSON_SPELLING = [
    (1e-5, "0.00001"),
    (-0.000045, "-0.000045"),
    (0.0000123, "0.0000123"),
    (0.00009, "0.00009"),
    (1e-7, "1e-7"),
    (1.5e-7, "1.5e-7"),
    (1e-9, "1e-9"),
    (9.999999999999999e-10, "9.999999999999999e-10"),
    (1e-10, "1e-10"),
    (1.4e-23, "1.4e-23"),
    (1e16, "1e16"),
    (1.5e17, "1.5e17"),
    (5e-324, "5e-324"),
    (math.nan, "null"),
    (math.inf, "null"),
    (-math.inf, "null"),
]


def test_orjson_notation_outside_the_window_is_the_one_write_csv_rewrites():
    values = np.array([x for x, _ in ORJSON_SPELLING])
    got = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    want = [cell for _, cell in ORJSON_SPELLING]
    assert got == want, (
        f"orjson {orjson.__version__} no longer writes floats outside 1e-4 <= |x| < 1e16 "
        f"as write_csv expects ({got} != {want}); its rewrites to repr's spelling rely on it"
    )


# A pair of files written in lockstep, as emit writes each run's
# trajectory.csv beside its plot-table block: b's column at each place is a's
# column (shared), a's cut one row shorter or longer (a Thm2 run's step rows
# against its epoch table's), a's with the cells of some blocks changed
# (shared in the other blocks), a's zeros given the other sign or its bytes
# read as the other dtype (equal bytes or equal values, but other cells), or
# a column of its own.
B_KINDS = ["shared", "changed", "signed_zero", "other_dtype", "own"]


def _bulk(kind, rng, rows):
    return _float_bulk(rng, rows) if kind == "float" else _int_bulk(rng, rows)


@st.composite
def lockstep_runs(draw):
    """(a's header, b's header, [(a's columns, b's columns)] one pair per
    run): each run has a file a of its own, and every run writes to one file
    b, as each run has its trajectory.csv and one plot table holds them all."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "strided"]), min_size=1, max_size=4))
    b_kinds = [draw(st.sampled_from(B_KINDS)) for _ in kinds]
    b_order = draw(st.permutations(range(len(kinds))))
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.sampled_from(ROW_COUNTS))
        b_rows = max(0, rows + draw(st.sampled_from([-1, 0, 1])))
        a_cols, b_cols = [], []
        for kind, b_kind in zip(kinds, b_kinds):
            n = max(rows, b_rows)
            if kind == "strided":
                col = _float_bulk(rng, 2 * n).reshape(n, 2)[:, 1]
            else:
                col = _fill(draw, rng, n, draw(st.lists(FLOATS if kind == "float" else INTS, max_size=4)),
                            lambda rng, n: _bulk(kind, rng, n))
            b_col = col[:b_rows]
            if b_kind == "changed":
                b_col = b_col.copy()
                for block in draw(st.lists(st.integers(0, b_rows // B), max_size=3)):
                    b_col[block * B:(block + 1) * B][:1] = rng.integers(-5, 5)
            elif b_kind == "signed_zero" and b_col.dtype.kind == "f":
                b_col = np.where(b_col == 0.0, -b_col, b_col)
            elif b_kind == "other_dtype":
                b_col = np.ascontiguousarray(b_col).view(np.int64 if b_col.dtype.kind == "f" else np.float64)
            elif b_kind == "own":
                b_col = _bulk("int" if kind == "int" else "float", rng, b_rows)
            a_cols.append(col[:rows])
            b_cols.append(b_col)
        seed = draw(INTS)
        runs.append(([*a_cols, "run"], [b_cols[j] for j in b_order] + [seed]))
    a_header = [f"a{j}" for j in range(len(kinds) + 1)]
    return a_header, [f"b{j}" for j in range(len(kinds) + 1)], runs


@settings(max_examples=150, deadline=None)
@given(lockstep_runs())
def test_files_written_in_lockstep_get_the_bytes_of_write_csv_alone(tmp_path_factory, drawn):
    a_header, b_header, runs = drawn
    out = tmp_path_factory.mktemp("lockstep")
    with open_csv(str(out / "b.csv"), b_header) as b:
        for r, (a_cols, b_cols) in enumerate(runs):
            with open_csv(str(out / f"a{r}.csv"), a_header) as a:
                write_rows([(a, a_cols), (b, b_cols)])
    write_csv(str(out / "b_alone.csv"), b_header, [b_cols for _, b_cols in runs])
    assert (out / "b.csv").read_bytes() == (out / "b_alone.csv").read_bytes()
    for r, (a_cols, _) in enumerate(runs):
        write_csv(str(out / f"a{r}_alone.csv"), a_header, [a_cols])
        assert (out / f"a{r}.csv").read_bytes() == (out / f"a{r}_alone.csv").read_bytes()
