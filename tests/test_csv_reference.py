"""The column-table CSV writer against the row writer it replaced.

The reference is the CSV writer as first written: it renders every cell of
every dict row, one at a time, with the cell rules spelled out here, so it
shares no code with the block-wise column writer it referees.  Its float
cells are float.__repr__, which numpy's float64 (a float subclass) also
takes, and numpy's bool_ is a bool.

Texts are compared by assert_same_text, which names the first line that
differs; pytest's own diff of two texts of thousands of lines takes minutes.
"""

import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from misbounds.cli import main
from misbounds.report import (
    CSV_BLOCK_ROWS,
    compare_hi_scan,
    compare_lo_rows,
    fig1_rows,
    fig1_table,
    fig2_rows,
    fig2_table,
    fig3_rows,
    fig3_table,
    rows_to_csv,
    rows_to_json,
    table_rows,
    table_to_csv,
)


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def reference_rows_to_csv(rows: list, header_comments=()) -> str:
    """Render dict rows as CSV; column order follows the first row's keys."""
    if not rows:
        return "\n".join(f"# {c}" for c in header_comments) + "\n" if header_comments else ""
    columns = list(rows[0].keys())
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(reference_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def assert_same_text(got: str, want: str):
    """got == want, or a failure that names the first differing line of the two."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        line = next(
            (i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
            min(len(got_lines), len(want_lines)),
        )
        pytest.fail(
            f"texts differ first at line {line + 1} of {len(got_lines)} (got) and {len(want_lines)} (want): "
            f"got {got_lines[line : line + 1]}, want {want_lines[line : line + 1]}",
            pytrace=False,
        )


def run_cli(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def crossover_comment(scan) -> str:
    return f"crossover_k = {scan.crossover_k if scan.crossover_k is not None else 'none'}"


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["fig1"], lambda: fig1_rows(5)),
        (["fig2"], fig2_rows),
        (["fig2", "--p", "0", "0.3"], lambda: fig2_rows(p_list=(0, 0.3))),
        (["fig3"], fig3_rows),
        (["compare-lo"], compare_lo_rows),
    ],
)
def test_default_sweep_csv_is_the_row_writer_output(capsys, argv, rows):
    assert_same_text(run_cli(capsys, argv), reference_rows_to_csv(rows()))


def test_compare_hi_csv_is_the_row_writer_output(capsys):
    scan = compare_hi_scan(2.0, 10000)
    want = reference_rows_to_csv(list(scan.rows), header_comments=(crossover_comment(scan),))
    assert_same_text(run_cli(capsys, ["compare-hi"]), want)


@pytest.mark.parametrize(
    "argv, rows",
    [(["fig1"], lambda: fig1_rows(5)), (["fig2"], fig2_rows), (["fig3"], fig3_rows)],
)
def test_sweep_json_is_the_dict_rows(capsys, argv, rows):
    assert_same_text(run_cli(capsys, argv + ["--format", "json"]), rows_to_json(rows()))


def test_compare_hi_json_lists_the_dict_rows(capsys):
    scan = compare_hi_scan(2.0, 10000)
    assert isinstance(scan.rows, tuple)
    doc = json.loads(run_cli(capsys, ["compare-hi", "--format", "json"]))
    assert doc == {"nu": 2.0, "k_max": 10000, "crossover_k": scan.crossover_k, "rows": list(scan.rows)}


@pytest.mark.parametrize(
    "table",
    [lambda: fig1_table(3, 0.5), lambda: fig2_table((0.0, 0.3), 5), lambda: fig3_table((2,), 0.25)],
)
def test_table_rows_follow_the_table_columns(table):
    table = table()
    rows = table_rows(table)
    assert [list(row) for row in rows] == [list(table)] * len(rows)
    columns = {name: column if isinstance(column, list) else column.tolist() for name, column in table.items()}
    assert {name: [row[name] for row in rows] for name in table} == columns


@pytest.mark.parametrize(
    "rows, kinds",
    [
        (lambda: fig1_rows(5), {float}),
        (lambda: fig2_rows((0.0, 0.3), 5), {float, type(None)}),
        (fig3_rows, {str, int, float}),
        (lambda: compare_hi_scan(2.0, 50).rows, {int, float, bool}),
    ],
    ids=["fig1", "fig2", "fig3", "compare-hi"],
)
def test_table_rows_hold_python_scalars(rows, kinds):
    # exact types: a numpy scalar here would reach json.dumps and the callers of the rows
    assert {type(cell) for row in rows() for cell in row.values()} == kinds


def mixed_rows(count: int) -> list:
    """Rows of every cell kind: mixed columns, single-type columns, numpy scalars, None."""
    mixed = [None, True, False, 3, -0.0, 1 / 3, 1e-320, math.inf, math.nan, "x"]
    mixed += [np.float64(0.5), np.int64(2), np.bool_(True)]
    return [
        {
            "mixed": mixed[i % len(mixed)],
            "f": i / 7,
            "i": i - 1000,
            "b": i % 3 == 0,
            "s": f"r{i}",
            "none": None,
            "np": np.float64(i / 3),
            "some_none": None if i % 2 else i / 9,
        }
        for i in range(count)
    ]


def array_columns(count: int) -> dict:
    """Array columns of each dtype the sweeps write, floats across every notation, and strided views."""
    i = np.arange(count)
    floats = (i - count / 2) / 7 * 10.0 ** (i % 48 - 24)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-4]
    for j in range(5, count, 11):
        floats[j] = specials[j // 11 % len(specials)]
    return {
        "f_arr": floats,
        "i_arr": i.astype(np.int64) - 1000,
        "b_arr": i % 3 == 0,
        "f_view": np.concatenate([floats, floats])[::2],
        "i_view": np.arange(2 * count, dtype=np.int64)[::-2],
    }


@pytest.mark.parametrize(
    "count", [1, 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 5]
)
@pytest.mark.parametrize("header", [(), ("crossover_k = 7", "second comment")])
def test_column_writer_matches_the_row_writer(count, header):
    rows = mixed_rows(count)
    table = {name: [row[name] for row in rows] for name in rows[0]}
    arrays = array_columns(count)
    table.update(arrays)
    for name, column in arrays.items():
        for row, value in zip(rows, column.tolist()):
            row[name] = value
    want = reference_rows_to_csv(rows, header_comments=header)
    assert_same_text(table_to_csv(table, header_comments=header), want)
    assert_same_text(rows_to_csv(rows, header_comments=header), want)


def test_rows_with_missing_and_extra_keys():
    rows = mixed_rows(5) + [{"f": 1.0, "extra": 2}]
    assert rows_to_csv(rows) == reference_rows_to_csv(rows)


@pytest.mark.parametrize("header", [(), ("crossover_k = none",)])
@pytest.mark.parametrize("table", [{}, {"a": [], "b": []}])
def test_empty_table_renders_its_comments_alone(table, header):
    want = reference_rows_to_csv([], header_comments=header)
    assert table_to_csv(table, header_comments=header) == want
    assert rows_to_csv([], header_comments=header) == want
    assert table_rows(table) == []


def test_empty_sweep_renders_nothing():
    assert fig2_rows(p_list=()) == []
    assert table_to_csv(fig2_table(p_list=())) == ""
    assert fig3_rows(k_list=()) == []
    assert table_to_csv(fig3_table(k_list=())) == ""


def test_numpy_scalars_take_their_python_cell_text():
    rows = [{"a": np.float64(0.5), "b": np.bool_(True), "c": np.bool_(False), "d": np.int64(2)}]
    assert rows_to_csv(rows) == "a,b,c,d\n0.5,true,false,2\n"


def assert_float_cells_are_repr(values: list):
    """The writer's CSV of one all-float column, as a list and as an array, has float.__repr__ in every cell."""
    want = "".join(f"{cell}\n" for cell in ["x", *map(float.__repr__, values)])
    assert_same_text(table_to_csv({"x": values}), want)
    assert_same_text(table_to_csv({"x": np.array(values)}), want)


# any 64-bit pattern: every finite double, subnormals, infinities and NaN payloads
doubles = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@given(st.lists(st.one_of(st.floats(), doubles), min_size=1, max_size=CSV_BLOCK_ROWS + 2))
def test_float_cells_are_float_repr(values):
    assert_float_cells_are_repr(values)


def neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@pytest.mark.parametrize(
    "values",
    [
        neighbours(1e-4) + neighbours(-1e-4),
        neighbours(1e16) + neighbours(-1e16),
        [2.0**53, 2.0**53 + 2, -(2.0**53)],
        [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max],
        [math.nan, math.inf, -math.inf, 1.0],
    ],
    ids=["1e-4", "1e16", "2**53", "zeros-and-extremes", "nonfinite"],
)
def test_float_cells_at_the_notation_edges(values):
    assert_float_cells_are_repr(values)
