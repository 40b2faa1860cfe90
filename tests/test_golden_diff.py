"""The cell comparison of golden_diff.py, on small CSV, JSON and text outputs."""

import math

from golden_diff import compare, describe

CSV = "# k = 3\ndelta,L,site\n0.5,0.1,a\n1.0,,b\n"


def test_identical_outputs_have_no_changed_column():
    assert compare(CSV, CSV) == {}
    assert compare('{"rows": [{"U": 0.5}]}', '{"rows": [{"U": 0.5}]}') == {}


def test_a_one_ulp_change_is_one_numeric_cell():
    new = CSV.replace("0.5,0.1,", f"0.5,{math.nextafter(0.1, 1)},")
    changed, non_numeric, max_abs, max_rel = compare(CSV, new)["L"]
    assert (changed, non_numeric) == (1, 0)
    assert max_abs == math.ulp(0.1)
    assert max_rel == math.ulp(0.1) / 0.1


def test_a_text_change_is_a_non_numeric_cell():
    assert compare(CSV, CSV.replace(",b", ",c")) == {"site": (1, 1, None, None)}
    assert compare(CSV, CSV.replace("# k = 3", "# k = 4")) == {"#": (1, 1, None, None)}
    old = '[{"suite": "oracle", "site": "L<=p*", "grids": [{"checked": 51}]}]'
    new = '[{"suite": "oracle", "site": "U<=U_simpl", "grids": [{"checked": 52}]}]'
    assert compare(old, new) == {"[].site": (1, 1, None, None), "[].grids[].checked": (1, 0, 1.0, 1 / 51)}


def test_an_empty_cell_that_becomes_a_number_is_non_numeric():
    assert compare(CSV, CSV.replace("1.0,,b", "1.0,0.25,b")) == {"L": (1, 1, None, None)}


def test_text_lines_compare_their_json_tails():
    old = 'oracle: PASS {"checked": 10, "violations": 0}\nall suites passed\n'
    new = 'oracle: PASS {"checked": 10, "violations": 3}\nsome suites failed\n'
    assert compare(old, new) == {"oracle: PASS.violations": (1, 0, 3.0, math.inf), "text": (1, 1, None, None)}


def test_describe_names_the_exit_code_and_stderr():
    old = {"stdout": CSV, "stderr": "", "exit": 0}
    new = {"stdout": "", "stderr": "error: k=1\n", "exit": 1}
    lines = describe(old, new)
    assert "  delta: 2 changed, 2 non-numeric" in lines
    assert lines[-3:] == ["  exit code: 0 -> 1", "  stderr:", "    +error: k=1"]
    assert describe(old, old) == []
