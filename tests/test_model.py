"""Model validation, column marginals and posteriors, file loading, and argument domains."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from misbounds import (
    BadParamError,
    DeltaValue,
    EntropyValue,
    JointModel,
    MassNotOneError,
    MisboundsError,
    NegativeEntryError,
    ParseError,
    TooFewClassesError,
    TooLargeError,
    extremal_high_profile,
    extremal_low_profile,
    exponential_profile,
    exponential_profiles,
    fig1_rows,
    load_model,
    lower_bound,
    lower_fm,
    phi,
    simplex_grid_oracle,
    upper_bound,
    upper_bound_simpl,
    upper_fm,
    validate_joint,
    validate_profile,
)
from misbounds.entropy import _column_posteriors, entropy_columns
from misbounds.model import clamp, clamp_array, require_at_most, require_class_counts, require_classes
from misbounds.report import fig3_table
from misbounds.tv_bounds import envelope_columns

EXAMPLE = [[0.4, 0.1], [0.1, 0.4]]


class TestValidateJoint:
    def test_accepts_example_model(self):
        m = validate_joint(EXAMPLE)
        assert (m.k, m.n) == (2, 2)
        np.testing.assert_allclose(m.w, EXAMPLE)

    def test_single_class_rejected(self):
        with pytest.raises(TooFewClassesError):
            validate_joint([[1.0]])

    def test_mass_off_by_twenty_percent_rejected(self):
        with pytest.raises(MassNotOneError):
            validate_joint([[0.6, 0.6], [0.0, 0.0]])

    def test_negative_entry_rejected_with_location(self):
        with pytest.raises(NegativeEntryError, match="row 2, col 1"):
            validate_joint([[0.6, 0.5], [-0.1, 0.0]])

    def test_nan_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            validate_joint([[np.nan, 0.5], [0.25, 0.25]])

    def test_small_mass_drift_renormalized(self):
        # 1e-10 total drift is inside tolerance and comes out exactly unit
        raw = np.array(EXAMPLE) * (1.0 + 1e-10)
        m = validate_joint(raw)
        assert m.w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_validation_is_idempotent(self):
        m = validate_joint(EXAMPLE)
        again = validate_joint(m.w)
        assert np.array_equal(again.w, m.w)

    def test_result_is_read_only(self):
        m = validate_joint(EXAMPLE)
        with pytest.raises(ValueError):
            m.w[0, 0] = 0.9

    def test_zero_column_is_legal(self):
        m = validate_joint([[0.5, 0.0], [0.5, 0.0]])
        assert m.n == 2

    @pytest.mark.parametrize(
        "raw",
        [
            [[0.5, 0.25], [0.25]],
            "abc",
            [["0.5", "x"], ["0.5", "0"]],
            {"w": 1},
            [[10**400, 0], [0, 1]],
            # text and booleans, which float() would read as numbers
            [["0.5"], ["0.5"]],
            [[True], [False]],
            [[True, 0.5], [0.0, 0.5]],
            [[0.5, "0.25"], [0.25, 0]],
            [[np.bool_(True)], [0]],
            np.array([[True], [False]]),
            np.array([["0.5"], ["0.5"]]),
            np.array([[0.5, "0.5"]], dtype=object),
        ],
    )
    def test_entries_that_are_not_a_matrix_of_numbers_are_a_parse_error(self, raw):
        with pytest.raises(ParseError, match="expected numbers in a rectangular array"):
            validate_joint(raw)

    def test_integer_and_object_arrays_of_numbers_are_accepted(self):
        assert validate_joint(np.array([[0], [1]])).k == 2
        assert validate_joint(np.array([[0.5], [0.5]], dtype=object)).k == 2

    def test_missing_entry_prints_as_a_python_float(self):
        with pytest.raises(NegativeEntryError, match=r"^entry at row 1, col 1 is nan; entries must be >= 0$"):
            validate_joint([[None, 0.5], [0.25, 0.25]])


class TestValidateProfile:
    def test_accepts_and_wraps(self):
        p = validate_profile([0.5, 0.25, 0.25])
        assert p.k == 3

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntryError):
            validate_profile([1.1, -0.1])

    def test_rejects_bad_mass(self):
        with pytest.raises(MassNotOneError):
            validate_profile([0.5, 0.4])

    def test_single_class_rejected(self):
        with pytest.raises(TooFewClassesError):
            validate_profile([1.0])


# Every public entry that takes a class count, called at an otherwise legal point.
K_ENTRIES = {
    "DeltaValue": lambda k: DeltaValue(delta=0.0, k=k),
    "lower_bound": lambda k: lower_bound(k, 0.0),
    "upper_bound": lambda k: upper_bound(k, 0.0),
    "upper_bound_simpl": lambda k: upper_bound_simpl(k, 0.0),
    "extremal_low_profile": lambda k: extremal_low_profile(k, 0.0),
    "extremal_high_profile": lambda k: extremal_high_profile(k, 0.0),
    "simplex_grid_oracle": lambda k: simplex_grid_oracle(k, 1),
    "EntropyValue": lambda k: EntropyValue(h=0.0, k=k),
    "phi": lambda k: phi(k, 0.0),
    "lower_fm": lambda k: lower_fm(k, 0.0),
    "fig1_rows": lambda k: fig1_rows(k),
    "exponential_profile": lambda k: exponential_profile(k, 0.3),
    "exponential_profiles": lambda k: exponential_profiles(k, [0.3]),
    "envelope_columns": lambda k: envelope_columns(k, [0.0]),
    "entropy_columns": lambda k: entropy_columns(k, [0.0]),
    "fig3_table": lambda k: fig3_table([k], 0.5),
}


@pytest.mark.parametrize("k", [1, 0])
@pytest.mark.parametrize("entry", sorted(K_ENTRIES))
def test_every_k_entry_refuses_too_few_classes(entry, k):
    with pytest.raises(TooFewClassesError, match=f"need at least 2 classes, got k={k}"):
        K_ENTRIES[entry](k)
    K_ENTRIES[entry](2)  # the same call is legal with two classes


@pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("entry", sorted(K_ENTRIES))
def test_every_k_entry_refuses_a_non_integer_class_count(entry, k):
    with pytest.raises(BadParamError, match=f"^k={re.escape(repr(k))} must be an integer >= 2$"):
        K_ENTRIES[entry](k)


# The entries that take any exact class count, even one no grid or profile could hold.
UNSIZED_K_ENTRIES = (
    "DeltaValue",
    "EntropyValue",
    "entropy_columns",
    "envelope_columns",
    "lower_bound",
    "lower_fm",
    "phi",
    "upper_bound",
    "upper_bound_simpl",
)


@pytest.mark.parametrize("entry", UNSIZED_K_ENTRIES)
def test_class_counts_past_exact_doubles_are_refused(entry):
    # above 2**53 not every count is a double: at 2**1024 float(k) overflows,
    # and at 2**60 the bounds came out with wrong digits
    for k in (2**53 + 1, 2**1024):
        with pytest.raises(TooLargeError, match=f"^too many classes: {k}, over the limit of {2**53}$"):
            K_ENTRIES[entry](k)
    K_ENTRIES[entry](2**53)


def test_class_count_comes_back_a_python_int():
    for k in (3, np.int64(3), np.uint8(3)):
        assert type(require_classes(k)) is int and require_classes(k) == 3


@pytest.mark.parametrize("k", [np.array([3.0]), np.array([2.5, 4.0]), np.array([True, True]), np.float64(3.0)])
def test_class_count_column_refuses_what_the_scalar_guard_refuses(k):
    with pytest.raises(BadParamError, match=f"^k={re.escape(repr(k))} must be an integer >= 2$"):
        require_class_counts(k)
    with pytest.raises(BadParamError, match=f"^k={re.escape(repr(k))} must be an integer >= 2$"):
        require_classes(k)


def test_class_count_column_takes_integer_arrays_as_int64():
    for dtype in (np.int8, np.int64, np.uint8, np.uint64):
        counts = require_class_counts(np.array([2, 7, 100], dtype=dtype))
        assert counts.dtype == np.int64 and counts.tolist() == [2, 7, 100]
    assert require_class_counts(np.array([], dtype=np.int64)).shape == (0,)
    assert type(require_class_counts(np.int64(3))) is int
    with pytest.raises(TooFewClassesError, match="^need at least 2 classes, got k=1$"):
        require_class_counts(np.array([3, 1, 2]))
    assert require_class_counts(np.array([3, 2**53], dtype=np.uint64)).tolist() == [3, 2**53]
    with pytest.raises(TooLargeError, match=f"^too many classes: {2**53 + 1}, over the limit of {2**53}$"):
        require_class_counts(np.array([3, 2**53 + 1, 2]))
    # checked before the widening to int64, where a uint64 count from 2**63 on would wrap below 2
    with pytest.raises(TooLargeError, match=f"^too many classes: {2**63}, over the limit of {2**53}$"):
        require_class_counts(np.array([3, 2**63], dtype=np.uint64))
    # the scalar guard refuses an integer array: its callers need one count
    with pytest.raises(BadParamError):
        require_classes(np.array([3, 4]))


@pytest.mark.parametrize("count", [11, 10.5, math.nan, math.inf, 10**400])
def test_size_guard_refuses_past_the_limit_and_nan(count):
    with pytest.raises(TooLargeError, match=f"^too many rows: {re.escape(str(count))}, over the limit of 10$"):
        require_at_most(count, 10, "rows")
    require_at_most(10, 10, "rows")


class TestClamp:
    def test_slack_is_absorbed_onto_the_ends(self):
        assert clamp(-1e-13, 0.0, 1.0, 1e-12, ValueError, "x") == 0.0
        assert clamp(1.0 + 1e-13, 0.0, 1.0, 1e-12, ValueError, "x") == 1.0
        assert clamp(0.25, 0.0, 1.0, 1e-12, ValueError, "x") == 0.25

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.1, -1e-11])
    def test_nonfinite_and_far_values_raise_the_given_error(self, value):
        with pytest.raises(TooFewClassesError, match="x="):
            clamp(value, 0.0, 1.0, 1e-12, TooFewClassesError, "x")

    def test_array_form_clamps_each_entry_as_clamp_does(self):
        values = [-1e-13, 0.25, 1.0 + 1e-13, -0.0, 0.0, 1.0]
        got = clamp_array(np.array(values), 0.0, 1.0, 1e-12, ValueError, "x").tolist()
        assert got == [clamp(v, 0.0, 1.0, 1e-12, ValueError, "x") for v in values]
        assert math.copysign(1.0, got[3]) == -1.0  # as max(-0.0, 0.0) keeps -0.0
        hi = np.array([2.0, 1.0])
        got = clamp_array([2.0 + 1e-13, 0.5], 0.0, hi, 1e-12, ValueError, "x")
        assert got.tolist() == [2.0, 0.5]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.1, -1e-11])
    def test_array_form_raises_on_the_first_bad_entry(self, value):
        with pytest.raises(TooFewClassesError, match=f"^x={value!r} outside"):
            clamp_array([0.5, value, 2.0], 0.0, 1.0, 1e-12, TooFewClassesError, "x")


# Every public entry that takes one real argument x, at k classes, with the
# closed range its value must land in; profiles are checked entrywise.
X_ENTRIES = {
    "DeltaValue": (lambda k, x: DeltaValue(delta=x, k=k).delta, lambda k: (0.0, k - 1.0)),
    "EntropyValue": (lambda k, x: EntropyValue(h=x, k=k).h, lambda k: (0.0, math.log(k))),
    "lower_bound": (lower_bound, lambda k: (0.0, 1.0 - 1.0 / k)),
    "upper_bound": (upper_bound, lambda k: (0.0, 1.0 - 1.0 / k)),
    "upper_bound_simpl": (upper_bound_simpl, lambda k: (0.0, 1.0 - 1.0 / k)),
    "extremal_low_profile": (lambda k, x: extremal_low_profile(k, x).a, lambda k: (0.0, 1.0)),
    "extremal_high_profile": (lambda k, x: extremal_high_profile(k, x).a, lambda k: (0.0, 1.0)),
    "phi": (phi, lambda k: (0.0, math.log(k))),
    "lower_fm": (lower_fm, lambda k: (0.0, 1.0 - 1.0 / k)),
    "upper_fm": (lambda k, x: upper_fm(x), lambda k: (0.0, 1.0)),
}

# rounding of the closed forms at the ends of their ranges (phi(k, 1-1/k)
# exceeds ln k by an ulp)
RANGE_ROUNDING = 1e-14


@pytest.mark.parametrize("entry", sorted(X_ENTRIES))
@given(
    k=st.integers(min_value=2, max_value=50),
    x=st.floats()
    | st.floats(min_value=-1e-8, max_value=50.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324]),
)
def test_every_x_entry_returns_finite_in_range_or_a_typed_error(entry, k, x):
    call, bounds = X_ENTRIES[entry]
    try:
        value = np.asarray(call(k, x))
    except MisboundsError:
        return
    lo, hi = bounds(k)
    assert np.all(np.isfinite(value))
    assert np.all((lo - RANGE_ROUNDING <= value) & (value <= hi + RANGE_ROUNDING))


NOT_REAL = [None, True, np.True_, "0.5", b"0.5", [0.5], np.array(0.5), np.array([0.5]), np.array([0.5, 1.5]), 1j, pytest.param(10**400, id="10**400")]


# clamp reads a value that real refuses as NaN, so it is refused as NaN is, by name
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, *NOT_REAL], ids=repr)
@pytest.mark.parametrize("entry", sorted(X_ENTRIES))
def test_every_x_entry_refuses_nonfinite(entry, x):
    with pytest.raises(MisboundsError, match="="):
        X_ENTRIES[entry][0](3, x)


@pytest.mark.parametrize("x", [1, np.float64(0.5), np.int64(1), np.float32(0.25), Fraction(1, 2)], ids=repr)
def test_clamp_reads_a_real_number_as_a_python_float(x):
    got = clamp(x, 0.0, 2.0, 1e-12, ValueError, "x")
    assert type(got) is float
    assert got == float(x)


class TestMarginalPosterior:
    """The marginal and the posterior of each observation with mass, as the entropies read them."""

    def test_marginal_of_example(self):
        _, mu = _column_posteriors(validate_joint(EXAMPLE))
        np.testing.assert_allclose(mu, [0.5, 0.5])

    def test_marginal_sums_to_one_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k, n = int(rng.integers(2, 7)), int(rng.integers(1, 8))
            w = rng.random((k, n))
            _, mu = _column_posteriors(validate_joint(w / w.sum()))
            assert mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_posterior_of_example_column_one(self):
        ratio, _ = _column_posteriors(validate_joint(EXAMPLE))
        np.testing.assert_allclose(ratio[:, 0], [0.8, 0.2])

    def test_posterior_uniform_for_identical_rows(self):
        k, n = 4, 3
        ratio, _ = _column_posteriors(validate_joint(np.full((k, n), 1.0 / (k * n))))
        np.testing.assert_allclose(ratio, np.full((k, n), 0.25))

    def test_posterior_sums_to_one_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k, n = int(rng.integers(2, 7)), int(rng.integers(1, 8))
            w = rng.random((k, n))
            ratio, _ = _column_posteriors(validate_joint(w / w.sum()))
            np.testing.assert_allclose(ratio.sum(axis=0), np.ones(n), atol=1e-12)

    def test_posterior_refuses_zero_marginal(self):
        # the empty column gets no posterior, rather than 0/0
        ratio, mu = _column_posteriors(validate_joint([[0.5, 0.0], [0.5, 0.0]]))
        assert ratio.tolist() == [[0.5], [0.5]]
        assert mu.tolist() == [1.0]


class TestFileIO:
    def test_csv_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        w = rng.random((3, 4))
        m = validate_joint(w / w.sum())
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in m.w) + "\n")
        back = load_model(path)
        assert np.array_equal(back.w, m.w)

    def test_json_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(4)
        w = rng.random((4, 2))
        m = validate_joint(w / w.sum())
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"k": m.k, "n": m.n, "w": m.w.tolist()}))
        back = load_model(path)
        assert np.array_equal(back.w, m.w)

    def test_csv_parse_of_literal_text(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.4,0.1\n0.1,0.4\n")
        np.testing.assert_allclose(load_model(path).w, EXAMPLE)

    def test_csv_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# two classes\n\n0.4,0.1\n# middle note\n0.1,0.4\n")
        assert load_model(path).k == 2

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_model(path)

    def test_bad_cell_reports_row_and_col(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.4,0.1\n0.1,oops\n")
        with pytest.raises(ParseError) as info:
            load_model(path)
        assert info.value.row == 2
        assert info.value.col == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.4,0.1\n0.5\n")
        with pytest.raises(ParseError):
            load_model(path)

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"w": [[0.5, 0.25], [0.25]]}', ParseError),
            ('{"w": [[1%s, 0], [0, 1]]}' % ("0" * 400), ParseError),
            ('{"w": [[null, 0.5], [0.25, 0.25]]}', NegativeEntryError),
            ('{"w": 5, "k": 2}', ParseError),
            ('{"w": [0.5, 0.5], "n": 2}', ParseError),
            ('{"w": [[0.5], [0.5]], "k": 3}', ParseError),
            ('{"w": [[0.5], [0.5]], "n": 2}', ParseError),
            ('{"w": [[0.5], [0.5]], "k": 2.0}', ParseError),
            ('{"w": [[0.5], [0.5]], "n": true}', ParseError),
        ],
        ids=["ragged", "past-float-range", "null", "scalar-w", "vector-w", "k-differs", "n-differs", "k-float", "n-bool"],
    )
    def test_json_ragged_or_null_entries_refused(self, tmp_path, text, error):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_model(path)
        assert "np.float64" not in str(info.value)

    @pytest.mark.parametrize(
        "text", ['{"w": [["x", 0.5], [0.25, 0.25]]}', '{"w": [[0.5, 0.25], [0.25]]}', '{"w": [0.5, 0.5]}']
    )
    def test_json_parse_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: expected")):
            load_model(path)

    @pytest.mark.parametrize("field", ['"k": 2.0', '"n": true', '"k": 3'])
    def test_json_sizes_must_be_integers_matching_w(self, tmp_path, field):
        path = tmp_path / "m.json"
        path.write_text('{"w": [[0.5], [0.5]], %s}' % field)
        with pytest.raises(ParseError, match="'k' and 'n' must be integers that match 'w', which is 2 x 1"):
            load_model(path)

    def test_json_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"k": 3, "n": 2, "w": [[0.4, 0.1], [0.1, 0.4]]}')
        with pytest.raises(ParseError):
            load_model(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.csv")


class TestJointModelType:
    def test_direct_construction_freezes_array(self):
        w = np.array(EXAMPLE)
        m = JointModel(w=w)
        assert not m.w.flags.writeable
