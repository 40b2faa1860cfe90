"""Bound reports, figure sweeps, comparison scans, and the CLI surface."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import misbounds
from misbounds import (
    BadParamError,
    BoundsReport,
    DomainWarning,
    InvariantViolationError,
    TooLargeError,
    binomial_profile,
    comp_hi_stats,
    compare_hi_scan,
    compare_lo_rows,
    conditional_entropy,
    d_lower_margin,
    entropy_of_profile,
    exponential_profile,
    fig1_rows,
    fig2_rows,
    fig3_rows,
    from_spec,
    lower_bound,
    run_verify,
    three_class_profile,
    upper_bound,
    upper_bound_simpl,
    upper_fm,
    validate_joint,
    validate_profile,
)
from misbounds import cli, entropy, report
from misbounds.cli import main
from misbounds.report import (
    _cell,
    _check_chain,
    _profile_columns,
    fig1_table,
    fig2_table,
    fig3_table,
    log10_or_none,
    random_model,
    rows_to_csv,
    rows_to_json,
    table_to_csv,
    verify_brute_force,
    verify_sandwich,
)

EXAMPLE = validate_joint([[0.4, 0.1], [0.1, 0.4]])

# a child interpreter imports the same misbounds as this one, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(misbounds.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}


class TestBoundsReport:
    def test_example_model_all_fields(self):
        rep = BoundsReport.from_model(EXAMPLE)
        assert rep.k == 2
        assert rep.delta == pytest.approx(0.6)
        assert rep.p_star == pytest.approx(0.2)
        assert rep.L == pytest.approx(0.2)
        assert rep.U == pytest.approx(0.2)
        assert rep.U_simpl == pytest.approx(2 / 7)
        assert rep.L_FM == pytest.approx(0.2, abs=1e-11)
        assert rep.U_FM == pytest.approx(0.36096404744368116, abs=1e-12)

    def test_uniform_model_collapses_everything(self):
        for k in (2, 4, 7):
            rep = BoundsReport.from_model(validate_joint(np.full((k, 3), 1 / (3 * k))))
            target = 1 - 1 / k
            for value in (rep.p_star, rep.L, rep.U, rep.U_simpl, rep.L_FM, rep.U_FM):
                assert value == pytest.approx(target, abs=1e-11)

    def test_separated_model_all_zero(self):
        rep = BoundsReport.from_model(validate_joint(np.eye(3) / 3))
        for value in (rep.p_star, rep.L, rep.U, rep.U_simpl, rep.L_FM, rep.U_FM):
            assert value == pytest.approx(0.0, abs=1e-11)

    def test_profile_and_model_routes_agree(self):
        # 600 family profiles and 2,000 flat Dirichlet ones; a profile taken
        # as one column of unit mass, not divided by its float sum, differed
        # from its model on 748 of them
        qs = np.linspace(0.005, 0.5, 100).tolist()
        sample = [validate_profile([0.55, 0.25, 0.2])]
        sample += [exponential_profile(k, q) for k in (2, 4, 8) for q in qs]
        sample += [binomial_profile(m, q) for m in (1, 2, 3) for q in qs]
        rng = np.random.default_rng(0)
        sample += [validate_profile(rng.dirichlet(np.ones(int(rng.integers(2, 9))))) for _ in range(2000)]
        for profile in sample:
            model = profile.as_model()
            from_model = BoundsReport.from_model(model)
            assert dataclasses.astuple(BoundsReport.from_profile(profile)) == dataclasses.astuple(from_model)
            assert entropy_of_profile(profile).h == conditional_entropy(model).h

    def test_entropy_lower_bound_holds_in_the_far_tail(self):
        # p* ~ 1e-15 lies far below any absolute tolerance on the inverse
        rep = BoundsReport.from_model(validate_joint([[0.5 - 1e-15, 0.5], [1e-15, 0.0]]))
        assert 0.0 < rep.L_FM <= rep.p_star
        # the two-class exponential profile has Bayes error exactly q
        for q in (1e-13, 1e-200):
            rep = BoundsReport.from_profile(exponential_profile(2, q))
            assert 0.0 < rep.L_FM <= q

    def test_p_star_exact_in_the_far_tail(self):
        # 1 - max(a) or 1 - sum of column maxima cancels a tiny p* away
        for q in (1e-13, 1e-200):
            rep = BoundsReport.from_profile(exponential_profile(2, q))
            assert rep.p_star == pytest.approx(q, rel=1e-15, abs=0.0)
        rep = BoundsReport.from_model(validate_joint([[0.5 - 1e-15, 0.5], [1e-15, 0.0]]))
        assert rep.p_star == 1e-15

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(InvariantViolationError):
            BoundsReport(
                k=2,
                delta=0.6,
                entropy_nats=0.5,
                p_star=0.4,  # above U
                L=0.2,
                U=0.2,
                U_simpl=2 / 7,
                L_FM=0.2,
                U_FM=0.36,
            )

    @pytest.mark.parametrize(
        "link, field, value",
        [
            ("L<=p*", "L", 0.7),
            ("p*<=U", "U", 0.1),
            ("U<=U_simpl", "U_simpl", 0.15),
            ("L_FM<=p*", "L_FM", 0.7),
            ("p*<=U_FM", "U_FM", 0.1),
        ],
    )
    def test_broken_link_is_named(self, link, field, value):
        rep = BoundsReport.from_model(EXAMPLE)
        with pytest.raises(InvariantViolationError, match=re.escape(f"{link} violated")):
            dataclasses.replace(rep, **{field: value})

    def test_dict_includes_log_columns(self):
        doc = BoundsReport.from_model(EXAMPLE).as_dict()
        assert doc["log10_p_star"] == pytest.approx(math.log10(0.2))
        assert doc["log10_U_FM"] == pytest.approx(math.log10(doc["U_FM"]))

    def test_zero_bounds_render_as_missing_logs(self):
        doc = BoundsReport.from_model(validate_joint(np.eye(2) / 2)).as_dict()
        assert doc["log10_p_star"] is None
        assert doc["log10_L"] is None


class TestFig1:
    def test_k5_endpoints(self):
        rows = fig1_rows(5)
        assert rows[0]["delta"] == 0.0
        for col in ("L", "U", "U_simpl"):
            assert rows[0][col] == pytest.approx(0.8, abs=1e-14)
        assert rows[-1]["delta"] == pytest.approx(4.0)
        for col in ("L", "U", "U_simpl"):
            assert rows[-1][col] == pytest.approx(0.0, abs=1e-12)

    def test_k5_integer_nodes_tie(self):
        for row in fig1_rows(5):
            if abs(row["delta"] - round(row["delta"])) < 1e-9:
                assert row["U"] == pytest.approx(row["U_simpl"], abs=1e-12)

    def test_columns_nonincreasing(self):
        rows = fig1_rows(4)
        for col in ("L", "U", "U_simpl"):
            vals = [r[col] for r in rows]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_u_piecewise_linear(self):
        rows = fig1_rows(5)
        deltas = np.array([r["delta"] for r in rows])
        u = np.array([r["U"] for r in rows])
        inside = (np.ceil(deltas[:-2] - 1e-9) == np.ceil(deltas[2:] - 1e-9)) & (
            np.abs(deltas[1:-1] - np.round(deltas[1:-1])) > 1e-6
        )
        second = u[:-2] - 2 * u[1:-1] + u[2:]
        assert np.all(np.abs(second[inside]) <= 1e-10)

    def test_row_count_and_step(self):
        rows = fig1_rows(3, delta_step=0.5)
        assert [r["delta"] for r in rows] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.1])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(BadParamError):
            fig1_rows(3, delta_step=step)


class TestFig2:
    def test_default_p_set(self):
        rows = fig2_rows()
        assert {r["p"] for r in rows} == {0.01, 0.1, 0.3, 0.5, 0.6, 0.64}

    def test_eps_ranges_respected(self):
        for row in fig2_rows():
            p = row["p"]
            assert max(2 * p - 1, 0) - 1e-12 <= row["eps"] <= p / 2 + 1e-12

    def test_endpoint_collapse_single_row(self):
        rows = fig2_rows(p_list=(2 / 3,))
        assert len(rows) == 1
        assert rows[0]["eps"] == pytest.approx(1 / 3)

    def test_log_p_star_column_constant_per_p(self):
        rows = fig2_rows(p_list=(0.3,), points=11)
        logs = {round(r["log10_p_star"], 12) for r in rows}
        assert logs == {round(math.log10(0.3), 12)}

    def test_three_class_bound_ordering_holds(self):
        for row in fig2_rows(p_list=(0.1, 0.5), points=17):
            if row["log10_L"] is not None:
                assert row["log10_L"] <= row["log10_p_star"] + 1e-9
            assert row["log10_p_star"] <= row["log10_U"] + 1e-9


class TestFig3:
    def test_k2_identity_columns(self):
        rows = [r for r in fig3_rows(k_list=(2,), q_step=0.01) if r["k"] == 2]
        assert rows
        for row in rows:
            assert row["L"] == pytest.approx(row["p_star"], abs=1e-11)
            assert row["U"] == pytest.approx(row["p_star"], abs=1e-11)
            assert row["L_FM"] == pytest.approx(row["p_star"], abs=1e-11)

    def test_k2_families_coincide(self):
        rows = fig3_rows(k_list=(2,), q_step=0.05)
        binom = [r for r in rows if r["family"] == "binomial"]
        expo = [r for r in rows if r["family"] == "exponential"]
        for rb, re_ in zip(binom, expo):
            assert rb["q"] == re_["q"]
            for col in ("delta", "entropy_nats", "p_star", "L", "U", "U_simpl", "L_FM", "U_FM"):
                assert rb[col] == pytest.approx(re_[col], abs=1e-12)

    def test_uniform_right_endpoint(self):
        rows = [r for r in fig3_rows(k_list=(4,), q_step=0.25) if r["q"] == 0.5]
        for row in rows:
            assert row["p_star"] == pytest.approx(0.75, abs=1e-12)
            assert row["U"] == pytest.approx(0.75, abs=1e-12)

    def test_binomial_m2_known_point(self):
        rows = [
            r
            for r in fig3_rows(k_list=(4,), q_step=0.1)
            if r["family"] == "binomial" and abs(r["q"] - 0.2) < 1e-12
        ]
        assert rows[0]["p_star"] == pytest.approx(0.36, abs=1e-12)

    def test_binomial_requires_power_of_two(self):
        with pytest.raises(BadParamError):
            fig3_rows(k_list=(3,), q_step=0.1)


class TestCompareLo:
    def test_all_margins_positive_to_k50(self):
        rows = compare_lo_rows(k_max=50)
        assert rows
        assert all(r["d"] > 0 for r in rows)

    def test_scaled_margin_at_k6(self):
        rows = [r for r in compare_lo_rows(k_max=6) if r["k"] == 6 and r["ell"] == 3]
        assert rows[0]["k_times_d"] == pytest.approx(0.446, abs=1e-3)

    def test_scaled_margin_tends_to_limit(self):
        limit = 6 - 8 * math.log(2)
        assert 10**4 * d_lower_margin(10**4, 10**4 - 3) == pytest.approx(limit, abs=2e-3)

    def test_ell_equals_k_has_zero_margin(self):
        for k in (4, 9, 25):
            assert d_lower_margin(k, k) == pytest.approx(0.0, abs=1e-12)

    def test_k4_coincidence_of_margins(self):
        # d_4(2) and d_4(3) are the same number, ln 2 - ln(3)/2
        assert d_lower_margin(4, 2) == pytest.approx(d_lower_margin(4, 3), abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(BadParamError):
            compare_lo_rows(k_max=2)

    @pytest.mark.parametrize("k_min, k_max", [(3, 3), (3, 50), (4, 12), (7, 8), (10, 30)])
    def test_row_limit_counts_the_rows_exactly(self, monkeypatch, k_min, k_max):
        count = len(compare_lo_rows(k_max=k_max, k_min=k_min))
        monkeypatch.setattr(report, "SIZE_LIMIT", count)
        assert len(compare_lo_rows(k_max=k_max, k_min=k_min)) == count
        monkeypatch.setattr(report, "SIZE_LIMIT", count - 1)
        with pytest.raises(TooLargeError):
            compare_lo_rows(k_max=k_max, k_min=k_min)


class TestCompareHi:
    def test_crossover_found_at_seven_for_nu_two(self):
        scan = compare_hi_scan(2.0, 40)
        assert scan.crossover_k == 7

    def test_u_floor_for_nu_two(self):
        scan = compare_hi_scan(2.0, 60)
        assert all(r["U"] >= 0.5 - 1e-12 for r in scan.rows)

    def test_u_fm_decays(self):
        scan = compare_hi_scan(2.0, 2000)
        assert scan.rows[-1]["U_FM"] < 0.05

    def test_rows_cover_expected_k_range(self):
        scan = compare_hi_scan(2.5, 10)
        assert [r["k"] for r in scan.rows] == [3, 4, 5, 6, 7, 8, 9, 10]

    def test_scans_compare_by_their_parameters(self):
        # the table holds numpy arrays, which == cannot reduce to one truth value
        assert compare_hi_scan(2.0, 50) == compare_hi_scan(2.0, 50)
        assert compare_hi_scan(2.0, 50) != compare_hi_scan(2.0, 51)

    def test_validation(self):
        with pytest.raises(BadParamError):
            compare_hi_scan(1.0, 100)
        with pytest.raises(BadParamError):
            compare_hi_scan(5.0, 4)

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_nonfinite_nu_refused(self, nu):
        with pytest.raises(BadParamError):
            compare_hi_scan(nu, 10)

    def test_nu_from_two_to_the_53_is_refused_by_name(self):
        # from 2**53 on, k = nu + 1 rounds to nu as a double: nu is refused, not the class counts
        with pytest.raises(BadParamError, match=r"^nu=9007199254740992\.0 must exceed 1 and lie below 2\*\*53$"):
            compare_hi_scan(2.0**53, 2**53 + 4)
        scan = compare_hi_scan(2.0**53 - 1.0, 2**53)
        assert [(row["k"], row["delta"]) for row in scan.rows] == [(2**53, 1.0)]

    def test_class_counts_above_two_to_the_53_are_refused_by_name(self):
        # above 2**53 not every class count is a double, so delta = k - nu would be rounded
        with pytest.raises(BadParamError, match=r"^k_max=9007199254740996 must be at most 2\*\*53$"):
            compare_hi_scan(2.0**53 - 1.0, 2**53 + 4)


def assert_cells_close(got: dict, want: dict):
    """Same keys in order, cells of the same type, floats within 1e-13 relative or 1e-15 absolute."""
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        if isinstance(value, float):
            assert abs(got[key] - value) <= max(1e-13 * abs(value), 1e-15), key
        else:
            assert got[key] == value, key


def assert_cells_identical(got: dict, want: dict):
    """Same keys in order, cells of the same type, floats equal bit for bit."""
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        if isinstance(value, float):
            assert got[key].hex() == value.hex(), key
        else:
            assert got[key] == value, key


FIG3_FIELDS = ("delta", "entropy_nats", "p_star", "L", "U", "U_simpl", "L_FM", "U_FM")


class TestSweepsMatchTheScalarPath:
    def test_fig1_rows_are_the_scalar_envelopes(self):
        for row in fig1_rows(5):
            d = row["delta"]
            assert row == {
                "delta": d,
                "L": lower_bound(5, d),
                "U": upper_bound(5, d),
                "U_simpl": upper_bound_simpl(5, d),
            }

    def test_fig2_rows_match_from_profile(self):
        for row in fig2_rows():
            rep = BoundsReport.from_profile(three_class_profile(row["p"], row["eps"]))
            want = {"p": row["p"], "eps": row["eps"]}
            for name in ("L", "U", "U_simpl", "L_FM", "U_FM", "p_star"):
                want[f"log10_{name}"] = log10_or_none(getattr(rep, name))
            assert_cells_close(row, want)

    def test_fig3_rows_match_from_profile(self):
        for row in fig3_rows():
            k, q = row["k"], row["q"]
            if row["family"] == "binomial":
                profile = binomial_profile(int(round(math.log2(k))), q)
            else:
                profile = exponential_profile(k, q)
            rep = BoundsReport.from_profile(profile)
            want = {"family": row["family"], "k": k, "q": q}
            want.update((name, getattr(rep, name)) for name in FIG3_FIELDS)
            assert_cells_close(row, want)

    def test_fig2_rows_equal_from_profile_bit_for_bit(self):
        rows = fig2_rows()
        assert len(rows) == 606
        for row in rows:
            profile = three_class_profile(row["p"], row["eps"])
            for rep in (BoundsReport.from_profile(profile), BoundsReport.from_model(profile.as_model())):
                want = {"p": row["p"], "eps": row["eps"]}
                for name in ("L", "U", "U_simpl", "L_FM", "U_FM", "p_star"):
                    want[f"log10_{name}"] = log10_or_none(getattr(rep, name))
                assert_cells_identical(row, want)

    def test_fig3_rows_equal_from_profile_bit_for_bit(self):
        rows = fig3_rows()
        assert len(rows) == 600
        for row in rows:
            k, q = row["k"], row["q"]
            if row["family"] == "binomial":
                profile = binomial_profile(int(round(math.log2(k))), q)
            else:
                profile = exponential_profile(k, q)
            for rep in (BoundsReport.from_profile(profile), BoundsReport.from_model(profile.as_model())):
                want = {"family": row["family"], "k": k, "q": q}
                want.update((name, getattr(rep, name)) for name in FIG3_FIELDS)
                assert_cells_identical(row, want)

    def test_sweeps_never_call_the_scalar_inverse(self, monkeypatch):
        def refuse(k, h):
            raise AssertionError("a sweep called the scalar inverse")

        # a sweep that maps the scalar entry point over its rows is about twice as slow
        monkeypatch.setattr(report, "_lower_fm", refuse)
        monkeypatch.setattr(entropy, "_lower_fm", refuse)
        assert len(fig2_table()["p"]) == 606
        assert len(fig3_table()["q"]) == 600

    def test_single_reports_never_call_the_column_inverse(self, monkeypatch):
        def refuse(k, h):
            raise AssertionError("a single report called _lower_fm_column")

        monkeypatch.setattr(entropy, "_lower_fm_column", refuse)
        monkeypatch.setattr(report, "_lower_fm_column", refuse)
        assert BoundsReport.from_model(EXAMPLE).L_FM > 0.0
        assert BoundsReport.from_profile(exponential_profile(8, 0.3)).L_FM > 0.0

    def test_compare_hi_rows_match_the_scalar_bounds(self):
        scan = compare_hi_scan(2.0, 10000)
        for row in scan.rows:
            stats = comp_hi_stats(row["k"], 2.0)
            U = upper_bound(row["k"], stats["delta"])
            U_fm = upper_fm(stats["entropy_nats"])
            want = {
                "k": row["k"],
                "delta": stats["delta"],
                "entropy_nats": stats["entropy_nats"],
                "U": U,
                "U_FM": U_fm,
                "U_exceeds_U_FM": U > U_fm,
            }
            assert_cells_close(row, want)

    def test_every_cell_is_a_python_scalar(self):
        rows = fig1_rows(5) + fig2_rows() + fig3_rows() + list(compare_hi_scan(2.0, 10000).rows)
        kinds = {type(value) for row in rows for value in row.values()}
        assert kinds <= {float, int, bool, str, type(None)}

    @pytest.mark.parametrize(
        "link, field, shift",
        [
            ("L<=p*", "L", 0.5),
            ("p*<=U", "U", -0.5),
            ("U<=U_simpl", "U_simpl", -0.5),
            ("L_FM<=p*", "L_FM", 0.5),
            ("p*<=U_FM", "U_FM", -0.5),
        ],
    )
    def test_doctored_column_names_its_link_and_row(self, link, field, shift):
        profiles = np.stack([three_class_profile(0.3, eps).a for eps in (0.01, 0.05, 0.1)])
        columns = _profile_columns(3, profiles)
        columns[field] = columns[field] + np.array([0.0, shift, 0.0])
        pattern = re.escape(f"{link} violated by") + ".* at row 1$"
        with pytest.raises(InvariantViolationError, match=pattern):
            _check_chain(columns)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: fig1_rows(3, 1e-9),
        lambda: fig3_rows(q_step=1e-12),
        lambda: compare_hi_scan(2.0, 10**12),
        lambda: fig2_rows(points=10**8),
        lambda: fig3_rows(k_list=(2,) * 1000, q_step=5e-5),
        lambda: compare_lo_rows(k_max=10**9),
    ],
)
def test_oversized_grid_refused_before_allocating(sweep):
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: fig1_table(2.5), "k"),
        (lambda: fig3_table((2.7,)), "k"),
        (lambda: fig2_table(points=2.5), "points"),
        (lambda: compare_lo_rows(10.5), "k_max"),
        (lambda: compare_hi_scan(2.0, 10.5), "k_max"),
        (lambda: verify_sandwich(2.5), "count"),
        (lambda: verify_sandwich(True), "count"),
        (lambda: verify_brute_force(2.5), "count"),
    ],
)
def test_non_integer_parameter_refused_by_name(call, name):
    with pytest.raises(BadParamError, match=f"^{name}=.* must be an integer >= "):
        call()


class TestVerifySuites:
    def test_default_suites_all_pass(self):
        results = run_verify(seed=0, sandwich_count=500, brute_count=50)
        assert [r["suite"] for r in results] == [
            "sandwich",
            "oracle",
            "extremal",
            "brute_force",
            "counterexample",
        ]
        assert all(r["ok"] for r in results)

    def test_seed_reproducibility(self):
        a = run_verify(suites=("sandwich",), seed=42, sandwich_count=200)
        b = run_verify(suites=("sandwich",), seed=42, sandwich_count=200)
        assert a == b

    def test_unknown_suite_rejected(self):
        with pytest.raises(BadParamError):
            run_verify(suites=("nonsense",))

    def test_sandwich_worst_is_the_least_report_slack(self):
        # rebuild the suite's models from the same seed and draw order
        rng = np.random.default_rng(42)
        slacks = []
        for _ in range(200):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(1, 7))
            slacks += BoundsReport.from_model(random_model(rng, k, n)).slacks
        site, slack = min(slacks, key=lambda pair: pair[1])
        result = verify_sandwich(count=200, seed=42)
        assert (result["worst_slack"], result["worst_site"]) == (slack, site)

    def test_sandwich_failure_names_its_model(self, monkeypatch, capsys):
        # seed 3 draws k = 7, n = 1 first; L_FM = 1 breaks its chain at once
        monkeypatch.setattr(report, "_lower_fm", lambda k, h: 1.0)
        message = r"sandwich seed 3, model 0 \(k=7, n=1\): L_FM<=p\* violated by "
        with pytest.raises(InvariantViolationError, match=f"^{message}"):
            verify_sandwich(count=5, seed=3)
        assert main(["verify", "--suite", "sandwich", "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(f"verification failure: {message}[^\n]*\n$", captured.err)

    @pytest.mark.parametrize("suite", [verify_sandwich, verify_brute_force])
    @pytest.mark.parametrize("count", [0, -5])
    def test_count_below_one_rejected(self, suite, count):
        with pytest.raises(BadParamError):
            suite(count=count)

    @pytest.mark.parametrize("suite", [verify_sandwich, verify_brute_force])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_that_is_not_a_nonnegative_integer_rejected_by_name(self, suite, seed):
        with pytest.raises(BadParamError, match=f"^seed={re.escape(repr(seed))} must be an integer >= 0$"):
            suite(2, seed)


class TestSerialization:
    def test_csv_shape_and_empty_cells(self):
        text = rows_to_csv([{"a": 1.5, "b": None, "c": True}, {"a": 0.25, "b": 2.0, "c": False}])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,c"
        assert lines[1] == "1.5,,true"
        assert lines[2] == "0.25,2.0,false"

    def test_csv_full_float_precision(self):
        text = rows_to_csv([{"x": 1 / 3}])
        assert "0.3333333333333333" in text

    def test_csv_is_the_cell_text_of_every_cell(self):
        # mixed columns, one column of each single type, float and int subclasses,
        # missing keys, and more rows than one formatting block
        mixed = [None, True, False, 3, -0.0, 1 / 3, 1e-320, math.inf, "x"]
        mixed += [np.float64(0.5), np.int64(2)]
        rows = [
            {
                "mixed": mixed[i % len(mixed)],
                "f": i / 7,
                "i": i - 1000,
                "b": i % 3 == 0,
                "s": f"r{i}",
                "none": None,
                "np": np.float64(i / 3),
            }
            for i in range(2500)
        ]
        rows.append({"f": 1.0, "extra": 2})
        header = ("crossover_k = 7",)
        lines = ["# crossover_k = 7", ",".join(rows[0])]
        lines += [",".join(_cell(row.get(col)) for col in rows[0]) for row in rows]
        assert rows_to_csv(rows, header_comments=header) == "\n".join(lines) + "\n"

    def test_json_round_trip(self):
        rows = [{"a": 0.1, "b": None}]
        assert json.loads(rows_to_json(rows)) == rows


class TestCli:
    def test_report_json_on_model_file(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("0.4,0.1\n0.1,0.4\n")
        assert main(["report", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_star"] == pytest.approx(0.2)
        assert doc["U_FM"] == pytest.approx(0.36096404744368116)

    def test_report_family_spec(self, capsys):
        spec = json.dumps({"family": "exponential", "k": 3, "q": 1 / 3})
        assert main(["report", "--family", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_star"] == pytest.approx(3 / 7, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_family_prints_what_report_prints_on_its_entries_as_a_csv(self, fmt, tmp_path, capsys):
        spec = {"family": "binomial", "m": 3, "q": 0.2}
        path = tmp_path / "profile.csv"
        path.write_text("".join(f"{a!r}\n" for a in from_spec(spec).a.tolist()))
        assert main(["report", "--family", json.dumps(spec), "--format", fmt]) == 0
        from_family = capsys.readouterr()
        assert main(["report", str(path), "--format", fmt]) == 0
        assert capsys.readouterr() == from_family

    def test_report_near_deterministic_family_keeps_upper_fm_above(self, capsys):
        for q in (2e-11, 1e-12):
            spec = json.dumps({"family": "exponential", "k": 2, "q": q})
            assert main(["report", "--family", spec]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["U_FM"] > 0.0
            assert doc["U_FM"] >= doc["p_star"]

    def test_report_domain_warning_is_one_line_on_stderr(self, capsys):
        spec = {"family": "comp_lo", "k": 10, "ell": 3}
        assert main(["report", "--family", json.dumps(spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: ell=3 is outside the guaranteed set for k=10; "
            "the profile is valid but the lower-bound advantage is unproven\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainWarning)
            rep = BoundsReport.from_profile(from_spec(spec))
        assert captured.out == json.dumps(rep.as_dict(), indent=2) + "\n"

    def test_report_large_profile_stays_linear_in_memory(self, tmp_path):
        # a k x k temporary at k = 20000 would take 3.2 GB
        spec = json.dumps({"family": "exponential", "k": 20000, "q": 0.3})
        with open(tmp_path / "out.json", "w+") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "misbounds.cli", "report", "--family", spec],
                stdout=out,
                env=CHILD_ENV,
            )
            # wait4 gives the peak RSS of this child alone
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            doc = json.load(out)
        assert proc.returncode == 0
        assert usage.ru_maxrss < 200 * 1024  # kilobytes on Linux
        assert doc["delta"] == pytest.approx(19997.5, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            '{"family": "exponential", "k": 3, "q": 0.3, "m": 5}',
            '{"family": "three_class", "p": 0.3}',
            '{"family": "exponential", "k": 3.9, "q": 0.3}',
            '{"family": "exponential", "k": [3], "q": 0.3}',
            '{"family": "three_class", "p": 0.3, "eps": null}',
            '{"family": "pure", "a": [0.5, 0.5], "weights": [NaN, 1.0], "perms": [[1, 2], [2, 1]]}',
            '{"family": "binomial", "m": true, "q": 0.3}',
            '{"family": "comp_hi", "k": 100000000000000000000, "nu": 2}',
        ],
    )
    def test_report_malformed_family_exits_one(self, spec, capsys):
        assert main(["report", "--family", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "argv", [["compare-hi", "--nu", "inf", "--k", "10"], ["fig1", "--delta-step", "nan"]]
    )
    def test_nonfinite_flag_exits_one(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_compare_hi_past_int64_names_nu(self, capsys):
        # class counts past int64 come out of np.arange as floats; nu is refused before any is made
        assert main(["compare-hi", "--nu", "1e19", "--k", "10000000000000000001"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nu=1e+19 must exceed 1 and lie below 2**53\n"

    def test_compare_hi_above_two_to_the_53_names_k_max(self, capsys):
        # k = 2**53 + 1 and 2**53 + 3 are not doubles, and their delta came out 1.0 and 5.0, not 2 and 4
        assert main(["compare-hi", "--nu", "9007199254740991", "--k", "9007199254740996"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k_max=9007199254740996 must be at most 2**53\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--delta-step", "1e-320"],
            ["fig3", "--q-step", "1e-12"],
            ["compare-hi", "--k", "1000000000000"],
            ["compare-lo", "--k", "1000000000"],
            ["compare-lo", "--k", "1" + "0" * 400],
            ["compare-hi", "--k", "1" + "0" * 400],
            ["fig1", "--k", "1" + "0" * 400],
        ],
    )
    def test_oversized_grid_exits_one(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_second_call_sees_its_own_defaults(self, capsys):
        assert main(["fig3", "--k", "2"]) == 0
        narrow = capsys.readouterr().out
        assert main(["fig3"]) == 0
        assert capsys.readouterr().out == table_to_csv(fig3_table()) != narrow
        assert main(["fig2", "--p", "0.3"]) == 0
        capsys.readouterr()
        assert main(["fig2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == fig2_rows()

    def test_parser_is_built_once(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert main(["compare-lo", "--k", "5"]) == 0
        assert capsys.readouterr().out.startswith("k,ell,d,")

    @pytest.mark.parametrize("text", ['{"w": 5, "k": 2}', '{"w": [0.5, 0.5], "n": 2}'])
    def test_report_malformed_json_model_exits_one(self, tmp_path, text, capsys):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_report_requires_exactly_one_input(self, capsys):
        assert main(["report"]) == 1

    def test_report_invalid_model_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.9,0.9\n0.1,0.1\n")
        assert main(["report", str(path)]) == 1

    def test_fig1_csv_to_file(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--k", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "delta,L,U,U_simpl"
        assert len(lines) == 402

    @pytest.mark.parametrize("out", ["missing/fig1.csv", "."], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_one(self, tmp_path, out, capsys):
        assert main(["fig1", "--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_fig1_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig1", "--k", "4", "--out", str(a)])
        main(["fig1", "--k", "4", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_fig2_json(self, capsys):
        assert main(["fig2", "--p", "0.3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["p"] == 0.3 for r in rows)

    def test_fig3_csv(self, capsys):
        assert main(["fig3", "--k", "2", "--q-step", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("family,k,q,")

    def test_compare_lo(self, capsys):
        assert main(["compare-lo", "--k", "10"]) == 0
        assert "k_times_d_limit" in capsys.readouterr().out

    def test_compare_hi_reports_crossover(self, capsys):
        assert main(["compare-hi", "--nu", "2.0", "--k", "50"]) == 0
        assert "# crossover_k = 7" in capsys.readouterr().out

    def test_verify_passes(self, capsys):
        code = main(
            ["verify", "--suite", "extremal", "counterexample", "--seed", "1"]
        )
        assert code == 0
        assert "all suites passed" in capsys.readouterr().out

    def test_verify_json_format(self, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "brute_force",
                "--brute-count",
                "20",
                "--format",
                "json",
            ]
        )
        assert code == 0
        results = json.loads(capsys.readouterr().out)
        assert results[0]["ok"] is True

    def test_verify_formats_are_text_and_json(self, capsys):
        argv = ["verify", "--suite", "extremal", "--seed", "1"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out == text
        assert text.endswith("all suites passed\n")
        # verify writes no CSV, so it does not offer it
        with pytest.raises(SystemExit) as refused:
            main(argv + ["--format", "csv"])
        assert refused.value.code == 2
        assert "invalid choice: 'csv' (choose from 'text', 'json')" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["sandwich", "brute_force"])
    def test_verify_negative_seed_exits_one_naming_the_seed(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed=-1 must be an integer >= 0\n"

    def test_verify_count_below_one_exits_one(self, capsys):
        argv = ["verify", "--suite", "sandwich", "brute_force", "--sandwich-count", "0"]
        assert main(argv + ["--brute-count", "-5", "--format", "json"]) == 1
        assert capsys.readouterr().out == ""

    def test_console_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "misbounds.cli", "fig1", "--k", "3"],
            capture_output=True,
            env=CHILD_ENV,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("delta,L,U,U_simpl")

    def test_import_leaves_orjson_unloaded(self):
        # only CSV output loads orjson; the API alone never needs it
        code = "import sys, misbounds, misbounds.cli; print('orjson' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=CHILD_ENV, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "False\n"

    def test_package_runs_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "misbounds", "fig1", "--k", "3"],
            capture_output=True,
            env=CHILD_ENV,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == rows_to_csv(fig1_rows(3))
