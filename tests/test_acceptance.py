"""Acceptance gate: nine binding criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line;
without -s the lines still print into pytest's captured output.
"""

import math
import time

import numpy as np

from misbounds import (
    BoundsReport,
    bayes_error,
    binomial_profile,
    brute_force_bayes_error,
    d_lower_margin,
    delta_of_profile,
    entropy_of_profile,
    ep_counterexample_check,
    extremal_high_profile,
    extremal_low_profile,
    fig1_rows,
    fig3_rows,
    lower_bound,
    lower_fm,
    phi,
    simplex_grid_oracle,
    upper_bound,
    upper_bound_simpl,
    upper_fm,
    validate_joint,
)


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_1_sandwich_suite_on_random_models():
    """Both bound chains hold on 10^5 random models inside 60 seconds."""
    count = 100_000
    rng = np.random.default_rng(2024)
    pairs = [(k, n) for k in range(2, 9) for n in range(1, 7)]
    worst = math.inf
    start = time.perf_counter()
    for i in range(count):
        k, n = pairs[i % len(pairs)]
        w = rng.random((k, n))
        rep = BoundsReport.from_model(validate_joint(w / w.sum()))
        worst = min(
            worst,
            rep.p_star - rep.L,
            rep.U - rep.p_star,
            rep.U_simpl - rep.U,
            rep.p_star - rep.L_FM,
            rep.U_FM - rep.p_star,
        )
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-11 and elapsed <= 60.0
    _verdict(1, "sandwich suite 1e5 models", ok, f"worst slack {worst:.2e}, {elapsed:.1f}s")


def test_2_extremal_profiles_reproduce_their_targets():
    """Low/high extremal profiles hit d and the bound to 1e-12 on 0.01 grids."""
    worst = 0.0
    for k in range(2, 9):
        for i in range(100 * (k - 1) + 1):
            d = i / 100
            low = extremal_low_profile(k, d)
            high = extremal_high_profile(k, d)
            worst = max(
                worst,
                abs(delta_of_profile(low).delta - d),
                abs(delta_of_profile(high).delta - d),
                abs((1 - low.a.max()) - lower_bound(k, d)),
                abs((1 - high.a.max()) - upper_bound(k, d)),
            )
    ok = worst <= 1e-12
    _verdict(2, "extremal exactness on grids", ok, f"worst error {worst:.2e}")


def test_3_rational_oracle_zero_violations():
    """Exhaustive exact grids up to k = 8, equality iff extremal, under 120 s."""
    start = time.perf_counter()
    grids = ((2, 50), (3, 30), (4, 15), (5, 20), (6, 12), (8, 24))
    reports = [simplex_grid_oracle(k, N) for k, N in grids]
    elapsed = time.perf_counter() - start
    total_violations = sum(len(r.violations) for r in reports)
    checked = sum(r.checked for r in reports)
    ok = total_violations == 0 and elapsed <= 120.0
    _verdict(
        3,
        "rational simplex oracle",
        ok,
        f"{checked} profiles, {total_violations} violations, {elapsed:.1f}s",
    )


def test_4_brute_force_matches_closed_form():
    """Enumerating every classifier agrees with the column-max formula."""
    rng = np.random.default_rng(77)
    pairs = [(k, n) for k in range(2, 9) for n in range(1, 7) if k**n <= 10**5]
    worst = 0.0
    for i in range(1000):
        k, n = pairs[i % len(pairs)]
        w = rng.random((k, n))
        m = validate_joint(w / w.sum())
        worst = max(worst, abs(brute_force_bayes_error(m) - bayes_error(m)))
    ok = worst <= 1e-12
    _verdict(4, "brute-force Bayes oracle", ok, f"worst gap {worst:.2e}")


def test_5_two_class_identities_and_strictness():
    """For k=2: U = L = L_FM = p*, while U_FM and U_simpl stay strictly above."""
    worst_identity = 0.0
    strict_ok = True
    for i in range(1, 500):
        q = i / 1000
        prof = binomial_profile(1, q)
        p_star = 1 - float(prof.a.max())
        d = delta_of_profile(prof).delta
        h = entropy_of_profile(prof).h
        U = upper_bound(2, d)
        L = lower_bound(2, d)
        L_FM = lower_fm(2, h)
        U_FM = upper_fm(h)
        U_simpl = upper_bound_simpl(2, d)
        worst_identity = max(
            worst_identity, abs(U - p_star), abs(L - p_star), abs(L_FM - p_star)
        )
        strict_ok = strict_ok and (U_FM > U_simpl > p_star)
    ok = worst_identity <= 1e-11 and strict_ok
    _verdict(
        5,
        "two-class identities",
        ok,
        f"worst identity gap {worst_identity:.2e}, strict chain {strict_ok}",
    )


def test_6_flat_support_margins_positive_and_scaled_limit():
    """Margins d_k(ell) positive for 3 <= k <= 50; scaled value matches 6-8ln2."""
    sets_ok = True
    for k in range(3, 51):
        ells = {k - 3, k - 2, k - 1}
        if 6 <= k <= 9:
            ells.add(k - 4)
        for ell in sorted(e for e in ells if e >= 2):
            if not d_lower_margin(k, ell) > 0:
                sets_ok = False
    at6 = 6 * d_lower_margin(6, 3)
    at10k = 10**4 * d_lower_margin(10**4, 10**4 - 3)
    limit = 6 - 8 * math.log(2)
    ok = sets_ok and abs(at6 - 0.446) <= 1e-3 and abs(at10k - limit) <= 2e-3
    _verdict(
        6,
        "flat-support margin positivity",
        ok,
        f"6*d_6(3)={at6:.6f}, k=1e4 scaled={at10k:.6f}, limit={limit:.6f}",
    )


def test_7_entropy_bound_endpoints_and_inversion():
    """U_FM knots equal 1 - 1/m; phi round-trips its Newton inverse."""
    worst_knot = max(abs(upper_fm(math.log(m)) - (1 - 1 / m)) for m in range(1, 21))
    worst_round_trip = 0.0
    for k in range(2, 21):
        for h in np.linspace(0.0, math.log(k), 50):
            h = float(h)
            worst_round_trip = max(worst_round_trip, abs(phi(k, lower_fm(k, h)) - h))
    ok = worst_knot <= 1e-12 and worst_round_trip <= 1e-11
    _verdict(
        7,
        "entropy-bound endpoints",
        ok,
        f"worst knot {worst_knot:.2e}, worst round-trip {worst_round_trip:.2e}",
    )


def test_8_counterexample_values_exact():
    """The refuting fixture reproduces its published values to 1e-12."""
    rep = ep_counterexample_check()
    gaps = (
        abs(rep.p_e - 0.5),
        abs(rep.h_beta - 0.0),
        abs(rep.h_s - 1.0),
        abs(rep.ep_numerator - (-1.0)),
    )
    ok = max(gaps) <= 1e-12 and rep.bound_false and rep.ok
    _verdict(8, "counterexample evaluation", ok, f"worst gap {max(gaps):.2e}")


def test_9_figure_reproduction():
    """Fig-1 endpoints and node ties; fig-3 family coincidence at k=2."""
    rows = fig1_rows(5)
    end_gaps = [abs(rows[0][c] - 0.8) for c in ("L", "U", "U_simpl")]
    end_gaps += [abs(rows[-1][c] - 0.0) for c in ("L", "U", "U_simpl")]
    node_gap = max(
        abs(r["U"] - r["U_simpl"])
        for r in rows
        if abs(r["delta"] - round(r["delta"])) < 1e-9
    )
    f3 = fig3_rows(k_list=(2,), q_step=0.01)
    binom = [r for r in f3 if r["family"] == "binomial"]
    expo = [r for r in f3 if r["family"] == "exponential"]
    cols = ("delta", "entropy_nats", "p_star", "L", "U", "U_simpl", "L_FM", "U_FM")
    family_gap = max(
        abs(rb[c] - re_[c]) for rb, re_ in zip(binom, expo) for c in cols
    )
    ok = max(end_gaps) <= 1e-12 and node_gap <= 1e-12 and family_gap <= 1e-12
    _verdict(
        9,
        "figure reproduction",
        ok,
        f"endpoint {max(end_gaps):.2e}, node {node_gap:.2e}, family {family_gap:.2e}",
    )
