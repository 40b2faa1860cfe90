"""Separation statistic, its bound chain, extremal profiles, rational oracle."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misbounds import (
    BadParamError,
    OutOfRangeError,
    TooFewClassesError,
    TooLargeError,
    delta,
    delta_of_profile,
    extremal_high_profile,
    extremal_low_profile,
    lower_bound,
    simplex_grid_oracle,
    upper_bound,
    upper_bound_simpl,
    validate_joint,
    validate_profile,
)
from misbounds.tv_bounds import envelope_columns


class TestDelta:
    def test_two_class_example(self):
        m = validate_joint([[0.4, 0.1], [0.1, 0.4]])
        assert delta(m).delta == pytest.approx(0.6)

    def test_identical_subdistributions_give_zero(self):
        m = validate_joint(np.full((4, 3), 1.0 / 12))
        assert delta(m).delta == pytest.approx(0.0, abs=1e-15)

    def test_pairwise_singular_gives_k_minus_one(self):
        for k in (2, 3, 5):
            m = validate_joint(np.eye(k) / k)
            assert delta(m).delta == pytest.approx(k - 1, abs=1e-12)

    def test_carries_class_count(self):
        m = validate_joint([[0.4, 0.1], [0.1, 0.4]])
        assert delta(m).k == 2


class TestDeltaOfProfile:
    def test_three_entry_example(self):
        p = validate_profile([2 / 3, 1 / 6, 1 / 6])
        assert delta_of_profile(p).delta == pytest.approx(1.0, abs=1e-15)

    def test_uniform_is_zero(self):
        p = validate_profile(np.full(5, 0.2))
        assert delta_of_profile(p).delta == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_is_k_minus_one(self):
        p = validate_profile([1.0, 0.0, 0.0, 0.0])
        assert delta_of_profile(p).delta == pytest.approx(3.0, abs=1e-15)

    def test_matches_naive_pairwise_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.random(int(rng.integers(2, 8)))
            p = validate_profile(a / a.sum())
            naive = sum(
                abs(p.a[i] - p.a[j])
                for i in range(p.k)
                for j in range(i + 1, p.k)
            )
            assert delta_of_profile(p).delta == pytest.approx(naive, abs=1e-13)


def _exact_pairwise_sum(w: np.ndarray) -> Fraction:
    """Sum over row pairs y < z of sum_x |w[y,x] - w[z,x]|, exactly."""
    total = Fraction(0)
    for col in w.T:
        a = [Fraction(float(v)) for v in col]
        total += sum(abs(a[i] - a[j]) for i in range(len(a)) for j in range(i + 1, len(a)))
    return total


@st.composite
def _joint_matrices(draw):
    """Normalized k x n matrices with tied entries, zeros and dead columns."""
    k = draw(st.integers(2, 40))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(entry, min_size=k * n, max_size=k * n))).reshape(k, n)
    w[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    if w.sum() == 0.0:
        w[0, 0] = 1.0
    return w / w.sum()


class TestDeltaAgainstExactPairwiseSum:
    # Sorting is exact; the row sums and the rank-weighted dot product each
    # round, with the weights |2i - k - 1| < k, so the float result stays
    # within about (k + n)(k - 1) ulps of 1 of the exact sum.
    @settings(max_examples=150, deadline=None)
    @given(raw=_joint_matrices(), data=st.data())
    def test_model_and_profiles(self, raw, data):
        model = validate_joint(raw)
        k, n = model.k, model.n
        eps = np.finfo(float).eps
        exact = _exact_pairwise_sum(model.w)
        assert abs(Fraction(delta(model).delta) - exact) <= (k + n) * (k - 1) * eps

        for col in model.w.T:
            if col.sum() > 0.0:
                p = validate_profile(col / col.sum())
                err = Fraction(delta_of_profile(p).delta) - _exact_pairwise_sum(p.a[:, None])
                assert abs(err) <= (k + 1) * (k - 1) * eps

        perm = data.draw(st.permutations(range(k)))
        assert delta(validate_joint(model.w[perm])).delta == delta(model).delta


class TestLowerBound:
    def test_affine_example(self):
        assert lower_bound(3, 1.0) == pytest.approx(1 / 3)

    def test_endpoints(self):
        for k in range(2, 9):
            assert lower_bound(k, 0.0) == pytest.approx(1 - 1 / k)
            assert lower_bound(k, k - 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(OutOfRangeError):
            lower_bound(3, 2.5)
        with pytest.raises(OutOfRangeError):
            lower_bound(3, -0.5)

    def test_tiny_overshoot_clamped(self):
        assert lower_bound(3, 2.0 + 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_classes(self):
        with pytest.raises(TooFewClassesError):
            lower_bound(1, 0.0)


class TestUpperBound:
    def test_integer_example(self):
        assert upper_bound(3, 1.0) == pytest.approx(0.5)

    def test_two_class_fractional_example(self):
        assert upper_bound(2, 0.6) == pytest.approx(0.2)

    def test_full_separation_endpoint(self):
        assert upper_bound(5, 4.0) == pytest.approx(0.0, abs=1e-15)

    def test_equals_simpl_at_integer_nodes(self):
        for k in range(2, 9):
            for m in range(k):
                assert upper_bound(k, float(m)) == pytest.approx(
                    upper_bound_simpl(k, float(m)), abs=1e-14
                )

    def test_strictly_below_simpl_off_nodes(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            d = float(rng.uniform(0, k - 1))
            if abs(d - round(d)) < 1e-6:
                continue
            assert upper_bound(k, d) < upper_bound_simpl(k, d)

    def test_linear_inside_each_unit_interval(self):
        # second difference of three collinear points vanishes
        for k in (3, 5, 8):
            for m in range(1, k):
                a, b, c = m - 0.9, m - 0.5, m - 0.1
                ua, ub, uc = (upper_bound(k, x) for x in (a, b, c))
                assert ua - 2 * ub + uc == pytest.approx(0.0, abs=1e-12)

    def test_continuous_across_integer_nodes(self):
        for k in (3, 5, 8):
            for m in range(1, k - 1):
                below = upper_bound(k, m - 1e-10)
                above = upper_bound(k, m + 1e-10)
                node = upper_bound(k, float(m))
                assert abs(below - node) < 1e-9
                assert abs(above - node) < 1e-9

    def test_exact_next_to_integer_nodes(self):
        # U is the linear interpolation of 1 - 1/(k - j) between the integers j
        # on either side of d; at these d the float pieces meet within an ulp
        rng = np.random.default_rng(29)
        worst = 0.0
        for k in (2, 3, 5, 8, 13, 50):
            for m in range(k):
                offsets = [sign * s for sign in (-1, 1) for s in (1e-15, 1e-12, 1e-10, 9e-10)]
                for d in [m + s for s in [*offsets, *rng.uniform(-1e-9, 1e-9, 8)] if 0 <= m + s <= k - 1]:
                    exact = Fraction(d)
                    j = max(math.ceil(exact), 1)
                    node = lambda i: 1 - Fraction(1, k - i)  # noqa: E731
                    want = node(j - 1) + (exact - (j - 1)) * (node(j) - node(j - 1))
                    worst = max(worst, abs(Fraction(upper_bound(k, d)) - want))
        assert worst <= 1e-14

    def test_below_simpl_just_past_zero(self):
        # the piece on [0, 1] at d in [1e-10, 1e-9]; the next piece, carried past 0, overshoots U_simpl
        for k in range(2, 9):
            for d in np.linspace(1e-10, 1e-9, 37).tolist():
                assert upper_bound(k, d) <= upper_bound_simpl(k, d)

    def test_monotone_nonincreasing(self):
        for k in (2, 4, 7):
            grid = np.linspace(0, k - 1, 500)
            vals = [upper_bound(k, float(d)) for d in grid]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


class TestUpperBoundSimpl:
    def test_two_class_value(self):
        assert upper_bound_simpl(2, 0.6) == pytest.approx(2 / 7)

    def test_endpoint(self):
        assert upper_bound_simpl(4, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(OutOfRangeError):
            upper_bound_simpl(2, 1.7)


class TestEnvelopeColumns:
    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_columns_equal_the_scalar_envelopes(self, k):
        ends = [k - 1 + 1e-10, -1e-10]
        d = np.concatenate([np.linspace(0, k - 1, 97), np.arange(k) + 1e-10, ends])
        columns = envelope_columns(k, d)
        for i, x in enumerate(d.tolist()):
            assert columns["delta"][i] == min(max(x, 0.0), k - 1.0)
            assert columns["L"][i] == lower_bound(k, x)
            assert columns["U"][i] == upper_bound(k, x)
            assert columns["U_simpl"][i] == upper_bound_simpl(k, x)

    def test_one_class_count_per_entry(self):
        want = [upper_bound(2, 0.5), upper_bound(5, 3.25), upper_bound(9, 8.0), upper_bound(255, 3.5)]
        # k + 1 at k = 255 would wrap in uint8 arithmetic
        for dtype in (np.int64, np.int32, np.uint8):
            ks = np.array([2, 5, 9, 255], dtype=dtype)
            columns = envelope_columns(ks, np.array([0.5, 3.25, 8.0, 3.5]))
            assert columns["U"].tolist() == want, dtype

    def test_refuses_what_the_scalar_envelopes_refuse(self):
        with pytest.raises(OutOfRangeError, match="delta=nan"):
            envelope_columns(3, np.array([0.5, math.nan]))
        with pytest.raises(OutOfRangeError):
            envelope_columns(np.array([3, 2]), np.array([2.0, 2.0]))
        with pytest.raises(TooFewClassesError):
            envelope_columns(np.array([3, 1]), np.array([0.0, 0.0]))
        # a class count that is not an integer is refused, not truncated
        for k in (2.5, np.float64(3.0), True, np.array([3.0]), np.array([2.5, 3.5]), np.array([True])):
            with pytest.raises(BadParamError, match="must be an integer >= 2"):
                envelope_columns(k, np.array([0.5, 1.0]))


class TestExtremalProfiles:
    def test_low_profile_known_point(self):
        p = extremal_low_profile(3, 1.0)
        np.testing.assert_allclose(p.a, [2 / 3, 1 / 6, 1 / 6], atol=1e-15)

    def test_high_profile_known_point(self):
        p = extremal_high_profile(3, 1.0)
        np.testing.assert_allclose(p.a, [0.5, 0.5, 0.0], atol=1e-15)

    def test_degenerate_endpoints(self):
        for k in (2, 4, 6):
            np.testing.assert_allclose(extremal_low_profile(k, 0.0).a, np.full(k, 1 / k))
            np.testing.assert_allclose(extremal_high_profile(k, 0.0).a, np.full(k, 1 / k))
            point = np.zeros(k)
            point[0] = 1.0
            np.testing.assert_allclose(extremal_low_profile(k, k - 1.0).a, point, atol=1e-15)
            np.testing.assert_allclose(extremal_high_profile(k, k - 1.0).a, point, atol=1e-15)

    def test_profiles_are_valid_and_sorted(self):
        rng = np.random.default_rng(43)
        cases = [(k, float(rng.uniform(0, k - 1))) for k in rng.integers(2, 9, 300).tolist()]
        # and just either side of every integer separation, where the linear piece changes
        cases += [
            (k, m + s)
            for k in range(2, 9)
            for m in range(k)
            for s in (-9e-10, -1e-10, 1e-10, 9e-10)
            if 0 <= m + s <= k - 1
        ]
        for k, d in cases:
            for p in (extremal_low_profile(k, d), extremal_high_profile(k, d)):
                assert p.a.min() >= -1e-15
                assert p.a.sum() == pytest.approx(1.0, abs=1e-12)
                assert all(x >= y - 1e-15 for x, y in zip(p.a, p.a[1:]))
            assert abs((1 - extremal_high_profile(k, d).a.max()) - upper_bound(k, d)) <= 1e-15, (k, d)

    def test_low_profile_attains_target_on_grid(self):
        for k in range(2, 9):
            for d in np.arange(0.0, k - 1 + 1e-9, 0.01):
                d = float(d)
                p = extremal_low_profile(k, d)
                assert abs(delta_of_profile(p).delta - d) <= 1e-12
                assert abs((1 - p.a.max()) - lower_bound(k, d)) <= 1e-12

    def test_high_profile_attains_target_on_grid(self):
        for k in range(2, 9):
            for d in np.arange(0.0, k - 1 + 1e-9, 0.01):
                d = float(d)
                p = extremal_high_profile(k, d)
                assert abs(delta_of_profile(p).delta - d) <= 1e-12
                assert abs((1 - p.a.max()) - upper_bound(k, d)) <= 1e-12


class TestSimplexGridOracle:
    def test_small_binary_grid(self):
        r = simplex_grid_oracle(2, 10)
        assert r.checked == 11
        assert r.ok
        # every binary grid profile attains both ends of the chain
        assert r.low_equalities == 11
        assert r.high_equalities == 11

    def test_three_class_grid(self):
        r = simplex_grid_oracle(3, 12)
        assert r.checked == 91
        assert r.ok

    def test_acceptance_scale_grids(self):
        for k, n in ((2, 50), (3, 30), (4, 15)):
            r = simplex_grid_oracle(k, n)
            assert r.checked == math.comb(n + k - 1, k - 1)
            assert r.ok, r.violations[:3]

    def test_wide_grid_inside_the_size_limit_finishes(self):
        # 4,501,500 profiles but two partitions; walking the compositions
        # took time proportional to profiles x k
        start = time.perf_counter()
        r = simplex_grid_oracle(3000, 2)
        assert time.perf_counter() - start < 1.0
        assert r.checked == 4_501_500
        assert r.ok

    def test_million_classes_one_unit_stays_small(self):
        # one partition reaches one segment, so only its (P, T) is built; a
        # table of all 10**6 pairs would hold about 150 MB
        tracemalloc.start()
        try:
            r = simplex_grid_oracle(10**6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.checked == 10**6
        assert r.ok
        assert peak < 50 * 2**20

    def test_guard_rejects_oversized_grid(self):
        with pytest.raises(TooLargeError):
            simplex_grid_oracle(6, 500)

    @pytest.mark.parametrize("k, N", [(3, 2.5), (3.0, 4), (3, True), (True, 4), ("3", 4)])
    def test_refuses_non_integer_arguments(self, k, N):
        with pytest.raises(BadParamError, match="must be an integer"):
            simplex_grid_oracle(k, N)

    def test_numpy_integers_become_python_ints(self):
        r = simplex_grid_oracle(np.int64(4), np.uint8(15))
        assert type(r.k) is int and type(r.N) is int
        assert r == simplex_grid_oracle(4, 15)

    def test_extremal_grid_points_counted_as_equalities(self):
        # N=6, k=3: (4,1,1)/6 matches the lifted-flat pattern with d=1
        r = simplex_grid_oracle(3, 6)
        assert r.low_equalities >= 1
        assert r.high_equalities >= 1


class TestRationalAgreesWithFloat:
    def test_bounds_match_fraction_formulas(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            num = int(rng.integers(0, 60 * (k - 1) + 1))
            d = Fraction(num, 60)
            f = float(d)
            L = 1 - Fraction(1 + d, k)
            m = math.ceil(d)
            U = 1 - Fraction(k + 1 + d - 2 * m, (k - m) * (k + 1 - m))
            assert lower_bound(k, f) == pytest.approx(float(L), abs=1e-13)
            assert upper_bound(k, f) == pytest.approx(float(U), abs=1e-13)
