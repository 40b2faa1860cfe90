"""Conditional entropy, Feder-Merhav bounds, Renyi entropy, counterexample.

High-precision reference values in this file were produced with mpmath at
40 significant digits and frozen here.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from misbounds import (
    BadBetaError,
    BadParamError,
    EntropyOutOfRangeError,
    EntropyValue,
    NegativeEntropyError,
    OutOfRangeError,
    TooFewClassesError,
    conditional_entropy,
    entropy_of_profile,
    ep_counterexample_check,
    lower_fm,
    phi,
    renyi_conditional_entropy,
    upper_fm,
    validate_joint,
    validate_profile,
)
from misbounds import entropy
from misbounds.entropy import (
    H_SLACK,
    LOG_FLOAT_MAX,
    _lower_fm_column,
    _upper_fm,
    entropy_columns,
)
from simplex_grids import compositions

# class counts spanning the binary case to a very wide alphabet
K_GRID = (2, 3, 8, 100, 10**6)

H2_02 = 0.5004024235381879  # binary entropy of 0.2, nats


def random_model(rng, k, n):
    w = rng.random((k, n))
    return validate_joint(w / w.sum())


class TestConditionalEntropy:
    def test_example_model_equals_binary_entropy(self):
        m = validate_joint([[0.4, 0.1], [0.1, 0.4]])
        assert conditional_entropy(m).h == pytest.approx(H2_02, abs=1e-14)

    def test_deterministic_posteriors_give_zero(self):
        m = validate_joint([[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy(m).h == pytest.approx(0.0, abs=1e-15)

    def test_uniform_posteriors_give_log_k(self):
        for k in (2, 3, 6):
            m = validate_joint(np.full((k, 4), 1.0 / (4 * k)))
            assert conditional_entropy(m).h == pytest.approx(math.log(k), abs=1e-13)

    def test_zero_marginal_columns_ignored(self):
        with_zero = validate_joint([[0.4, 0.1, 0.0], [0.1, 0.4, 0.0]])
        without = validate_joint([[0.4, 0.1], [0.1, 0.4]])
        assert conditional_entropy(with_zero).h == conditional_entropy(without).h

    def test_range_invariant_randomized(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            h = conditional_entropy(random_model(rng, k, int(rng.integers(1, 7))))
            assert 0.0 <= h.h <= math.log(k)


class TestEntropyOfProfile:
    def test_half_half_zero(self):
        p = validate_profile([0.5, 0.5, 0.0])
        assert entropy_of_profile(p).h == pytest.approx(math.log(2), abs=1e-15)

    def test_flat_support_of_size_ell(self):
        for k, ell in ((5, 2), (6, 4), (7, 7)):
            a = np.zeros(k)
            a[:ell] = 1.0 / ell
            assert entropy_of_profile(validate_profile(a)).h == pytest.approx(
                math.log(ell), abs=1e-13
            )

    def test_lifted_flat_example(self):
        p = validate_profile([2 / 3, 1 / 6, 1 / 6])
        expected = (2 / 3) * math.log(3 / 2) + (1 / 3) * math.log(6)
        assert entropy_of_profile(p).h == pytest.approx(expected, abs=1e-14)
        assert entropy_of_profile(p).h == pytest.approx(0.8675632284814612, abs=1e-13)

    def test_geometric_profile_reference(self):
        # H(4/7, 2/7, 1/7), frozen from a 40-digit evaluation
        p = validate_profile([4 / 7, 2 / 7, 1 / 7])
        assert entropy_of_profile(p).h == pytest.approx(0.9556998911125343, abs=1e-13)


class TestPhi:
    def test_binary_case_is_binary_entropy(self):
        assert phi(2, 0.5) == pytest.approx(math.log(2), abs=1e-15)
        assert phi(2, 0.2) == pytest.approx(H2_02, abs=1e-15)

    def test_endpoints(self):
        for k in (2, 3, 7, 20):
            assert phi(k, 0.0) == 0.0
            assert phi(k, 1 - 1 / k) == pytest.approx(math.log(k), abs=1e-13)

    def test_equals_entropy_of_flat_remainder_profile(self):
        # phi(p) is the entropy of (1-p, p/(k-1), ..., p/(k-1))
        rng = np.random.default_rng(59)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            p = float(rng.uniform(0, 1 - 1 / k))
            a = np.full(k, p / (k - 1))
            a[0] = 1 - p
            assert phi(k, p) == pytest.approx(
                entropy_of_profile(validate_profile(a)).h, abs=1e-12
            )

    def test_strictly_increasing(self):
        for k in (2, 5, 11):
            grid = np.linspace(0, 1 - 1 / k, 200)
            vals = [phi(k, float(p)) for p in grid]
            assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain_enforced(self):
        with pytest.raises(OutOfRangeError):
            phi(3, 0.7)


class TestLowerFM:
    def test_binary_full_entropy(self):
        assert lower_fm(2, math.log(2)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_entropy(self):
        assert lower_fm(5, 0.0) == 0.0

    def test_inverts_binary_entropy_at_point_two(self):
        assert lower_fm(2, H2_02) == pytest.approx(0.2, abs=1e-11)

    def test_frozen_inverse_references(self):
        # roots of phi(k, .) = h found independently at 40-digit precision
        for k, h, expected in (
            (3, 0.5, 0.13920211580348593),
            (3, 1.0, 0.44993842447405774),
            (5, 1.2, 0.38490175669769777),
            (8, 2.0, 0.7260745028775),
        ):
            assert lower_fm(k, h) == pytest.approx(expected, abs=1e-12)

    def test_round_trip_through_phi(self):
        for k in (2, 3, 7, 13, 20):
            for h in np.linspace(0, math.log(k), 60):
                h = float(h)
                assert phi(k, lower_fm(k, h)) == pytest.approx(h, abs=1e-11)

    def test_monotone_in_h(self):
        grid = np.linspace(0, math.log(4), 100)
        vals = [lower_fm(4, float(h)) for h in grid]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))

    def test_relative_accuracy_in_the_tail(self):
        # accuracy relative to p: an absolute tolerance cannot resolve these roots
        for k in K_GRID:
            for p in (1e-300, 1e-100, 1e-15, 1e-9):
                assert lower_fm(k, phi(k, p)) == pytest.approx(p, rel=1e-12, abs=0)

    def test_subnormal_entropy(self):
        # the root of phi = h lies below h; at 5e-324 it underflows to 0
        assert lower_fm(2, 5e-324) == 0.0
        for k in (2, 10**6):
            for h in (1e-321, 1e-310, 1e-308):
                assert 0.0 <= lower_fm(k, h) <= h

    @given(
        k=st.integers(2, 10**6),
        u=st.floats(0.0, 1.0, exclude_max=True),
        v=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_round_trip_and_monotone_property(self, k, u, v):
        # log p uniform on [ln 1e-300, ln(1 - 1/k))
        top = 1.0 - 1.0 / k
        log_lo = -300.0 * math.log(10.0)
        p, p2 = (min(math.exp(log_lo + t * (math.log(top) - log_lo)), top) for t in (u, v))
        h, h2 = phi(k, p), phi(k, p2)
        x, x2 = lower_fm(k, h), lower_fm(k, h2)
        if math.log(k) - h <= H_SLACK:
            assert x == top
        else:
            assert phi(k, x) == pytest.approx(h, rel=1e-12, abs=0)
        if p <= top / 2:
            # phi is well conditioned here, so p itself is recovered
            assert x == pytest.approx(p, rel=1e-12, abs=0)
        if h <= h2:
            # monotone up to the inverse's few-ulp accuracy
            assert x <= x2 * (1.0 + 1e-12)

    def test_entropy_domain_enforced(self):
        with pytest.raises(EntropyOutOfRangeError):
            lower_fm(3, math.log(3) + 0.01)
        with pytest.raises(EntropyOutOfRangeError):
            lower_fm(3, -0.01)


class TestPhiInverse:
    def test_newton_iteration_count_and_residual(self, monkeypatch):
        # bisection to relative accuracy would take ~50 steps, ~1000 near 1e-300
        loops = []
        newton = entropy._newton

        def spy(*args):
            loops.append(newton(*args))
            return loops[-1]

        monkeypatch.setattr(entropy, "_newton", spy)
        for k in K_GRID:
            top = 1.0 - 1.0 / k
            for p in np.geomspace(1e-300, top * (1.0 - 1e-6), 120):
                h = phi(k, float(p))
                lower_fm(k, h)
                _, iterations, residual = loops[-1]
                assert iterations <= 10
                assert abs(residual) <= 1e-14 * h
        assert len(loops) == len(K_GRID) * 120


def float_bits(values) -> list:
    """Each float as its hex string, so that equality is bit for bit."""
    return [float(x).hex() for x in values]


class TestLowerFMColumn:
    @given(
        k=st.integers(2, 10**6),
        us=st.lists(st.floats(0.0, 1.0), max_size=30),
        vs=st.lists(st.floats(0.0, 1.0), max_size=10),
        ws=st.lists(st.floats(0.0, 1.0), max_size=30),
    )
    def test_equals_the_scalar_inverse_bit_for_bit(self, k, us, vs, ws):
        # h log-uniform on [1e-320, ln k], the window ln k - 10^(-17..0) below the
        # top, uniform on [0, ln k], and the edges: 0, ln k, and both sides of
        # ln k - H_SLACK
        log_k = math.log(k)
        lo, hi = math.log(1e-320), math.log(log_k)
        h = [min(math.exp(lo + u * (hi - lo)), log_k) for u in us]
        h += [max(log_k - 10.0 ** (-17.0 * v), 0.0) for v in vs]
        h += [w * log_k for w in ws]
        edge = log_k - H_SLACK
        h += [0.0, log_k, edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        got = _lower_fm_column(k, np.array(h))
        assert float_bits(got) == float_bits(lower_fm(k, x) for x in h)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_equals_the_scalar_inverse_on_a_dense_column(self, k):
        # numpy's log and log1p differ from the math module's in the last bit
        # on about 1% of inputs, and that reaches the root on a few in a
        # thousand; a column this dense sees it if the inverse calls them
        h = np.random.default_rng(k).uniform(0.0, math.log(k), 4000)
        assert float_bits(_lower_fm_column(k, h)) == float_bits(lower_fm(k, x) for x in h.tolist())

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 8, 10**6])
    def test_equals_the_scalar_inverse_when_the_iteration_cap_binds(self, monkeypatch, k, cap):
        # the inverse converges within 10 steps, so only a lowered cap stops entries
        # mid-way; those done before it must stay where the scalar loop stops
        monkeypatch.setattr(entropy, "NEWTON_MAX_ITER", cap)
        log_k = math.log(k)
        h = np.concatenate(
            [
                np.minimum(np.geomspace(1e-320, log_k, 400), log_k),
                np.maximum(log_k - 10.0 ** -np.linspace(17.0, 0.0, 100), 0.0),
                [0.0, log_k, 5e-324],
            ]
        )
        assert float_bits(_lower_fm_column(k, h)) == float_bits(lower_fm(k, x) for x in h.tolist())

    def test_root_below_the_smallest_subnormal_is_zero(self):
        for k in (2, 10**6):
            assert float_bits(_lower_fm_column(k, np.array([5e-324]))) == float_bits([0.0])
            # columns of entries answered without a root: each runs the loop on a
            # stand-in entropy alone, and its result is replaced
            top = 1.0 - 1.0 / k
            for h, want in (([0.0], [0.0]), ([math.log(k)], [top]), ([0.0, math.log(k), 5e-324], [0.0, top, 0.0])):
                assert float_bits(_lower_fm_column(k, np.array(h))) == float_bits(want)

    def test_empty_column(self):
        out = _lower_fm_column(3, np.array([]))
        assert out.shape == (0,) and out.dtype == float

    def test_keeps_the_shape_of_its_input(self):
        h = np.linspace(0.0, math.log(5), 12)
        assert float_bits(_lower_fm_column(5, h.reshape(3, 4)).reshape(-1)) == float_bits(_lower_fm_column(5, h))


class TestEntropyColumns:
    def test_one_class_count_per_entry(self):
        # ln k is a double whatever the integer type: np.log of uint8 is float16
        for dtype in (np.int64, np.uint8):
            ks = np.array([2, 5, 9], dtype=dtype)
            columns = entropy_columns(ks, np.array([0.5, 1.5, math.log(9) + 1e-13]))
            assert columns["entropy_nats"].tolist() == [0.5, 1.5, float(np.log(9))], dtype

    def test_top_is_math_log_as_in_entropy_value(self):
        # numpy's log of an integer array and math.log differ in the last bit at k = 9170
        k = 9170
        h = math.log(k) + 5e-13
        assert EntropyValue(h, k).h == math.log(k) != float(np.log(np.array([k]))[0])
        for ks in (k, np.array([k, 3])):
            columns = entropy_columns(ks, np.array([h, 0.5]))
            assert columns["entropy_nats"][0].hex() == math.log(k).hex()
            assert columns["entropy_nats"][1] == 0.5

    @pytest.mark.parametrize("k", [2, 7])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "below", "above"])
    def test_refuses_what_entropy_value_refuses(self, k, bad):
        # the one clamp of a sweep's entropies, before both column bounds
        h = {
            "nan": math.nan,
            "inf": math.inf,
            "-inf": -math.inf,
            "below": -2 * H_SLACK,
            "above": math.log(k) + 2 * H_SLACK,
        }[bad]
        with pytest.raises(EntropyOutOfRangeError) as scalar:
            EntropyValue(h, k)
        with pytest.raises(EntropyOutOfRangeError) as column:
            entropy_columns(k, np.array([0.5, h]))
        assert str(column.value) == str(scalar.value)

    def test_refuses_what_the_scalar_bounds_refuse(self):
        with pytest.raises(EntropyOutOfRangeError, match="h=nan"):
            entropy_columns(3, np.array([0.5, math.nan]))
        with pytest.raises(EntropyOutOfRangeError):
            entropy_columns(np.array([3, 2]), np.array([1.0, 1.0]))
        with pytest.raises(TooFewClassesError):
            entropy_columns(np.array([3, 1]), np.array([0.0, 0.0]))
        # a class count that is not an integer is refused, not truncated
        for k in (2.5, np.float64(3.0), True, np.array([3.0]), np.array([2.5, 3.5]), np.array([True])):
            with pytest.raises(BadParamError, match="must be an integer >= 2"):
                entropy_columns(k, np.array([0.5]))


def _mp_lower_fm(k, h):
    """50-digit root of phi(k, p) = h, bracketed away from both endpoints."""
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        log_km1 = mpmath.log(k - 1)

        def excess(p):
            return p * log_km1 - p * mpmath.log(p) - (1 - p) * mpmath.log1p(-p) - h

        top = 1 - mpmath.mpf(1) / k
        return mpmath.findroot(excess, (mpmath.mpf(10) ** -30, top), solver="anderson")


def _mp_upper_fm(h):
    """50-digit Feder-Merhav upper bound on the branch e = ceil(exp h) - 1."""
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        e = int(mpmath.ceil(mpmath.exp(h))) - 1
        slope_term = (h - mpmath.log(e)) / mpmath.log1p(mpmath.mpf(1) / e)
        return (e - 1) / mpmath.mpf(e) + slope_term / (e * (e + 1))


class TestMpmathReferee:
    def test_entropy_bounds_on_oracle_grids(self):
        # the float H of each profile is the input; both sides invert that
        # same value, so only the bounds' own error is measured
        entropies = set()
        for k, N in ((2, 50), (3, 30), (4, 15)):
            for comp in compositions(N, k):
                h = entropy_of_profile(validate_profile([c / N for c in comp])).h
                if 0.0 < h <= math.log(k) - H_SLACK:
                    entropies.add((k, h))
        assert len(entropies) >= 166  # at least one per profile up to permutation
        for k, h in sorted(entropies):
            assert lower_fm(k, h) == pytest.approx(float(_mp_lower_fm(k, h)), rel=1e-12, abs=0)
            assert upper_fm(h) == pytest.approx(float(_mp_upper_fm(h)), rel=0, abs=1e-13)


class TestUpperFM:
    def test_knot_values(self):
        for m in range(1, 21):
            assert upper_fm(math.log(m)) == pytest.approx(1 - 1 / m, abs=1e-12)

    def test_zero_entropy_is_zero(self):
        assert upper_fm(0.0) == 0.0

    def test_first_branch_is_scaled_log(self):
        # on [0, ln 2] the bound is h / (2 ln 2)
        for h in (0.05, 0.3, 0.6, math.log(2)):
            assert upper_fm(h) == pytest.approx(h / (2 * math.log(2)), abs=1e-13)

    def test_first_branch_holds_below_snap_tolerance(self):
        # exp(h) rounds to 1 at the smallest h here; the branch must stay h / (2 ln 2), not 0
        for h in (1e-300, 1e-15, 1e-11, 1e-9):
            assert upper_fm(h) == h / (2 * math.log(2))

    def test_frozen_references(self):
        for h, expected in (
            (0.3, 0.21640425613334452),
            (1.2, 0.6960358097360192),
            (2.0, 0.8643762887461418),
            (2.5, 0.917875424438122),
        ):
            assert upper_fm(h) == pytest.approx(expected, abs=1e-13)

    def test_continuous_at_knots(self):
        for m in range(1, 8):
            node = upper_fm(math.log(m))
            assert abs(upper_fm(math.log(m) - 1e-9) - node) <= 1e-6
            assert abs(upper_fm(math.log(m) + 1e-9) - node) <= 1e-6

    def test_array_form_matches_scalar(self):
        # the body on numpy's primitives, as a sweep runs it; knots below ln 1 = 0 clamp to 0, as in upper_fm
        knots = [max(math.log(m) + s, 0.0) for m in range(1, 9) for s in (-1e-9, -1e-10, 0.0, 1e-10, 1e-9)]
        h = np.array([0.0, 1e-300, 0.3, 2.5, 700.0, LOG_FLOAT_MAX] + knots)
        # e (e + 1) overflows to inf near LOG_FLOAT_MAX, as the float product does in upper_fm
        with np.errstate(over="ignore"):
            got = _upper_fm(h, np.exp, np.log, np.log1p, np.ceil)
        np.testing.assert_allclose(got, [upper_fm(x) for x in h.tolist()], rtol=1e-15, atol=0.0)
        # and with the primitives a sweep passes: every knot up to ln 8 is below ln 9
        got = entropy_columns(9, np.array(knots))["U_FM"]
        np.testing.assert_allclose(got, [upper_fm(x) for x in knots], rtol=1e-15, atol=0.0)

    def test_exact_next_to_knots(self):
        # the float pieces that meet at ln m agree there, so a plain ceiling is exact on either side
        rng = np.random.default_rng(31)
        offsets = [sign * s for sign in (-1, 1) for s in (1e-15, 1e-12, 1e-10, 9e-10)]
        worst = 0.0
        for m in range(1, 61):
            for h in [math.log(m) + s for s in [*offsets, *rng.uniform(-1e-9, 1e-9, 6)]]:
                if h > 0.0:
                    worst = max(worst, abs(upper_fm(h) - float(_mp_upper_fm(h))))
        assert worst <= 1e-15

    def test_monotone_nondecreasing(self):
        grid = np.linspace(0, math.log(30), 400)
        vals = [upper_fm(float(h)) for h in grid]
        assert all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))

    def test_negative_entropy_rejected(self):
        with pytest.raises(NegativeEntropyError):
            upper_fm(-0.1)

    def test_top_of_exp_range_is_accepted_and_beyond_refused(self):
        # exp(h) is finite up to ln(DBL_MAX) ~ 709.78 and overflows after it
        assert upper_fm(LOG_FLOAT_MAX) == 1.0
        for h in (800.0, math.inf, math.nan):
            with pytest.raises(NegativeEntropyError):
                upper_fm(h)


class TestRenyi:
    def test_deterministic_rows_given_columns(self):
        m = validate_joint([[0.5, 0.5], [0.0, 0.0]])
        for beta in (0.5, 1.0, 2.0, 5.0):
            assert renyi_conditional_entropy(m, beta).h_beta == pytest.approx(0.0, abs=1e-15)

    def test_uniform_rows_given_columns(self):
        for k in (2, 4):
            m = validate_joint(np.full((k, 3), 1.0 / (3 * k)))
            for beta in (0.5, 2.0, 7.0):
                assert renyi_conditional_entropy(m, beta).h_beta == pytest.approx(
                    math.log2(k), abs=1e-12
                )

    def test_frozen_references_on_example_model(self):
        # per-column posterior (0.8, 0.2); 40-digit references
        m = validate_joint([[0.4, 0.1], [0.1, 0.4]])
        assert renyi_conditional_entropy(m, 0.5).h_beta == pytest.approx(
            0.84799690655495, abs=1e-13
        )
        assert renyi_conditional_entropy(m, 2.0).h_beta == pytest.approx(
            0.5563933485243853, abs=1e-13
        )

    def test_beta_one_is_shannon_in_bits(self):
        m = validate_joint([[0.4, 0.1], [0.1, 0.4]])
        assert renyi_conditional_entropy(m, 1.0).h_beta == pytest.approx(
            0.7219280948873623, abs=1e-13
        )

    def test_beta_one_is_limit_of_neighbors(self):
        rng = np.random.default_rng(61)
        m = random_model(rng, 3, 4)
        at_one = renyi_conditional_entropy(m, 1.0).h_beta
        near = renyi_conditional_entropy(m, 1.0 + 1e-7).h_beta
        assert near == pytest.approx(at_one, abs=1e-5)

    def test_rectangular_models_allowed(self):
        m = validate_joint([[0.2, 0.1, 0.1], [0.2, 0.2, 0.2]])
        assert renyi_conditional_entropy(m, 2.0).h_beta >= 0.0

    def test_bad_beta_rejected(self):
        m = validate_joint([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(BadBetaError):
            renyi_conditional_entropy(m, 0.0)
        with pytest.raises(BadBetaError):
            renyi_conditional_entropy(m, -2.0)


class TestCounterexample:
    def test_reported_values_are_exact(self):
        rep = ep_counterexample_check()
        assert rep.p_e == pytest.approx(0.5, abs=1e-12)
        assert rep.h_beta == pytest.approx(0.0, abs=1e-12)
        assert rep.h_s == pytest.approx(1.0, abs=1e-12)
        assert rep.ep_numerator == pytest.approx(-1.0, abs=1e-12)

    def test_bound_flagged_false(self):
        rep = ep_counterexample_check()
        assert rep.bound_false
        assert rep.ok

    def test_all_named_checks_pass(self):
        rep = ep_counterexample_check()
        assert dict(rep.checks) == {
            "error_is_half": True,
            "renyi_all_zero": True,
            "shannon_of_error_one_bit": True,
            "numerator_negative": True,
        }

    def test_dict_serialization_shape(self):
        doc = ep_counterexample_check().to_dict()
        assert set(doc) == {"P_e", "H_beta", "H_S", "ep_numerator", "bound_false", "checks"}
