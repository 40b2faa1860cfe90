"""Parametric profile families, pure models and family specs."""

import math
import warnings

import numpy as np
import pytest

from misbounds import (
    BadParamError,
    BadPermutationError,
    BadWeightsError,
    DomainWarning,
    JointModel,
    OutOfDomainError,
    ParseError,
    PosteriorProfile,
    TooFewClassesError,
    TooLargeError,
    bayes_error,
    binomial_profile,
    comp_hi_profile,
    comp_hi_stats,
    comp_lo_profile,
    conditional_entropy,
    delta,
    delta_of_profile,
    entropy_of_profile,
    exponential_profile,
    extremal_high_profile,
    extremal_low_profile,
    from_spec,
    pure_model,
    three_class_profile,
    validate_profile,
)


def assert_valid_profile(p: PosteriorProfile):
    assert p.a.min() >= -1e-15
    assert p.a.sum() == pytest.approx(1.0, abs=1e-12)
    assert all(x >= y - 1e-15 for x, y in zip(p.a, p.a[1:]))


class TestPureModel:
    def test_two_column_example(self):
        a = validate_profile([0.8, 0.2])
        m = pure_model(a, [0.5, 0.5], [(1, 2), (2, 1)])
        np.testing.assert_allclose(m.w, [[0.4, 0.1], [0.1, 0.4]], atol=1e-15)

    def test_single_identity_column(self):
        a = validate_profile([0.5, 0.3, 0.2])
        m = pure_model(a, [1.0], [(1, 2, 3)])
        np.testing.assert_allclose(m.w[:, 0], a.a)

    def test_statistics_match_profile(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            k, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            raw = rng.random(k)
            a = validate_profile(raw / raw.sum())
            wts = rng.random(n)
            wts /= wts.sum()
            perms = [tuple(rng.permutation(k) + 1) for _ in range(n)]
            m = pure_model(a, wts, perms)
            assert bayes_error(m) == pytest.approx(1 - a.a.max(), abs=1e-12)
            assert delta(m).delta == pytest.approx(delta_of_profile(a).delta, abs=1e-12)
            assert conditional_entropy(m).h == pytest.approx(
                entropy_of_profile(a).h, abs=1e-12
            )

    def test_bayes_error_invariant_under_relabeling(self):
        a = validate_profile([0.6, 0.3, 0.1])
        m1 = pure_model(a, [0.5, 0.5], [(1, 2, 3), (1, 2, 3)])
        m2 = pure_model(a, [0.5, 0.5], [(3, 1, 2), (2, 3, 1)])
        assert bayes_error(m1) == pytest.approx(bayes_error(m2), abs=1e-15)

    def test_bad_weights(self):
        a = validate_profile([0.8, 0.2])
        with pytest.raises(BadWeightsError):
            pure_model(a, [0.5, 0.6], [(1, 2), (1, 2)])
        with pytest.raises(BadWeightsError):
            pure_model(a, [1.0, 0.0], [(1, 2), (1, 2)])

    @pytest.mark.parametrize("weights", [[True], ["1.0"]])
    def test_text_or_boolean_weight_rejected(self, weights):
        with pytest.raises(ParseError):
            pure_model(validate_profile([0.7, 0.3]), weights, [(1, 2)])

    def test_nan_weight_rejected(self):
        with pytest.raises(BadWeightsError):
            pure_model(validate_profile([0.5, 0.5]), [math.nan, 1.0], [(1, 2), (2, 1)])

    def test_bad_permutation(self):
        a = validate_profile([0.8, 0.2])
        with pytest.raises(BadPermutationError):
            pure_model(a, [0.5, 0.5], [(1, 1), (1, 2)])
        with pytest.raises(BadPermutationError):
            pure_model(a, [0.5, 0.5], [(1, 2)])

    @pytest.mark.parametrize("as_array", [list, np.array])
    def test_numpy_integer_permutations_accepted(self, as_array):
        a = validate_profile([0.5, 0.3, 0.2])
        rng = np.random.default_rng(3)
        perms = as_array([rng.permutation(3) + 1 for _ in range(2)])
        plain = [[int(label) for label in perm] for perm in perms]
        m = pure_model(a, [0.25, 0.75], perms)
        np.testing.assert_array_equal(m.w, pure_model(a, [0.25, 0.75], plain).w)

    @pytest.mark.parametrize("perm", [[1.9, 2.2], [True, 2], [1.0, 2.0], np.array([1.0, 2.0]), "12", 1])
    def test_labels_that_are_not_integers_rejected(self, perm):
        with pytest.raises(BadPermutationError):
            pure_model(validate_profile([0.7, 0.3]), [1.0], [perm])


class TestBinomialProfile:
    def test_m_one_is_bernoulli(self):
        np.testing.assert_allclose(binomial_profile(1, 0.3).a, [0.7, 0.3])

    def test_m_two_closed_form(self):
        np.testing.assert_allclose(
            binomial_profile(2, 0.2).a, [0.64, 0.16, 0.16, 0.04], atol=1e-15
        )

    def test_m_two_fair_is_uniform(self):
        np.testing.assert_allclose(binomial_profile(2, 0.5).a, np.full(4, 0.25))

    def test_length_and_validity(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            q = float(rng.uniform(0.01, 0.99))
            p = binomial_profile(m, q)
            assert p.k == 2**m
            assert_valid_profile(p)

    def test_q_reflection_is_permutation(self):
        for m in (1, 2, 4):
            for q in (0.1, 0.25, 0.4):
                lhs = binomial_profile(m, q).a
                rhs = binomial_profile(m, 1 - q).a
                np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(BadParamError):
            binomial_profile(0, 0.3)
        with pytest.raises(BadParamError):
            binomial_profile(2, 0.0)
        with pytest.raises(BadParamError):
            binomial_profile(2, 1.0)
        with pytest.raises(TooLargeError):
            binomial_profile(40, 0.3)


class TestExponentialProfile:
    def test_k_two_matches_binomial(self):
        for q in (0.1, 0.3, 0.45):
            np.testing.assert_allclose(
                exponential_profile(2, q).a, binomial_profile(1, q).a, atol=1e-14
            )

    def test_fair_coin_is_uniform(self):
        for k in (2, 5, 9):
            np.testing.assert_allclose(exponential_profile(k, 0.5).a, np.full(k, 1.0 / k))

    def test_k_three_closed_form(self):
        np.testing.assert_allclose(
            exponential_profile(3, 1 / 3).a, [4 / 7, 2 / 7, 1 / 7], atol=1e-14
        )

    def test_validity_across_domain(self):
        rng = np.random.default_rng(73)
        for _ in range(80):
            k = int(rng.integers(2, 12))
            q = float(rng.uniform(0.01, 0.99))
            assert_valid_profile(exponential_profile(k, q))

    def test_near_half_normalizer_stays_accurate(self):
        # the closed-form normalizer cancels catastrophically here
        for q in (0.5 - 1e-13, 0.5 + 1e-13, 0.5 - 1e-5, 0.5 + 1e-9):
            p = exponential_profile(8, q)
            assert p.a.sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_k_underflow_guarded(self):
        p = exponential_profile(2000, 0.3)
        assert_valid_profile(p)

    def test_q_reflection_is_permutation(self):
        for k in (3, 6):
            for q in (0.2, 0.35):
                np.testing.assert_allclose(
                    exponential_profile(k, q).a, exponential_profile(k, 1 - q).a, atol=1e-14
                )

    def test_parameter_validation(self):
        with pytest.raises(TooFewClassesError):
            exponential_profile(1, 0.3)
        with pytest.raises(BadParamError):
            exponential_profile(3, 1.2)


class TestThreeClassProfile:
    def test_substitution(self):
        np.testing.assert_allclose(three_class_profile(0.3, 0.1).a, [0.7, 0.2, 0.1])

    def test_upper_eps_endpoint(self):
        np.testing.assert_allclose(three_class_profile(0.64, 0.32).a, [0.36, 0.32, 0.32])

    def test_collapse_to_uniform(self):
        np.testing.assert_allclose(
            three_class_profile(2 / 3, 1 / 3).a, np.full(3, 1 / 3), atol=1e-15
        )

    def test_pure_bayes_error_equals_p(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            p = float(rng.uniform(0, 2 / 3))
            lo, hi = max(2 * p - 1, 0.0), p / 2
            eps = float(rng.uniform(lo, hi)) if hi > lo else lo
            prof = three_class_profile(p, eps)
            assert 1 - prof.a.max() == pytest.approx(p, abs=1e-12)
            assert_valid_profile(prof)

    def test_domain_enforced(self):
        with pytest.raises(OutOfDomainError):
            three_class_profile(0.7, 0.3)
        with pytest.raises(OutOfDomainError):
            three_class_profile(0.3, 0.2)  # eps > p/2
        with pytest.raises(OutOfDomainError):
            three_class_profile(0.6, 0.1)  # eps < 2p-1


class TestCompLoProfile:
    def test_flat_pair_in_four(self):
        np.testing.assert_allclose(comp_lo_profile(4, 2).a, [0.5, 0.5, 0.0, 0.0])

    def test_closed_form_statistics(self):
        for k, ell in ((5, 2), (6, 2), (7, 4), (9, 5), (12, 11)):
            p = comp_lo_profile(k, ell)
            assert delta_of_profile(p).delta == pytest.approx(k - ell, abs=1e-12)
            assert entropy_of_profile(p).h == pytest.approx(math.log(ell), abs=1e-12)
            assert 1 - p.a.max() == pytest.approx(1 - 1 / ell, abs=1e-15)

    def test_delta_closed_form_at_large_k(self):
        # rank weights reach k - 1 on unit mass, so a small delta carries an
        # absolute error of order k ulps of 1 rather than a relative one
        for k, ell in ((10**5, 10**5 - 3), (10**6, 10**6 - 1), (10**6, 2), (10**6, 500_000)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DomainWarning)
                p = comp_lo_profile(k, ell)
            tol = k * np.finfo(float).eps
            assert delta_of_profile(p).delta == pytest.approx(k - ell, rel=1e-12, abs=tol)

    def test_guaranteed_set_is_quiet(self):
        for k, ell in ((5, 2), (6, 2), (9, 5), (30, 29)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                comp_lo_profile(k, ell)

    def test_outside_guarantee_warns_but_returns(self):
        with pytest.warns(DomainWarning):
            p = comp_lo_profile(12, 3)
        assert_valid_profile(p)

    def test_full_support_warns_and_gives_uniform(self):
        with pytest.warns(DomainWarning):
            p = comp_lo_profile(5, 5)
        np.testing.assert_allclose(p.a, np.full(5, 0.2))

    def test_hard_domain_errors(self):
        with pytest.raises(BadParamError):
            comp_lo_profile(5, 1)
        with pytest.raises(BadParamError):
            comp_lo_profile(5, 6)
        with pytest.raises(BadParamError):
            comp_lo_profile(2, 2)


class TestCompHiProfile:
    def test_substitution(self):
        np.testing.assert_allclose(
            comp_hi_profile(4, 2.0).a, [0.75, 1 / 12, 1 / 12, 1 / 12], atol=1e-15
        )

    def test_nine_class_statistics(self):
        p = comp_hi_profile(9, 2.0)
        assert delta_of_profile(p).delta == pytest.approx(7.0, abs=1e-12)
        assert 1 - p.a.max() == pytest.approx(1 / 9, abs=1e-15)

    def test_delta_matches_closed_form_randomized(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            nu = float(rng.uniform(1.01, 6.0))
            k = int(rng.integers(math.ceil(nu) + 1, 15))
            p = comp_hi_profile(k, nu)
            assert delta_of_profile(p).delta == pytest.approx(k - nu, abs=1e-12)
            assert_valid_profile(p)

    def test_delta_closed_form_at_large_k(self):
        p = comp_hi_profile(10**6, 2.0)
        assert delta_of_profile(p).delta == pytest.approx(10**6 - 2, rel=1e-12)

    def test_stats_helper_matches_profile(self):
        for k, nu in ((7, 2.0), (11, 3.5), (40, 1.2)):
            p = comp_hi_profile(k, nu)
            stats = comp_hi_stats(k, nu)
            assert stats["delta"] == pytest.approx(delta_of_profile(p).delta, abs=1e-12)
            assert stats["entropy_nats"] == pytest.approx(entropy_of_profile(p).h, abs=1e-12)
            assert stats["p_star"] == pytest.approx(1 - p.a.max(), abs=1e-15)

    def test_stats_over_an_array_of_k_match_the_scalar_stats(self):
        ks = np.arange(3, 200)
        stats = comp_hi_stats(ks, 2.5)
        for i, k in enumerate(ks.tolist()):
            for key, value in comp_hi_stats(k, 2.5).items():
                assert stats[key][i] == pytest.approx(value, rel=1e-15, abs=0.0)
        with pytest.raises(BadParamError):
            comp_hi_stats(np.arange(2, 10), 2.5)

    @pytest.mark.parametrize("k", [3.5, 4.0, True, np.float64(4.0), np.arange(3.0, 9.0)])
    def test_stats_refuse_a_non_integer_class_count(self, k):
        with pytest.raises(BadParamError, match="must be an integer"):
            comp_hi_stats(k, 2.0)

    def test_stats_refuse_class_counts_above_two_to_the_53(self):
        # above 2**53 not every class count is a double, so delta = k - nu would be rounded
        for k in (2**53 + 1, np.array([3, 2**53 + 1]), np.array([3, 2**53 + 1], dtype=np.uint64)):
            with pytest.raises(TooLargeError, match=f"^too many classes: {2**53 + 1}, over the limit of {2**53}$"):
                comp_hi_stats(k, 2.0)
        assert comp_hi_stats(2**53, 2.0)["delta"] == 2**53 - 2
        assert comp_hi_stats(np.array([3, 2**53]), 2.0)["delta"].tolist() == [1.0, 2**53 - 2]
        # the refusals of nu and of k at or below nu keep their messages
        with pytest.raises(BadParamError, match=r"^nu=1\.0 must exceed 1$"):
            comp_hi_stats(2**53 + 1, 1.0)
        with pytest.raises(BadParamError, match=r"^k=2 must be an integer > nu=2\.5$"):
            comp_hi_stats(2, 2.5)

    def test_stats_take_numpy_integers(self):
        assert comp_hi_stats(np.int32(7), 2.0) == comp_hi_stats(7, 2.0)
        assert comp_hi_stats(np.arange(3, 9, dtype=np.uint16), 2.0)["delta"].tolist() == [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0
        ]

    def test_parameter_validation(self):
        with pytest.raises(BadParamError):
            comp_hi_profile(5, 1.0)
        with pytest.raises(BadParamError):
            comp_hi_profile(3, 3.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda k: comp_hi_profile(k, 2.0),
        lambda k: comp_lo_profile(k, k - 1),
        lambda k: extremal_low_profile(k, 1.0),
        lambda k: extremal_high_profile(k, 1.0),
    ],
)
def test_flat_tail_families_refuse_huge_k_before_allocating(build):
    # 2**53 passes the class-count guard, so only the size guard refuses it
    for k in (2**53, 10**20):
        with pytest.raises(TooLargeError):
            build(k)


# An unknown key, a missing key, two floats and two booleans for integers, a
# non-scalar and a null; then text and booleans for reals.
BAD_SPECS = [
    {"family": "exponential", "k": 3, "q": 0.3, "m": 5},
    {"family": "three_class", "p": 0.3},
    {"family": "exponential", "k": 3.9, "q": 0.3},
    {"family": "comp_lo", "k": 8.0, "ell": 5},
    {"family": "binomial", "m": True, "q": 0.3},
    {"family": "pure", "a": [0.5, 0.5], "weights": [0.5, 0.5], "perms": [[True, 2], [2, 1]]},
    {"family": "exponential", "k": [3], "q": 0.3},
    {"family": "three_class", "p": 0.3, "eps": None},
    {"family": "exponential", "k": 8, "q": "0.3"},
    {"family": "three_class", "p": "0.3", "eps": 0.1},
    {"family": "three_class", "p": 0.3, "eps": False},
    {"family": "comp_hi", "k": 10, "nu": "2.5"},
    {"family": "pure", "a": ["0.7", "0.3"], "weights": [1.0], "perms": [[1, 2]]},
    {"family": "pure", "a": [0.7, 0.3], "weights": [True], "perms": [[1, 2]]},
    {"family": "pure", "a": [0.7, 0.3], "weights": ["1.0"], "perms": [[1, 2]]},
]


class TestFromSpec:
    def test_exponential_spec(self):
        p = from_spec({"family": "exponential", "k": 3, "q": 1 / 3})
        np.testing.assert_allclose(p.a, [4 / 7, 2 / 7, 1 / 7], atol=1e-14)

    def test_binomial_spec(self):
        p = from_spec({"family": "binomial", "m": 2, "q": 0.2})
        assert p.k == 4

    def test_pure_spec_builds_model(self):
        built = from_spec(
            {
                "family": "pure",
                "a": [0.8, 0.2],
                "weights": [0.5, 0.5],
                "perms": [[1, 2], [2, 1]],
            }
        )
        assert isinstance(built, JointModel)
        np.testing.assert_allclose(built.w, [[0.4, 0.1], [0.1, 0.4]], atol=1e-15)

    def test_unknown_family(self):
        with pytest.raises(BadParamError):
            from_spec({"family": "cauchy", "k": 3})

    def test_missing_parameter(self):
        with pytest.raises(BadParamError):
            from_spec({"family": "exponential", "k": 3})

    def test_every_family_builds_as_its_constructor(self):
        a, weights, perms = [0.5, 0.3, 0.2], [0.5, 0.5], [[1, 2, 3], [3, 2, 1]]
        pure = from_spec({"family": "pure", "a": a, "weights": weights, "perms": perms})
        np.testing.assert_array_equal(pure.w, pure_model(validate_profile(a), weights, perms).w)
        for spec, profile in (
            ({"family": "binomial", "m": 3, "q": 0.2}, binomial_profile(3, 0.2)),
            ({"family": "exponential", "k": 8, "q": 0.3}, exponential_profile(8, 0.3)),
            ({"family": "three_class", "p": 0.3, "eps": 0.1}, three_class_profile(0.3, 0.1)),
            ({"family": "comp_lo", "k": 8, "ell": 5}, comp_lo_profile(8, 5)),
            ({"family": "comp_hi", "k": 10, "nu": 2.5}, comp_hi_profile(10, 2.5)),
        ):
            np.testing.assert_array_equal(from_spec(spec).a, profile.a)

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(BadParamError):
            from_spec(spec)
