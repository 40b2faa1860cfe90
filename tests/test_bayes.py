"""The Bayes error, the error of a given rule, and the exhaustive rule oracle."""

import math

import numpy as np
import pytest

from misbounds import bayes
from misbounds import TooLargeError, bayes_error, brute_force_bayes_error, validate_joint
from misbounds.bayes import error_of_labels

EXAMPLE = validate_joint([[0.4, 0.1], [0.1, 0.4]])


def random_model(rng, k, n):
    w = rng.random((k, n))
    return validate_joint(w / w.sum())


class TestErrorOfLabels:
    def test_matched_rule(self):
        assert error_of_labels(EXAMPLE.w, np.array([0, 1])) == pytest.approx(0.2)

    def test_anti_matched_rule(self):
        assert error_of_labels(EXAMPLE.w, np.array([1, 0])) == pytest.approx(0.8)

    def test_perfect_rule_has_zero_error(self):
        # all mass on the first row, rule always answers the first class
        m = validate_joint([[0.3, 0.7], [0.0, 0.0]])
        assert error_of_labels(m.w, np.array([0, 0])) == pytest.approx(0.0, abs=1e-15)

    def test_stack_gives_each_model_its_own_error(self):
        rng = np.random.default_rng(11)
        w = np.stack([random_model(rng, 3, 4).w for _ in range(6)]).reshape(2, 3, 3, 4)
        labels = rng.integers(0, 3, size=(2, 3, 4))
        errors = error_of_labels(w, labels)
        assert errors.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert errors[i, j] == error_of_labels(w[i, j], labels[i, j])

    def test_leaves_the_masses_unchanged(self):
        w = EXAMPLE.w.copy()
        error_of_labels(w, np.array([0, 1]))
        np.testing.assert_array_equal(w, EXAMPLE.w)


class TestBayesError:
    def test_example_model(self):
        assert bayes_error(EXAMPLE) == pytest.approx(0.2)

    def test_equals_one_minus_column_maxima(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = random_model(rng, int(rng.integers(2, 8)), int(rng.integers(1, 7)))
            assert bayes_error(m) == pytest.approx(1.0 - m.w.max(axis=0).sum(), abs=1e-14)

    def test_tied_column_counts_its_mass_off_once(self):
        m = validate_joint([[0.2, 0.0], [0.2, 0.6]])
        assert bayes_error(m) == brute_force_bayes_error(m) == 0.2

    def test_tiny_error_of_bayes_rule_is_exact(self):
        # 1 - (sum of hits) would cancel 1e-15 to 9.992e-16
        m = validate_joint([[0.5 - 1e-15, 0.5], [1e-15, 0.0]])
        assert error_of_labels(m.w, np.array([0, 0])) == bayes_error(m) == 1e-15

    def test_identical_subdistributions_hit_upper_extreme(self):
        for k in (2, 3, 5):
            m = validate_joint(np.full((k, 3), 1.0 / (3 * k)))
            assert bayes_error(m) == pytest.approx(1 - 1 / k, abs=1e-14)

    def test_disjoint_supports_give_zero(self):
        m = validate_joint([[0.5, 0.0], [0.0, 0.5]])
        assert bayes_error(m) == pytest.approx(0.0, abs=1e-15)

    def test_range_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            m = random_model(rng, k, int(rng.integers(1, 7)))
            assert -1e-15 <= bayes_error(m) <= 1 - 1 / k + 1e-15

    def test_no_classifier_beats_it(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            k, n = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            m = random_model(rng, k, n)
            star = bayes_error(m)
            labels = rng.integers(0, k, size=n)
            assert error_of_labels(m.w, labels) >= star - 1e-14


class TestBruteForce:
    def test_example_model(self):
        assert brute_force_bayes_error(EXAMPLE) == pytest.approx(0.2)

    def test_uniform_model_any_rule_is_optimal(self):
        m = validate_joint(np.full((3, 3), 1.0 / 9))
        assert brute_force_bayes_error(m) == pytest.approx(2 / 3, abs=1e-14)

    def test_agrees_with_closed_form_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            k, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
            m = random_model(rng, k, n)
            assert abs(brute_force_bayes_error(m) - bayes_error(m)) <= 1e-12

    def test_chunking_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(37)
        m = random_model(rng, 3, 7)
        whole = brute_force_bayes_error(m)
        monkeypatch.setattr(bayes, "BRUTE_FORCE_CHUNK", 5)
        assert brute_force_bayes_error(m) == whole

    def test_tiny_error_is_exact(self):
        # scoring a rule as 1 - (its hit mass) would cancel 1e-15 to 9.992e-16
        m = validate_joint([[0.5 - 1e-15, 0.5], [1e-15, 0.0]])
        assert brute_force_bayes_error(m) == bayes_error(m) == 1e-15

    def test_tail_models_match_bayes_error_relatively(self):
        # the Bayes rule's miss mass is summed from the same nonnegative entries
        for q in (1e-13, 1e-100, 1e-300):
            m = validate_joint([[0.5 - q, 0.25, 0.25], [q, 0.0, 0.0]])
            assert brute_force_bayes_error(m) == pytest.approx(bayes_error(m), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 130, 1025])
    def test_miss_table_is_the_mass_off_each_label(self, k):
        w = np.random.default_rng(k).random((k, 3))
        want = [[math.fsum(np.delete(w[:, x], y)) for x in range(3)] for y in range(k)]
        np.testing.assert_allclose(bayes._miss_table(w), want, rtol=1e-14, atol=0.0)

    def test_million_classes_stay_within_verify_tolerance(self):
        # one running sum down all 10^6 rows drifts 1.3e-11 here; blocked sums
        # keep the error near 2 sqrt(k) eps
        m = validate_joint(np.full((10**6, 1), 1e-6))
        assert abs(brute_force_bayes_error(m) - bayes_error(m)) <= 1e-12

    def test_guard_rejects_huge_instances(self):
        rng = np.random.default_rng(41)
        m = random_model(rng, 8, 9)
        with pytest.raises(TooLargeError):
            brute_force_bayes_error(m)
