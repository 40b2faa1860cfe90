"""The one-kernel statistics against the per-shape code they replaced, bit for bit.

Separation, conditional entropy and the Bayes error were each written
separately for scalar models, scalar profiles and (B, k) profile stacks.
The reference functions below are those implementations as they were: the
row-sum rank-weight dot product and its per-row loop over a stack, the
masked p ln p, the entropy summed per posterior column, and the mass off
chosen labels from a zeroed copy.  Every statistic of today's kernels, and
every field of a report, must equal them exactly.  A report's bounds come
from the bodies of the public bound functions, so they are also checked
against those functions, guard and all.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misbounds import (
    BoundsReport,
    DeltaValue,
    EntropyValue,
    MisboundsError,
    PosteriorProfile,
    binomial_profiles,
    bayes_error,
    conditional_entropy,
    delta,
    delta_of_profile,
    entropy_of_profile,
    exponential_profiles,
    lower_bound,
    three_class_profiles,
    upper_bound,
    upper_bound_simpl,
    upper_fm,
    validate_joint,
)
from misbounds.bayes import error_of_labels
from misbounds.entropy import H_SLACK, entropy_columns, lower_fm, posterior_entropies
from misbounds.report import _profile_columns
from misbounds.tv_bounds import envelope_columns, separations

# --- reference implementations ----------------------------------------------


def reference_pairwise_abs_sum(w: np.ndarray) -> float:
    k = w.shape[0]
    ranks = np.arange(1 - k, k, 2, dtype=float)
    return float(ranks @ np.sort(w, axis=0).sum(axis=1))


def reference_profile_separations(profiles: np.ndarray) -> np.ndarray:
    k = profiles.shape[1]
    ranks = np.arange(1 - k, k, 2, dtype=float)
    return np.array([ranks @ row for row in np.sort(profiles, axis=1)])


def reference_plogp(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def reference_conditional_entropy(w: np.ndarray) -> float:
    mu = w.sum(axis=0)
    live = mu > 0
    ratio = w[:, live] / mu[live]
    return -float((mu[live] * reference_plogp(ratio).sum(axis=0)).sum())


def reference_entropy_of_profile(a: np.ndarray) -> float:
    return -float(reference_plogp(a).sum())


def reference_profile_entropies(profiles: np.ndarray) -> np.ndarray:
    return -reference_plogp(profiles).sum(axis=1)


def reference_mass_off(w: np.ndarray, rows: np.ndarray) -> float:
    rest = w.copy()
    rest[rows, np.arange(w.shape[1])] = 0.0
    return float(rest.sum())


def reference_profile_errors(profiles: np.ndarray) -> np.ndarray:
    rest = profiles.copy()
    rest[np.arange(len(rest)), rest.argmax(axis=1)] = 0.0
    return rest.sum(axis=1)


def reference_report(k: int, d: float, h: float, p_star: float):
    """The report of the given statistics, or the error it raises, as (type, text)."""
    try:
        return BoundsReport._evaluate(
            k, DeltaValue(d, k).delta, EntropyValue(h, k).h, p_star
        )
    except MisboundsError as exc:
        return type(exc), str(exc)


def outcome(build):
    try:
        return build()
    except MisboundsError as exc:
        return type(exc), str(exc)


def assert_same_report(ours, reference):
    if isinstance(reference, BoundsReport):
        assert dataclasses.astuple(ours) == dataclasses.astuple(reference)
    else:
        assert ours == reference


# --- strategies -------------------------------------------------------------


@st.composite
def models(draw):
    """k x n unit-mass models, k in 2..8, n in 1..12, with ties, zeros, dead columns and 1e-15 rows."""
    k = draw(st.integers(2, 8))
    n = draw(st.integers(1, 12))
    entry = st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(1e-300, 1e-12)
    )
    w = np.array(draw(st.lists(entry, min_size=k * n, max_size=k * n))).reshape(k, n)
    dead = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    w[:, np.array(dead)] = 0.0
    tiny = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    w[np.array(tiny)] *= 1e-15
    total = w.sum()
    if not total > 0.0:
        w[0, 0] = total = 1.0
    return validate_joint(w / total)


@st.composite
def wide_models(draw):
    """Models with every column live, k in {8, 9, 64, 256, 512} and n in 1..64, with zeros, ties and 1e-15 rows."""
    k = draw(st.sampled_from([8, 9, 64, 256, 512]))
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random((k, n))
    w[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if draw(st.booleans()):
        w = np.round(w, 1)
    w[rng.random(k) < draw(st.sampled_from([0.0, 0.5]))] *= 1e-15
    w[0, w.sum(axis=0) == 0.0] = 1.0
    return validate_joint(w / w.sum())


@st.composite
def profiles(draw):
    """Unit-mass posterior profiles, k in 2..8, with ties, zeros and tiny entries."""
    model = draw(models())
    a = model.w.sum(axis=1)
    return PosteriorProfile(a=a / a.sum())


def family_stack(draw) -> np.ndarray:
    family = draw(st.sampled_from(["exponential", "binomial", "three_class"]))
    count = draw(st.integers(1, 12))
    if family == "three_class":
        p = draw(st.lists(st.floats(0.0, 2.0 / 3.0), min_size=count, max_size=count))
        eps = [draw(st.floats(max(2.0 * x - 1.0, 0.0), x / 2.0)) for x in p]
        return three_class_profiles(p, eps)
    qs = draw(
        st.lists(
            st.one_of(st.floats(1e-300, 0.5), st.sampled_from([0.5, 0.49999, 1e-13, 1e-200])),
            min_size=count,
            max_size=count,
        )
    )
    if family == "binomial":
        return binomial_profiles(draw(st.integers(1, 6)), qs)
    return exponential_profiles(draw(st.integers(2, 300)), qs)


PINNED_STACKS = [
    exponential_profiles(4096, [1e-200]),
    exponential_profiles(4096, [1e-200, 0.3, 0.5, 0.49999]),
    exponential_profiles(2000, [1e-3, 0.01]),
    exponential_profiles(2, [1e-13, 1e-200, 0.5]),
    binomial_profiles(8, [0.005 * i for i in range(1, 101)]),
    three_class_profiles([0.01, 0.3, 0.64, 2.0 / 3.0], [0.0, 0.1, 0.3, 1.0 / 3.0]),
]


# --- models -----------------------------------------------------------------


# A model with every column live takes the posterior path without boolean
# indexing; wide_models checks that its layout keeps the k >= 8 entropy bits.
@settings(max_examples=300)
@given(st.one_of(models(), wide_models()))
def test_model_statistics_match_reference(model):
    w = model.w
    assert float(separations(w)) == reference_pairwise_abs_sum(w)
    assert delta(model).delta == DeltaValue(reference_pairwise_abs_sum(w), model.k).delta
    assert conditional_entropy(model).h == EntropyValue(
        reference_conditional_entropy(w), model.k
    ).h
    assert bayes_error(model) == reference_mass_off(w, w.argmax(axis=0))
    assert float(error_of_labels(w, w.argmax(axis=0))) == bayes_error(model)


@settings(max_examples=200)
@given(models(), st.randoms(use_true_random=False))
def test_error_of_labels_matches_reference(model, random):
    labels = np.array([random.randint(0, model.k - 1) for _ in range(model.n)])
    assert float(error_of_labels(model.w, labels)) == reference_mass_off(model.w, labels)


@settings(max_examples=200)
@given(st.one_of(models(), wide_models()))
def test_from_model_matches_reference_field_by_field(model):
    w = model.w
    reference = reference_report(
        model.k,
        reference_pairwise_abs_sum(w),
        reference_conditional_entropy(w),
        reference_mass_off(w, w.argmax(axis=0)),
    )
    assert_same_report(outcome(lambda: BoundsReport.from_model(model)), reference)


# --- the report's bounds against the public bound functions ------------------


class UncheckedReport(BoundsReport):
    """A report that skips the chain check, so that _evaluate's fields can be read at any statistics."""

    def __post_init__(self):
        pass


@st.composite
def report_arguments(draw):
    """(k, d, h) in domain, as DeltaValue and EntropyValue leave them, with d and h at their edges and knots."""
    k = draw(st.one_of(st.integers(2, 9), st.integers(10, 10**7)))
    top = float(k - 1)
    d = draw(
        st.one_of(
            st.floats(0.0, top),
            st.integers(0, k - 1).map(float),
            st.just(top),
            st.tuples(st.integers(0, k - 1), st.floats(-1e-9, 1e-9)).map(lambda m: m[0] + m[1]),
        )
    )
    log_k = math.log(k)
    h = draw(
        st.one_of(
            st.floats(0.0, log_k),
            st.just(0.0),
            st.floats(5e-324, 2.2e-308),
            st.integers(-8, 8).map(lambda j: log_k - H_SLACK + j * math.ulp(log_k)),
            st.floats(log_k - 1e-9, log_k + H_SLACK),
            st.tuples(st.integers(1, k), st.floats(-1e-9, 1e-9)).map(
                lambda m: min(max(math.log(m[0]) + m[1], 0.0), log_k)
            ),
        )
    )
    return k, DeltaValue(d, k).delta, EntropyValue(h, k).h


@settings(max_examples=500)
@given(report_arguments(), st.floats(0.0, 1.0))
def test_report_bounds_equal_the_public_functions(arguments, p_star):
    k, d, h = arguments
    rep = UncheckedReport._evaluate(k, d, h, p_star)
    want = {
        "L": lower_bound(k, d),
        "U": upper_bound(k, d),
        "U_simpl": upper_bound_simpl(k, d),
        "L_FM": lower_fm(k, h),
        "U_FM": upper_fm(h),
    }
    assert {name: getattr(rep, name).hex() for name in want} == {
        name: value.hex() for name, value in want.items()
    }


# --- profiles ---------------------------------------------------------------


@settings(max_examples=200)
@given(profiles())
def test_profile_statistics_match_reference(profile):
    a = profile.a
    assert delta_of_profile(profile).delta == DeltaValue(
        reference_pairwise_abs_sum(a[:, None]), profile.k
    ).delta
    assert entropy_of_profile(profile).h == EntropyValue(
        reference_entropy_of_profile(a), profile.k
    ).h
    assert bayes_error(profile.as_model()) == reference_mass_off(a[:, None], [a.argmax()])


def assert_from_profile_matches_reference(profile):
    a = profile.a
    reference = reference_report(
        profile.k,
        reference_pairwise_abs_sum(a[:, None]),
        reference_entropy_of_profile(a),
        reference_mass_off(a[:, None], [a.argmax()]),
    )
    assert_same_report(outcome(lambda: BoundsReport.from_profile(profile)), reference)


@settings(max_examples=200)
@given(profiles())
def test_from_profile_matches_reference_field_by_field(profile):
    assert_from_profile_matches_reference(profile)


# --- profile stacks ---------------------------------------------------------


def assert_stack_matches_reference(stack: np.ndarray):
    w = stack[..., None]
    seps = separations(w)
    ents = posterior_entropies(w, 1.0)
    errors = error_of_labels(w, w.argmax(axis=-2))
    assert seps.tolist() == reference_profile_separations(stack).tolist()
    assert ents.tolist() == reference_profile_entropies(stack).tolist()
    assert errors.tolist() == reference_profile_errors(stack).tolist()
    # a profile in a stack gets the bits it gets alone
    k = stack.shape[1]
    for i, row in enumerate(stack):
        profile = PosteriorProfile(a=row.copy())
        assert seps[i] == separations(row[:, None])
        assert DeltaValue(seps[i], k).delta == delta_of_profile(profile).delta
        assert EntropyValue(ents[i], k).h == entropy_of_profile(profile).h
        assert errors[i] == bayes_error(profile.as_model())


def assert_profile_columns_match_reference(stack: np.ndarray):
    k = stack.shape[1]
    reference = {
        **envelope_columns(k, reference_profile_separations(stack)),
        **entropy_columns(k, reference_profile_entropies(stack)),
        "p_star": reference_profile_errors(stack),
    }
    reference["L_FM"] = np.array([lower_fm(k, h) for h in reference["entropy_nats"].tolist()])
    ours = _profile_columns(k, stack)
    assert ours.keys() == reference.keys()
    for name, column in reference.items():
        assert ours[name].tolist() == column.tolist(), name


@settings(max_examples=150)
@given(st.data())
def test_family_stacks_match_reference(data):
    stack = family_stack(data.draw)
    assert_stack_matches_reference(stack)
    assert_profile_columns_match_reference(stack)
    assert_from_profile_matches_reference(PosteriorProfile(a=stack[0].copy()))


@pytest.mark.parametrize("stack", PINNED_STACKS, ids=lambda s: f"{s.shape[0]}x{s.shape[1]}")
def test_pinned_stacks_match_reference(stack):
    assert_stack_matches_reference(stack)
    assert_profile_columns_match_reference(stack)
    for row in stack:
        assert_from_profile_matches_reference(PosteriorProfile(a=row.copy()))
