"""Batched family constructors against the scalar ones, row by row and bit for bit.

The reference constructors are the scalar ones as they were written before
the families were batched: one profile per call, each branch of the
exponential normalizer an `if`.  Every row of a stack must equal both the
reference and today's scalar constructor exactly, across every branch.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from misbounds import (
    BadParamError,
    OutOfDomainError,
    binomial_profile,
    binomial_profiles,
    exponential_profile,
    exponential_profiles,
    three_class_profile,
    three_class_profiles,
)


def reference_binomial(m: int, q: float) -> np.ndarray:
    j = np.arange(m + 1)
    values = (1.0 - q) ** j * q ** (m - j)
    counts = [math.comb(m, int(jj)) for jj in j]
    return np.sort(np.repeat(values, counts))[::-1]


def reference_exponential(k: int, q: float) -> np.ndarray:
    i = np.arange(1, k + 1, dtype=float)
    log_terms = (i - 1.0) * math.log1p(-q) + (k - i) * math.log(q)
    if float(log_terms.max()) < -690.0:
        scaled = np.exp(log_terms - log_terms.max())
        a = scaled / scaled.sum()
    else:
        terms = (1.0 - q) ** (i - 1.0) * q ** (k - i)
        if q == 0.5:
            c = k * 2.0 ** (1 - k)
        elif abs(1.0 - 2.0 * q) >= 1e-4:
            c = ((1.0 - q) ** k - q**k) / (1.0 - 2.0 * q)
        else:
            c = float(terms.sum())
        a = terms / c
    return np.sort(a)[::-1]


def reference_three_class(p: float, eps: float) -> np.ndarray:
    p = min(max(p, 0.0), 2.0 / 3.0)
    eps = min(max(eps, max(2.0 * p - 1.0, 0.0)), p / 2.0)
    return np.array([1.0 - p, p - eps, eps])


def assert_rows_exact(stack: np.ndarray, scalar, reference, params):
    assert stack.shape[0] == len(params)
    assert stack.flags.c_contiguous
    for row, args in zip(stack, params):
        assert np.array_equal(row, scalar(*args).a), args
        assert np.array_equal(row, reference(*args)), args


def underflows(k: int, q: float) -> bool:
    """True when every raw term (1-q)^(i-1) q^(k-i) underflows: the shifted-scale branch."""
    return (k - 1) * math.log(max(q, 1.0 - q)) < -690.0


# q drawn from every branch: tiny, near 1/2, exactly 1/2, and the whole unit interval
Q = st.one_of(
    st.floats(min_value=1e-300, max_value=1e-3),
    st.floats(min_value=0.5 - 2e-4, max_value=0.5 + 2e-4),
    st.just(0.5),
    st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
)


@given(k=st.one_of(st.integers(2, 40), st.sampled_from([100, 997, 998, 2000, 4096])), qs=st.lists(Q, max_size=8))
def test_exponential_rows_equal_the_scalar_profiles(k, qs):
    stack = exponential_profiles(k, qs)
    assert stack.shape == (len(qs), k)
    assert_rows_exact(stack, exponential_profile, reference_exponential, [(k, q) for q in qs])


@given(m=st.integers(1, 10), qs=st.lists(Q, max_size=8))
def test_binomial_rows_equal_the_scalar_profiles(m, qs):
    stack = binomial_profiles(m, qs)
    assert stack.shape == (len(qs), 2**m)
    assert_rows_exact(stack, binomial_profile, reference_binomial, [(m, q) for q in qs])


@given(pairs=st.lists(st.tuples(st.floats(0.0, 2.0 / 3.0), st.floats(0.0, 1.0)), max_size=8))
def test_three_class_rows_equal_the_scalar_profiles(pairs):
    # eps as a fraction of its feasible range [max(2p-1, 0), p/2]
    params = [(p, lo + t * (p / 2.0 - lo)) for p, t in pairs for lo in [max(2.0 * p - 1.0, 0.0)]]
    stack = three_class_profiles([p for p, _ in params], [eps for _, eps in params])
    assert stack.shape == (len(params), 3)
    assert_rows_exact(stack, three_class_profile, reference_three_class, params)


@pytest.mark.parametrize(
    "k, qs",
    [
        (5, [0.5]),
        (8, [0.5, 0.3, 0.5]),
        (6, [0.5 - 3e-5, 0.5 + 3e-5, 0.5 - 1e-4, 0.5 + 1e-4, 0.49999, 0.3]),
        (4096, [1e-200, 0.3, 0.5, 0.05, 1e-13]),
        (2000, [0.5, 0.5 - 3e-5, 0.2]),
        (2, [0.3]),
        (2, [1e-13, 1e-200, 0.999999]),
    ],
)
def test_exponential_branches_pinned(k, qs):
    assert_rows_exact(exponential_profiles(k, qs), exponential_profile, reference_exponential, [(k, q) for q in qs])


def test_pinned_cases_reach_the_underflow_branch():
    assert underflows(4096, 0.3) and underflows(4096, 0.5) and underflows(2000, 0.5 - 3e-5)
    assert not underflows(4096, 1e-200) and not underflows(4096, 0.05)


@pytest.mark.parametrize(
    "stack, width",
    [
        (lambda: exponential_profiles(2, []), 2),
        (lambda: binomial_profiles(1, []), 2),
        (lambda: three_class_profiles([], []), 3),
    ],
)
def test_empty_stack(stack, width):
    assert stack().shape == (0, width)


def test_k_two_single_row():
    assert_rows_exact(exponential_profiles(2, [0.3]), exponential_profile, reference_exponential, [(2, 0.3)])
    assert_rows_exact(binomial_profiles(1, [0.3]), binomial_profile, reference_binomial, [(1, 0.3)])


def assert_same_refusal(error, stack, scalar):
    with pytest.raises(error) as batched:
        stack()
    with pytest.raises(error) as single:
        scalar()
    assert str(batched.value) == str(single.value)
    return str(single.value)


@pytest.mark.parametrize("q", [math.nan, 0.0, 1.0, -0.1, 1.2, math.inf, -math.inf])
def test_bad_q_refused_as_the_scalar_refuses_it(q):
    message = assert_same_refusal(
        BadParamError, lambda: exponential_profiles(8, [0.3, q, 0.2]), lambda: exponential_profile(8, q)
    )
    assert message == f"q={q!r} must lie in (0, 1)"
    assert_same_refusal(BadParamError, lambda: binomial_profiles(3, [q]), lambda: binomial_profile(3, q))


def test_boolean_q_refused():
    for build in (exponential_profile, binomial_profile):
        with pytest.raises(BadParamError, match=r"^q=True must lie in \(0, 1\)$"):
            build(3, True)


@pytest.mark.parametrize("k", [True, False, 3.0, 2.5, "8", None])
def test_bad_k_refused_as_the_scalar_refuses_it(k):
    message = assert_same_refusal(
        BadParamError, lambda: exponential_profiles(k, [0.3]), lambda: exponential_profile(k, 0.3)
    )
    assert message == f"k={k!r} must be an integer >= 2"


@pytest.mark.parametrize("m", [True, 0, 1.0, 1.5, "3"])
def test_bad_m_refused_as_the_scalar_refuses_it(m):
    message = assert_same_refusal(
        BadParamError, lambda: binomial_profiles(m, [0.3]), lambda: binomial_profile(m, 0.3)
    )
    assert message == f"m={m!r} must be an integer >= 1"


def test_numpy_integer_parameters_accepted():
    assert np.array_equal(exponential_profiles(np.int64(3), [0.3])[0], reference_exponential(3, 0.3))
    assert np.array_equal(binomial_profiles(np.int32(2), [0.3])[0], reference_binomial(2, 0.3))


def test_q_must_be_a_sequence_of_reals():
    with pytest.raises(TypeError):
        exponential_profiles(3, [[0.3]])
    with pytest.raises(TypeError):
        binomial_profile(2, [0.3])
    with pytest.raises(TypeError):
        exponential_profile(3, "0.3")


@pytest.mark.parametrize("eps", [[0.01], [0.01, 0.02, 0.03]])
def test_three_class_sequences_of_unequal_length_refused(eps):
    with pytest.raises(BadParamError, match="p and eps must match in length"):
        three_class_profiles([0.1, 0.2], eps)


@pytest.mark.parametrize("p, eps", [(0.7, 0.3), (0.3, 0.2), (0.6, 0.1), (math.nan, 0.1), (0.3, math.nan)])
def test_three_class_domain_refused_as_the_scalar_refuses_it(p, eps):
    assert_same_refusal(
        OutOfDomainError,
        lambda: three_class_profiles([0.3, p], [0.1, eps]),
        lambda: three_class_profile(p, eps),
    )
