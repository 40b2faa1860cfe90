"""Parametric model families used by the sweeps, the comparison scans and `report --family`.

Each constructor returns a posterior profile (sorted nonincreasing; every
downstream statistic is permutation-invariant) or, for the pure family, a
full joint model whose columns all share one profile up to relabeling.
from_spec builds any of the six from a {"family": name, ...} mapping.

The binomial, exponential and three-class families are written once, as
batched constructors (``binomial_profiles``, ``exponential_profiles``,
``three_class_profiles``) that return a (B, k) stack with one profile per
parameter; the figure sweeps build one stack per grid.  Each scalar
constructor is the B = 1 row of its stack, with the same guards, so a row
of a stack equals the scalar profile bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import BadParamError, BadPermutationError, BadWeightsError, OutOfDomainError
from .model import MASS_TOL, SIZE_LIMIT, JointModel, PosteriorProfile, clamp_array, floats, integer, integer_at_least, real, require_at_most, require_class_counts, require_classes, validate_profile


class DomainWarning(UserWarning):
    """Parameters are legal but outside a guarantee's proven range."""


def pure_model(profile: PosteriorProfile, weights, perms) -> JointModel:
    """Assemble a joint model whose every posterior is `profile` relabeled.

    Column x places weights[x] * a_i at row perms[x][i].  Permutations are
    1-based label sequences of integers (a float or a bool is refused);
    weights must be strictly positive and sum to 1.
    """
    a = profile.a
    k = profile.k
    w_vec = floats(weights)
    if w_vec.ndim != 1 or w_vec.size == 0:
        raise BadWeightsError(f"weights must be a nonempty vector, got shape {w_vec.shape}")
    if not np.all(w_vec > 0):
        raise BadWeightsError("weights must be strictly positive")
    if abs(float(w_vec.sum()) - 1.0) > MASS_TOL:
        raise BadWeightsError(f"weights sum to {float(w_vec.sum())!r}, must be 1")
    n = w_vec.size
    if len(perms) != n:
        raise BadPermutationError(f"need {n} permutations, got {len(perms)}")
    try:
        rows = _integer_rows(perms)
    except TypeError as exc:
        raise BadPermutationError(f"permutations must hold integer labels: {exc}") from None
    w = np.zeros((k, n))
    for x, perm in enumerate(rows):
        if sorted(perm) != list(range(1, k + 1)):
            raise BadPermutationError(f"permutation {x + 1} is not a bijection on 1..{k}")
        w[np.array(perm) - 1, x] = w_vec[x] * a
    return JointModel(w=w)


def _open_unit(qs) -> np.ndarray:
    """The sequence qs as a float vector; the first entry outside (0, 1), NaN included, is refused."""
    for q in qs:
        if not 0.0 < q < 1.0:
            raise BadParamError(f"q={q!r} must lie in (0, 1)")
    return np.array(qs, dtype=float)


def _descending(a: np.ndarray) -> np.ndarray:
    """Each row of a stack sorted nonincreasing, as a new C-contiguous stack; sorts a in place."""
    a.sort(axis=1)
    return np.ascontiguousarray(a[:, ::-1])


def binomial_profiles(m: int, qs) -> np.ndarray:
    """(B, 2^m) stack of binomial profiles, one row per q in the sequence qs."""
    m = integer_at_least(m, "m", 1)
    q = _open_unit(qs)[:, None]
    # 2^m entries fit under the limit exactly when m is below the limit's bit length
    require_at_most(m, SIZE_LIMIT.bit_length() - 1, "binomial trials")
    j = np.arange(m + 1)
    values = (1.0 - q) ** j * q ** (m - j)
    counts = [math.comb(m, int(jj)) for jj in j]
    return _descending(np.repeat(values, counts, axis=1))


def binomial_profile(m: int, q: float) -> PosteriorProfile:
    """Profile of length 2^m: values (1-q)^j q^(m-j), each with multiplicity C(m, j).

    One row of binomial_profiles.
    """
    return PosteriorProfile(a=binomial_profiles(m, [q])[0])


def _geometric_sum(k: int, q: float, terms: np.ndarray) -> float:
    """sum_i (1-q)^(i-1) q^(k-i) for i = 1..k, given those k terms.

    The closed form ((1-q)^k - q^k) / (1-2q) subtracts two nearly equal k-th
    powers as q nears 1/2, so the direct sum stands inside |1-2q| < 1e-4.
    It is evaluated with math's pow: numpy's vector pow may round differently.
    """
    if q == 0.5:
        return k * 2.0 ** (1 - k)
    if abs(1.0 - 2.0 * q) >= 1e-4:
        return ((1.0 - q) ** k - q**k) / (1.0 - 2.0 * q)
    return float(terms.sum())


def _raw_terms(q: np.ndarray, lead: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Rows (1-q)^(i-1) q^(k-i), one per entry of q, from the exponents lead = i-1, tail = k-i."""
    q = q[:, None]
    return (1.0 - q) ** lead * q**tail


def exponential_profiles(k: int, qs) -> np.ndarray:
    """(B, k) stack of exponential profiles, one row per q in the sequence qs.

    A row holds the raw terms (1-q)^(i-1) q^(k-i) over their _geometric_sum,
    except a row whose every raw term underflows: it holds the terms in a
    shifted scale, exp(log term - largest log term), over their sum.  The
    per-q logarithms come from the math module, as _geometric_sum's powers do.
    """
    k = require_classes(k)
    q = _open_unit(qs)
    require_at_most(k, SIZE_LIMIT, "classes")
    i = np.arange(1, k + 1, dtype=float)
    lead, tail = i - 1.0, k - i
    q_values = q.tolist()
    logs = [(math.log1p(-x), math.log(x)) for x in q_values]
    # a row's largest log term is at least its larger end term, (k-1) max(log(1-q), log q),
    # so no row can underflow throughout while every end term is at least -690
    if all((k - 1) * max(pair) >= -690.0 for pair in logs):
        a = _raw_terms(q, lead, tail)
        low = [False] * len(q_values)
    else:
        pairs = np.array(logs)
        log_terms = lead * pairs[:, :1] + tail * pairs[:, 1:]
        top = log_terms.max(axis=1, keepdims=True)
        low = (top[:, 0] < -690.0).tolist()
        a = np.exp(log_terms - top)
        if not all(low):
            raw = ~np.array(low)
            a[raw] = _raw_terms(q[raw], lead, tail)
    sums = [
        row.sum() if shifted else _geometric_sum(k, x, row)
        for x, row, shifted in zip(q_values, a, low)
    ]
    a /= np.array(sums)[:, None]
    return _descending(a)


def exponential_profile(k: int, q: float) -> PosteriorProfile:
    """Profile a_i proportional to (1-q)^(i-1) q^(k-i), i = 1..k: one row of exponential_profiles."""
    return PosteriorProfile(a=exponential_profiles(k, [q])[0])


def three_class_profiles(p, eps) -> np.ndarray:
    """(B, 3) stack of three-class profiles, one row per pair of equal-length sequences p, eps."""
    if np.shape(p) != np.shape(eps):
        raise BadParamError(f"p and eps must match in length, got shapes {np.shape(p)} and {np.shape(eps)}")
    slack = 1e-12
    p = clamp_array(p, 0.0, 2.0 / 3.0, slack, OutOfDomainError, "p")
    eps = clamp_array(eps, np.maximum(2.0 * p - 1.0, 0.0), p / 2.0, slack, OutOfDomainError, "eps")
    return np.stack([1.0 - p, p - eps, eps], axis=-1)


def three_class_profile(p: float, eps: float) -> PosteriorProfile:
    """Three-class profile (1-p, p-eps, eps); its pure model has Bayes error p.

    One row of three_class_profiles.
    """
    return PosteriorProfile(a=three_class_profiles([p], [eps])[0])


def comp_lo_guaranteed(k: int) -> set:
    """Support sizes ell for which comp_lo's lower-bound advantage is proven."""
    ells = {k - 3, k - 2, k - 1}
    if 6 <= k <= 9:
        ells.add(k - 4)
    return {e for e in ells if e >= 2}


def comp_lo_profile(k: int, ell: int) -> PosteriorProfile:
    """Uniform profile on the first `ell` of k classes: ell entries 1/ell, then 0."""
    k = integer_at_least(k, "k", 3)
    ell = integer_at_least(ell, "ell", 2)
    if ell > k:
        raise BadParamError(f"ell={ell!r} must be an integer in 2..{k}")
    require_at_most(k, SIZE_LIMIT, "classes")
    if ell not in comp_lo_guaranteed(k):
        warnings.warn(
            f"ell={ell} is outside the guaranteed set for k={k}; "
            "the profile is valid but the lower-bound advantage is unproven",
            DomainWarning,
            stacklevel=2,
        )
    a = np.zeros(k)
    a[:ell] = 1.0 / ell
    return PosteriorProfile(a=a)


def _require_comp_hi_params(k, nu: float):
    """k as require_class_counts returns it, once nu > 1 and k is an integer, or an integer array, above nu."""
    if not nu > 1.0:
        raise BadParamError(f"nu={nu!r} must exceed 1")
    if isinstance(k, np.ndarray):
        integral = k.dtype.kind in "iu"
    else:
        integral = isinstance(k, (int, np.integer))
    if not (integral and np.all(k > nu)):
        raise BadParamError(f"k={k!r} must be an integer > nu={nu}")
    return require_class_counts(k)


def comp_hi_profile(k: int, nu: float) -> PosteriorProfile:
    """One dominant entry 1-(nu-1)/k over a flat tail; separation k - nu."""
    k = require_classes(_require_comp_hi_params(k, nu))
    require_at_most(k, SIZE_LIMIT, "classes")
    a = np.full(k, (nu - 1.0) / (k * (k - 1.0)))
    a[0] = 1.0 - (nu - 1.0) / k
    return PosteriorProfile(a=a)


def comp_hi_stats(k, nu: float) -> dict:
    """Closed-form separation, entropy, and Bayes error of comp_hi_profile.

    O(1) regardless of k, which keeps crossover scans over k up to 10^4
    cheap; values match the constructed profile to float accuracy.  k is one
    class count, giving floats, or an integer array of them, giving arrays.
    """
    kf = np.asarray(_require_comp_hi_params(k, nu), dtype=float)
    top = 1.0 - (nu - 1.0) / kf
    tail = (nu - 1.0) / (kf * (kf - 1.0))
    # 0 ln 0 = 0, for an entry that underflows at huge k
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(top > 0.0, -top * np.log(top), 0.0) - np.where(
            tail > 0.0, (kf - 1.0) * tail * np.log(tail), 0.0
        )
    stats = {"delta": kf - nu, "entropy_nats": h, "p_star": (nu - 1.0) / kf}
    return stats if kf.ndim else {key: float(value) for key, value in stats.items()}


def _integer_rows(value) -> list:
    return [[integer(label) for label in row] for row in value]


# family -> (constructor, {parameter: conversion}), parameters in argument order;
# the conversions refuse values of the wrong type instead of coercing them.
FAMILIES = {
    "pure": (pure_model, {"a": validate_profile, "weights": floats, "perms": _integer_rows}),
    "binomial": (binomial_profile, {"m": integer, "q": real}),
    "exponential": (exponential_profile, {"k": integer, "q": real}),
    "three_class": (three_class_profile, {"p": real, "eps": real}),
    "comp_lo": (comp_lo_profile, {"k": integer, "ell": integer}),
    "comp_hi": (comp_hi_profile, {"k": integer, "nu": real}),
}


def from_spec(spec: dict):
    """Build the profile (or pure model) of {"family": name, ...its FAMILIES parameters}."""
    family = spec.get("family") if isinstance(spec, dict) else None
    if not isinstance(family, str) or family not in FAMILIES:
        raise BadParamError(f"family spec must be a mapping with 'family' in {list(FAMILIES)}")
    build, conversions = FAMILIES[family]
    given = [key for key in spec if key != "family"]
    if conversions.keys() != set(given):
        raise BadParamError(f"family {family!r} takes {list(conversions)}, got {given}")
    try:
        args = [convert(spec[key]) for key, convert in conversions.items()]
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParamError(f"bad parameter in {spec}: {exc}") from exc
    return build(*args)
