"""Parametric model families used by the sweeps and comparison scans.

Each constructor returns a posterior profile (sorted nonincreasing; every
downstream statistic is permutation-invariant) or, for the pure family, a
full joint model whose columns all share one profile up to relabeling.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    BadParamError,
    BadPermutationError,
    BadWeightsError,
    OutOfDomainError,
    TooLargeError,
)
from .model import MASS_TOL, JointModel, PosteriorProfile, clamp, integer, validate_profile

PROFILE_SIZE_LIMIT = 10**7


class DomainWarning(UserWarning):
    """Parameters are legal but outside a guarantee's proven range."""


def _require_profile_size(k: int) -> None:
    if k > PROFILE_SIZE_LIMIT:
        raise TooLargeError(f"k={k} exceeds limit {PROFILE_SIZE_LIMIT}")


def pure_model(profile: PosteriorProfile, weights, perms) -> JointModel:
    """Assemble a joint model whose every posterior is `profile` relabeled.

    Column x places weights[x] * a_i at row perms[x][i].  Permutations are
    1-based label sequences; weights must be strictly positive and sum to 1.
    """
    a = profile.a
    k = profile.k
    w_vec = np.asarray(weights, dtype=float)
    if w_vec.ndim != 1 or w_vec.size == 0:
        raise BadWeightsError(f"weights must be a nonempty vector, got shape {w_vec.shape}")
    if not np.all(w_vec > 0):
        raise BadWeightsError("weights must be strictly positive")
    if abs(float(w_vec.sum()) - 1.0) > MASS_TOL:
        raise BadWeightsError(f"weights sum to {float(w_vec.sum())!r}, must be 1")
    n = w_vec.size
    if len(perms) != n:
        raise BadPermutationError(f"need {n} permutations, got {len(perms)}")
    w = np.zeros((k, n))
    for x, perm in enumerate(perms):
        rows = np.asarray(perm, dtype=np.int64)
        if rows.shape != (k,) or set(rows.tolist()) != set(range(1, k + 1)):
            raise BadPermutationError(f"permutation {x + 1} is not a bijection on 1..{k}")
        w[rows - 1, x] = w_vec[x] * a
    return JointModel(w=w)


def binomial_profile(m: int, q: float) -> PosteriorProfile:
    """Profile of length 2^m: values (1-q)^j q^(m-j), each with multiplicity C(m, j)."""
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise BadParamError(f"m={m!r} must be an integer >= 1")
    if not 0.0 < q < 1.0:
        raise BadParamError(f"q={q!r} must lie in (0, 1)")
    if 2**m > PROFILE_SIZE_LIMIT:
        raise TooLargeError(f"2^{m} entries exceeds limit {PROFILE_SIZE_LIMIT}")
    j = np.arange(m + 1)
    values = (1.0 - q) ** j * q ** (m - j)
    counts = [math.comb(m, int(jj)) for jj in j]
    a = np.repeat(values, counts)
    return PosteriorProfile(a=np.sort(a)[::-1].copy())


def exponential_profile(k: int, q: float) -> PosteriorProfile:
    """Profile a_i proportional to (1-q)^(i-1) q^(k-i), i = 1..k.

    The geometric-sum normalizer has the closed form
    ((1-q)^k - q^k) / (1-2q), but subtracting two nearly equal k-th powers
    loses most significant digits as q approaches 1/2, so a direct k-term
    sum takes over inside |1-2q| < 1e-4.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise BadParamError(f"k={k!r} must be an integer >= 2")
    if not 0.0 < q < 1.0:
        raise BadParamError(f"q={q!r} must lie in (0, 1)")
    _require_profile_size(k)
    i = np.arange(1, k + 1, dtype=float)
    log_terms = (i - 1.0) * math.log1p(-q) + (k - i) * math.log(q)
    if float(log_terms.max()) < -690.0:
        # every raw term underflows; normalize in a shifted scale instead
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
    return PosteriorProfile(a=np.sort(a)[::-1].copy())


def three_class_profile(p: float, eps: float) -> PosteriorProfile:
    """Three-class profile (1-p, p-eps, eps); its pure model has Bayes error p."""
    slack = 1e-12
    p = clamp(p, 0.0, 2.0 / 3.0, slack, OutOfDomainError, "p")
    eps = clamp(eps, max(2.0 * p - 1.0, 0.0), p / 2.0, slack, OutOfDomainError, "eps")
    return PosteriorProfile(a=np.array([1.0 - p, p - eps, eps]))


def comp_lo_guaranteed(k: int) -> set:
    """Support sizes ell for which comp_lo's lower-bound advantage is proven."""
    ells = {k - 3, k - 2, k - 1}
    if 6 <= k <= 9:
        ells.add(k - 4)
    return {e for e in ells if e >= 2}


def comp_lo_profile(k: int, ell: int) -> PosteriorProfile:
    """Uniform profile on the first `ell` of k classes: ell entries 1/ell, then 0."""
    if not (isinstance(k, (int, np.integer)) and k >= 3):
        raise BadParamError(f"k={k!r} must be an integer >= 3")
    if not (isinstance(ell, (int, np.integer)) and 2 <= ell <= k):
        raise BadParamError(f"ell={ell!r} must be an integer in 2..{k}")
    _require_profile_size(k)
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


def _require_comp_hi_params(k, nu: float) -> None:
    """nu > 1, and k an integer, or an integer array, above nu (so never a boolean)."""
    if not nu > 1.0:
        raise BadParamError(f"nu={nu!r} must exceed 1")
    if isinstance(k, np.ndarray):
        integral = k.dtype.kind in "iu"
    else:
        integral = isinstance(k, (int, np.integer))
    if not (integral and np.all(k > nu)):
        raise BadParamError(f"k={k!r} must be an integer > nu={nu}")


def comp_hi_profile(k: int, nu: float) -> PosteriorProfile:
    """One dominant entry 1-(nu-1)/k over a flat tail; separation k - nu."""
    _require_comp_hi_params(k, nu)
    _require_profile_size(k)
    a = np.full(k, (nu - 1.0) / (k * (k - 1.0)))
    a[0] = 1.0 - (nu - 1.0) / k
    return PosteriorProfile(a=a)


def comp_hi_stats(k, nu: float) -> dict:
    """Closed-form separation, entropy, and Bayes error of comp_hi_profile.

    O(1) regardless of k, which keeps crossover scans over k up to 10^4
    cheap; values match the constructed profile to float accuracy.  k is one
    class count, giving floats, or an integer array of them, giving arrays.
    """
    _require_comp_hi_params(k, nu)
    kf = np.asarray(k, dtype=float)
    top = 1.0 - (nu - 1.0) / kf
    tail = (nu - 1.0) / (kf * (kf - 1.0))
    # 0 ln 0 = 0, for an entry that underflows at huge k
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(top > 0.0, -top * np.log(top), 0.0) - np.where(
            tail > 0.0, (kf - 1.0) * tail * np.log(tail), 0.0
        )
    stats = {"delta": kf - nu, "entropy_nats": h, "p_star": (nu - 1.0) / kf}
    return stats if kf.ndim else {key: float(value) for key, value in stats.items()}


def qpsk_q(eb_n0: float) -> float:
    """Crossover probability of a coherent QPSK symbol decision at E_b/N_0.

    Standard normal tail at sqrt(2 * E_b/N_0), via the complementary error
    function: Q(x) = erfc(x / sqrt 2) / 2.
    """
    if not eb_n0 > 0.0:
        raise BadParamError(f"eb_n0={eb_n0!r} must be positive")
    x = math.sqrt(2.0 * eb_n0)
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _reals(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _integer_rows(value) -> list:
    return [[integer(label) for label in row] for row in value]


# family -> (constructor, {parameter: conversion}), parameters in argument order;
# the conversions refuse values of the wrong type instead of coercing them.
FAMILIES = {
    "pure": (pure_model, {"a": validate_profile, "weights": _reals, "perms": _integer_rows}),
    "binomial": (binomial_profile, {"m": integer, "q": float}),
    "exponential": (exponential_profile, {"k": integer, "q": float}),
    "three_class": (three_class_profile, {"p": float, "eps": float}),
    "comp_lo": (comp_lo_profile, {"k": integer, "ell": integer}),
    "comp_hi": (comp_hi_profile, {"k": integer, "nu": float}),
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
