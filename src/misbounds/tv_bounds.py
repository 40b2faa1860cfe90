"""Total-variation bounds on the Bayes error.

The separation statistic Delta sums the total variation distances over all
label pairs of the joint sub-measures; it ranges from 0 (indistinguishable
classes) to k-1 (pairwise disjoint supports), and one kernel, separations,
computes it for models, profiles and stacks alike.  The Bayes error is
pinned between an affine lower bound L and a piecewise-linear upper bound U
of Delta, and both are attained by explicit posterior profiles.  An
exhaustive oracle certifies the chain, attainment and strictness on simplex
grids i/N as signs of cross-multiplied integers, with no float tolerance.
Every check depends only on the sorted profile, so the oracle walks the
partitions of N, weighted by their orderings; Fractions appear only in the
violations it reports, one per ordering of a failing partition.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import OutOfRangeError
from .model import SIZE_LIMIT, JointModel, PosteriorProfile, clamp, clamp_array, integer_at_least, require_at_most, require_class_counts, require_classes

# Clamp slack: a separation up to this far outside [0, k-1], or an entropy
# this far below 0 in upper_fm, is float overshoot and is clamped onto the
# end; beyond it the value is refused.  No ceiling uses it: U and U_FM are
# continuous at their knots, so a plain ceiling that rounding carries just
# past a knot picks a piece whose value there is the same.
INTEGER_SNAP = 1e-9


@dataclass(frozen=True)
class DeltaValue:
    """Pairwise total-variation sum together with its class count."""

    delta: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "delta", _into_domain(self.k, self.delta))


def _into_domain(k: int, delta: float) -> float:
    """Check k, then clamp delta into [0, k-1], allowing INTEGER_SNAP of float overshoot."""
    require_classes(k)
    return clamp(delta, 0.0, float(k - 1), INTEGER_SNAP, OutOfRangeError, "delta")


def separations(w: np.ndarray) -> np.ndarray:
    """Unclamped sum over row pairs y < z of sum_x |w[y,x] - w[z,x]|, per k x n model of a (..., k, n) stack.

    For ascending a_(1) <= ... <= a_(k), sum_{i<j} |a_i - a_j| equals
    sum_i (2i - k - 1) a_(i), Gini's mean-difference identity, so the rank
    weights apply to the row sums of the sorted columns: O(kn log k).  One
    stacked (1, k) @ (k, 1) product per model gives each model of a stack
    the bits it gets alone, which a (B, k) @ ranks product does not.
    """
    k = w.shape[-2]
    ranks = np.arange(1 - k, k, 2, dtype=float)
    sums = np.sort(w, axis=-2).sum(axis=-1)
    return np.matmul(sums[..., None, :], ranks[:, None])[..., 0, 0]


def delta(model: JointModel) -> DeltaValue:
    """Sum over label pairs y < z of sum_x |w[y,x] - w[z,x]|."""
    return DeltaValue(delta=float(separations(model.w)), k=model.k)


def delta_of_profile(profile: PosteriorProfile) -> DeltaValue:
    """Separation of a single posterior profile, the k x 1 model it is."""
    return DeltaValue(delta=float(separations(profile.a[:, None])), k=profile.k)


# The envelope formulas, written once for a float or an array of separations d
# already in [0, k-1], with the ceiling that matches d: math.ceil for a float,
# np.ceil for an array.  Each public bound below is its guard, _into_domain,
# then its body; a report, whose DeltaValue has checked k and clamped d, and
# envelope_columns call the bodies.


def _lower(k, d):
    return 1.0 - (1.0 + d) / k


def _top(k, d, m):
    """Height of the flat top block of the profile that attains U; U = 1 - top."""
    return (k + 1 + d - 2 * m) / ((k - m) * (k + 1 - m))


def _upper(k, d, ceil):
    return 1.0 - _top(k, d, ceil(d))


def _upper_simpl(k, d):
    return 1.0 - 1.0 / (k - d)


def lower_bound(k: int, delta: float) -> float:
    """L(delta) = 1 - (1 + delta)/k, affine from 1 - 1/k down to 0."""
    return _lower(k, _into_domain(k, delta))


def upper_bound(k: int, delta: float) -> float:
    """Tight upper bound: linear interpolation of 1 - 1/(k - m) between integers m."""
    return _upper(k, _into_domain(k, delta), math.ceil)


def upper_bound_simpl(k: int, delta: float) -> float:
    """Smooth relaxation 1 - 1/(k - delta); ties upper_bound exactly at integers."""
    return _upper_simpl(k, _into_domain(k, delta))


def envelope_columns(k, delta) -> dict:
    """The clamped separations and L, U, U_simpl at each, over an array of separations.

    k is one class count or an integer array of them, one per separation.
    The separations are clamped as lower_bound, upper_bound and
    upper_bound_simpl clamp them, then go through those functions' bodies.
    """
    k = require_class_counts(k)
    d = clamp_array(delta, 0.0, k - 1.0, INTEGER_SNAP, OutOfRangeError, "delta")
    return {
        "delta": d,
        "L": _lower(k, d),
        "U": _upper(k, d, np.ceil),
        "U_simpl": _upper_simpl(k, d),
    }


def extremal_low_profile(k: int, d: float) -> PosteriorProfile:
    """Profile attaining the lower bound: one lifted entry over a flat tail."""
    d = _into_domain(k, d)
    require_at_most(k, SIZE_LIMIT, "classes")
    a = np.full(k, 1.0 / k - d / (k * (k - 1.0)))
    a[0] = (1.0 + d) / k
    return PosteriorProfile(a=a)


def extremal_high_profile(k: int, d: float) -> PosteriorProfile:
    """Profile attaining the upper bound: a flat top block, one remainder, zeros."""
    d = _into_domain(k, d)
    require_at_most(k, SIZE_LIMIT, "classes")
    m = math.ceil(d)
    top = _top(k, d, m)
    a = np.zeros(k)
    a[: k - m] = top
    if m >= 1:
        a[k - m] = (m - d) / (k + 1 - m)
    return PosteriorProfile(a=a)


# --- exact integer grid oracle ----------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Outcome of an exhaustive exact check of one simplex grid."""

    k: int
    N: int
    checked: int
    low_equalities: int
    high_equalities: int
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def _partitions(total: int, parts: int):
    """Each partition of total into at most `parts` positive parts, as a nonincreasing tuple.

    Partitions come in reverse lexicographic order.  The next one lowers the
    rightmost part that can give up one unit and still leave room for what
    follows it, then refills the tail greedily.  Only the nonzero parts are
    held, so the cost does not grow with `parts`.
    """
    if total == 0:
        yield ()
        return
    a = [total]
    while True:
        yield tuple(a)
        rest = 1  # the unit taken from a[i], plus every part after it
        for i in range(len(a) - 1, -1, -1):
            v = a[i] - 1
            if v and (parts - 1 - i) * v >= rest:
                break
            rest += a[i]
        else:
            return
        del a[i:]
        q, r = divmod(rest, v)
        a += [v] * (q + 1)
        if r:
            a.append(r)


def _orderings(partition: tuple, k: int) -> int:
    """Number of distinct orderings of the partition padded with zeros to k entries.

    k!/(z! * prod n_v!) over the value counts n_v and z zeros, taken as a
    product of binomials so that a huge k costs no factorial.
    """
    count = 1
    free = k
    for v in set(partition):
        n = partition.count(v)
        count *= math.comb(free, n)
        free -= n
    return count


def _distinct_orderings(c):
    """Each distinct ordering of the sequence c once, in lexicographic order."""
    a = sorted(c)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[: i : -1]


def _upper_segment(k: int, N: int, m: int) -> tuple:
    """(P, T - D) on the segment whose separation has ceiling m, scaled by N.

    On segment m, U = 1 - T/(N P) with P = (k-m)(k+1-m) and
    T = N(k+1-2m) + D, where D = N*delta.
    """
    return (k - m) * (k + 1 - m), N * (k + 1 - 2 * m)


def _scaled_low_profile(k: int, N: int, D: int):
    """N times the low extremal profile, sorted descending, or None if not integral.

    One entry (N + D)/k, then k - 1 entries (kN - N - D)/(k(k-1)).
    """
    head, head_rest = divmod(N + D, k)
    tail, tail_rest = divmod(k * N - N - D, k * (k - 1))
    return None if head_rest or tail_rest else [head] + [tail] * (k - 1)


def _scaled_high_profile(k: int, N: int, D: int, m: int, P: int, T: int):
    """N times the high extremal profile, sorted descending, or None if not integral.

    k - m entries T/P, then (if m >= 1) one entry (mN - D)/(k+1-m) and m - 1 zeros.
    """
    top, top_rest = divmod(T, P)
    if m == 0:
        return None if top_rest else [top] * k
    rem, rem_rest = divmod(m * N - D, k + 1 - m)
    return None if top_rest or rem_rest else [top] * (k - m) + [rem] + [0] * (m - 1)


def _violations(comp: tuple, k: int, N: int, D: int, P: int, T: int, sides: list) -> list:
    """The recorded (profile, delta, value, bound, side) of each failed check, in Fractions."""
    d = Fraction(D, N)
    value = Fraction(N - max(comp), N)
    L = Fraction(k * N - N - D, k * N)
    U = Fraction(N * P - T, N * P)
    U_simpl = Fraction(k * N - D - N, k * N - D)
    compared = {
        "below_lower": (value, L),
        "above_upper": (value, U),
        "upper_chain": (U, U_simpl),
        "integer_tie": (U, U_simpl),
        "strictness": (U, U_simpl),
        "low_iff": (value, L),
        "high_iff": (value, U),
    }
    return [(comp, d, *compared[side], side) for side in sides]


def simplex_grid_oracle(k: int, N: int) -> OracleReport:
    """Certify the bound chain and its equality cases on the whole i/N grid.

    Every profile a = c/N with an integer composition c is checked exactly:
    the chain L <= 1 - max <= U <= U_simpl must hold, U must tie U_simpl
    exactly at integer delta and beat it strictly otherwise, and equality at
    either end must occur precisely when the profile is a permutation of the
    matching extremal profile.  Each check depends only on c sorted
    descending, for which D = N*delta = sum_i (k+1-2i) c_(i), so the loop
    runs over the partitions of N into at most k parts, and each partition
    counts once per distinct ordering in checked and the equality counts.
    Every check is the sign of a cross-multiplied integer; Fractions are
    built only to record a violation, once per ordering of a failing
    partition.  k and N are taken as Python ints, so no check runs in
    fixed-width numpy integers.
    """
    k = require_classes(k)
    N = integer_at_least(N, "N", 1)
    require_at_most(math.comb(N + k - 1, k - 1), SIZE_LIMIT, "grid profiles")

    ranks = range(k - 1, -k, -2)
    checked = 0
    low_eq = 0
    high_eq = 0
    violations = []
    for part in _partitions(N, k):
        D = sum(map(operator.mul, ranks, part))
        m = -(-D // N)
        P, T = _upper_segment(k, N, m)
        T += D
        low_gap = N + D - k * part[0]  # kN (p* - L)
        high_gap = part[0] * P - T  # NP (U - p*)
        simpl_gap = T * (k * N - D) - N * N * P  # NP (kN - D) (U_simpl - U)
        tie = D == m * N
        orderings = _orderings(part, k)
        checked += orderings
        if low_gap > 0 and high_gap > 0 and simpl_gap > 0 and not tie:
            continue

        c = list(part) + [0] * (k - len(part))
        sides = []
        if low_gap < 0:
            sides.append("below_lower")
        if high_gap < 0:
            sides.append("above_upper")
        if simpl_gap < 0:
            sides.append("upper_chain")
        if tie and simpl_gap != 0:
            sides.append("integer_tie")
        if not tie and simpl_gap <= 0:
            sides.append("strictness")
        # An extremal profile's largest entry is the complement of its bound,
        # so it can match only where equality holds; compare it there.
        if low_gap == 0:
            low_eq += orderings
            if c != _scaled_low_profile(k, N, D):
                sides.append("low_iff")
        if high_gap == 0:
            high_eq += orderings
            if c != _scaled_high_profile(k, N, D, m, P, T):
                sides.append("high_iff")
        if sides:
            for comp in _distinct_orderings(c):
                violations.extend(_violations(comp, k, N, D, P, T, sides))

    violations.sort(key=lambda v: v[0])
    return OracleReport(
        k=k,
        N=N,
        checked=checked,
        low_equalities=low_eq,
        high_equalities=high_eq,
        violations=tuple(violations),
    )
