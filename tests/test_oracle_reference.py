"""The integer simplex-grid oracle against an exact-rational reference, its
partition enumerator against the compositions, and the separation chain
checked exactly on whole joint models.

The reference is the oracle as first written, in Fractions: it evaluates
every grid composition directly from the definitions, so it shares neither
the partition walk nor the cross-multiplied integer checks it referees.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from misbounds import tv_bounds
from misbounds.tv_bounds import _distinct_orderings, _orderings, simplex_grid_oracle
from simplex_grids import compositions

# the oracle's enumerator itself, kept here before any test patches it
_partitions = tv_bounds._partitions


def rational_bounds(k, d):
    L = 1 - Fraction(1 + d, k)
    m = math.ceil(d)
    U = 1 - Fraction(k + 1 + d - 2 * m, (k - m) * (k + 1 - m))
    U_simpl = 1 - 1 / Fraction(k - d)
    return L, U, U_simpl, m


def rational_low_profile(k, d):
    tail = Fraction(k - 1 - d, k * (k - 1))
    prof = (Fraction(1 + d, k),) + (tail,) * (k - 1)
    return tuple(sorted(prof, reverse=True))


def rational_high_profile(k, d, top):
    """The high extremal profile, whose top block is top = 1 - U."""
    m = math.ceil(d)
    prof = [top] * (k - m) + [Fraction(0)] * m
    if m >= 1:
        prof[k - m] = Fraction(m - d, k + 1 - m)
    return tuple(sorted(prof, reverse=True))


def reference_oracle(k, N, u_shift=0, grid=compositions):
    """(checked, low_equalities, high_equalities, violations) of the k, N grid, in Fractions.

    The profiles are grid(N, k), every composition of N by default.
    u_shift raises U by u_shift/(N P) on every segment, P = (k-m)(k+1-m),
    as lowering the T of tv_bounds._upper_segment by u_shift does.
    """
    checked = 0
    low_eq = 0
    high_eq = 0
    violations = []
    for comp in grid(N, k):
        a = tuple(Fraction(c, N) for c in comp)
        d = sum(abs(a[i] - a[j]) for i in range(k) for j in range(i + 1, k))
        value = 1 - max(a)
        L, U, U_simpl, m = rational_bounds(k, d)
        U += Fraction(u_shift, N * (k - m) * (k + 1 - m))

        if not L <= value:
            violations.append((comp, d, value, L, "below_lower"))
        if not value <= U:
            violations.append((comp, d, value, U, "above_upper"))
        if not U <= U_simpl:
            violations.append((comp, d, U, U_simpl, "upper_chain"))
        if d == m and U != U_simpl:
            violations.append((comp, d, U, U_simpl, "integer_tie"))
        if d != m and not U < U_simpl:
            violations.append((comp, d, U, U_simpl, "strictness"))

        sorted_desc = tuple(sorted(a, reverse=True))
        at_low = value == L
        at_high = value == U
        if at_low != (sorted_desc == rational_low_profile(k, d)):
            violations.append((comp, d, value, L, "low_iff"))
        if at_high != (sorted_desc == rational_high_profile(k, d, 1 - U)):
            violations.append((comp, d, value, U, "high_iff"))
        low_eq += at_low
        high_eq += at_high
        checked += 1

    violations.sort(key=lambda v: v[0])
    return checked, low_eq, high_eq, violations


def assert_same_report(k, N, u_shift=0, grid=compositions):
    """The oracle's report equals the reference's, field by field; returns it."""
    checked, low_eq, high_eq, violations = reference_oracle(k, N, u_shift, grid)
    got = simplex_grid_oracle(k, N)
    assert (got.checked, got.low_equalities, got.high_equalities) == (checked, low_eq, high_eq)
    assert got.violations == tuple(violations)
    assert got == tv_bounds.OracleReport(k, N, checked, low_eq, high_eq, tuple(violations))
    return got


# Every grid with at most 1,001 profiles, k = 2..6 and N < 60: 135 grids.
SMALL_GRIDS = [
    (k, N) for k in range(2, 7) for N in range(1, 60) if math.comb(N + k - 1, k - 1) <= 1001
]


def test_small_grids_cover_every_class_count():
    assert len(SMALL_GRIDS) == 135
    assert {k for k, _ in SMALL_GRIDS} == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("k", range(2, 7))
def test_integer_oracle_matches_the_fraction_reference(k):
    for grid_k, N in SMALL_GRIDS:
        if grid_k == k:
            assert assert_same_report(k, N).ok


# Grids of up to 5,005 profiles at k = 7 and 8, which SMALL_GRIDS leaves out.
WIDE_GRIDS = [(7, N) for N in range(1, 9)] + [(8, N) for N in range(1, 7)]


@pytest.mark.parametrize("k, N", WIDE_GRIDS)
def test_integer_oracle_matches_the_fraction_reference_at_k_7_and_8(k, N):
    assert assert_same_report(k, N).ok


def _off_grid(enumerate_grid):
    """enumerate_grid over N - 1, N and N + 1, so entries no longer sum to one;
    each kept profile, padded with zeros to k entries, has its separation
    within [0, k-1], so every bound stays defined."""

    def off_grid(N, k):
        for total in (N - 1, N, N + 1):
            for c in enumerate_grid(total, k):
                padded = c + (0,) * (k - len(c))
                if sum(abs(x - y) for x, y in itertools.combinations(padded, 2)) <= (k - 1) * N:
                    yield c

    return off_grid


@pytest.mark.parametrize("k, N", [(2, 6), (3, 6), (3, 7), (4, 5)])
def test_violations_match_the_reference_when_the_checks_fail(monkeypatch, k, N):
    """Break the chain two ways and compare every recorded tuple with the reference.

    Off-grid profiles, the oracle's partitions and the reference's
    compositions of N - 1, N and N + 1, break L <= p*, p* <= U and both iff
    checks; each failing partition must record every one of its orderings,
    in the reference's order.  Raising or lowering U by one grid unit
    breaks U <= U_simpl, the integer tie and strictness.  Together they
    fire all seven sides at k = 3.
    """
    fired = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(tv_bounds, "_partitions", _off_grid(_partitions))
        fired.update(v[4] for v in assert_same_report(k, N, grid=_off_grid(compositions)).violations)
    segment = tv_bounds._upper_segment
    for shift in (1, -1):
        with monkeypatch.context() as patch:
            patch.setattr(
                tv_bounds,
                "_upper_segment",
                lambda k, N, m, shift=shift: (segment(k, N, m)[0], segment(k, N, m)[1] - shift),
            )
            fired.update(v[4] for v in assert_same_report(k, N, shift).violations)
    sides = {"below_lower", "above_upper", "upper_chain", "integer_tie", "strictness"}
    if k == 3:
        sides |= {"low_iff", "high_iff"}
    assert sides <= set(fired)


# --- the partition enumerator -------------------------------------------------


@pytest.mark.parametrize("k", range(2, 11))
def test_partitions_weighted_by_orderings_count_every_composition(k):
    for N in range(1, 31):
        parts = list(_partitions(N, k))
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert type(p) is tuple and 1 <= len(p) <= k
            assert sum(p) == N and min(p) >= 1
            assert list(p) == sorted(p, reverse=True)
        assert sum(_orderings(p, k) for p in parts) == math.comb(N + k - 1, k - 1)


@pytest.mark.parametrize("k, N", [(2, 9), (3, 12), (4, 10), (5, 8), (6, 7), (8, 6)])
def test_partitions_are_the_sorted_compositions(k, N):
    """Each composition sorts to exactly one partition, and each partition expands
    to exactly its number of orderings, all distinct and all sorting back to it."""
    by_partition = Counter(tuple(x for x in sorted(c, reverse=True) if x) for c in compositions(N, k))
    assert set(_partitions(N, k)) == set(by_partition)
    for p in _partitions(N, k):
        padded = p + (0,) * (k - len(p))
        expanded = list(_distinct_orderings(padded))
        assert len(set(expanded)) == len(expanded) == _orderings(p, k) == by_partition[p]
        assert expanded == sorted(expanded)
        assert all(tuple(sorted(c, reverse=True)) == padded for c in expanded)


def test_partitions_and_orderings_at_extreme_class_counts():
    """Neither depth nor cost grows with k: only the nonzero parts are held."""
    assert list(_partitions(2, 3000)) == [(2,), (1, 1)]
    assert list(_partitions(1, 10**7)) == [(1,)]
    assert list(_partitions(5, 1)) == [(5,)]
    assert list(_partitions(0, 4)) == [()]
    assert _orderings((1,), 10**7) == 10**7
    assert _orderings((1, 1), 3000) == math.comb(3000, 2)
    assert _orderings((2, 1, 1), 10**6) == 10**6 * math.comb(10**6 - 1, 2)


# --- the separation chain on whole joint models ------------------------------


def _models(k, n, N):
    """Every k x n joint model with entries c/N, as k rows of integer numerators."""
    for comp in compositions(N, k * n):
        yield [comp[y * n : (y + 1) * n] for y in range(k)]


@pytest.mark.parametrize("k, n, N", [(2, 2, 20), (3, 2, 12), (2, 3, 12), (4, 2, 8)])
def test_separation_chain_holds_exactly_on_every_grid_model(k, n, N):
    """L <= p* <= U <= U_simpl on each model, as signs of cross-multiplied integers.

    D = N * delta sums |c_yx - c_zx| over label pairs and columns, and
    N p* = N - sum_x max_y c_yx; the tests are the grid oracle's, with the
    column-max sum S in place of the profile's largest entry.
    """
    kN = k * N
    count = 0
    for rows in _models(k, n, N):
        D = sum(abs(a - b) for y, z in itertools.combinations(rows, 2) for a, b in zip(y, z))
        S = sum(max(column) for column in zip(*rows))
        m = -(-D // N)
        P = (k - m) * (k + 1 - m)
        T = N * (k + 1 - 2 * m) + D
        assert N + D - k * S >= 0, rows  # L <= p*
        assert S * P - T >= 0, rows  # p* <= U
        assert T * (kN - D) - N * N * P >= 0, rows  # U <= U_simpl
        count += 1
    assert count == math.comb(N + k * n - 1, k * n - 1)
