"""The Bayes error of a finite discrete joint model, and its brute-force referee.

The optimal deterministic rule picks, for each observation x, a label
maximizing the joint mass w[y, x].  A rule given as one 0-based label per
column errs with the mass off its labels (error_of_labels, for a model or a
stack); the Bayes rule's error, bayes_error, is the floor, which
brute_force_bayes_error confirms by trying all k^n deterministic rules.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SIZE_LIMIT, JointModel, require_at_most

BRUTE_FORCE_CHUNK = 4096
SHORT_RUN = 64


def error_of_labels(w: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mass off the 0-based rows labels[..., x] in each column x, per k x n model of a (..., k, n) stack.

    The entries left are summed, so that a tiny error does not cancel.
    """
    rest = w.copy()
    *_, k, n = w.shape
    models = rest.reshape(-1, k, n)
    models[np.arange(len(models))[:, None], labels.reshape(-1, n), np.arange(n)] = 0.0
    return rest.sum(axis=(-2, -1))


def bayes_error(model: JointModel) -> float:
    """Minimum misclassification probability: the mass off the column maxima."""
    return float(error_of_labels(model.w, model.w.argmax(axis=0)))


def _miss_table(w: np.ndarray) -> np.ndarray:
    """Entry (y, x) is column x's mass off label y: the mass above y plus the mass below.

    Both are running sums of nonnegative masses, so nothing cancels.  Past
    SHORT_RUN rows they run inside blocks of about sqrt(k) rows, shifted by a
    running sum over the block totals, which keeps the rounding error near
    2 sqrt(k) eps where one running sum down all k rows lets it grow like k eps.
    """
    k, n = w.shape
    size = k if k <= SHORT_RUN else math.isqrt(k - 1) + 1
    runs = np.zeros((2, -(-k // size) * size, n))
    runs[0, 1:k] = w[:-1]
    runs[1, 1:k] = w[:0:-1]
    blocks = runs.reshape(2, -1, size, n)
    np.add.accumulate(blocks, axis=2, out=blocks)
    if blocks.shape[1] > 1:
        blocks[:, 1:] += np.add.accumulate(blocks[:, :-1, -1:], axis=1)
    return runs[0, :k] + runs[1, k - 1 :: -1]


def brute_force_bayes_error(model: JointModel) -> float:
    """Minimum error over every deterministic rule, by direct enumeration.

    All k^n label assignments are scored in vectorized chunks, each by its
    miss mass gathered from the table (1 - I) @ w, whose entry (y, x) is
    column x's mass off label y; refuses instances past SIZE_LIMIT
    rules.  Exists as an independent check of bayes_error, so it
    deliberately shares no logic with it.
    """
    k, n = model.k, model.n
    total = k**n
    require_at_most(total, SIZE_LIMIT, "rules")
    miss = _miss_table(model.w)
    radix = k ** np.arange(n, dtype=np.int64)
    cols = np.arange(n)
    best = np.inf
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        codes = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        # mixed-radix digits: rule index -> label (0-based) per observation
        f = codes[:, None] // radix % k
        best = min(best, float(miss[f, cols].sum(axis=1).min()))
    return best
