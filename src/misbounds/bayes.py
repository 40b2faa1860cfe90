"""Bayes-optimal classification for finite discrete joint models.

The optimal deterministic rule picks, for each observation x, a label
maximizing the joint mass w[y, x]; ties break to the smallest label.  Its
error, the mass of every entry but one maximum per column, is the floor that
every other classifier's error sits above, which the exhaustive checker
below confirms by trying all k^n deterministic rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, OutOfRangeError, TooLargeError
from .model import JointModel

BRUTE_FORCE_LIMIT = 10**7


@dataclass(frozen=True)
class Classifier:
    """Deterministic rule: labels[x-1] is the 1-based class chosen at x."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels.setflags(write=False)

    def __call__(self, x: int) -> int:
        return int(self.labels[x - 1])


def classifier_error(model: JointModel, clf: Classifier) -> float:
    """Misclassification probability P(f(X) != Y) of a deterministic rule."""
    labels = np.asarray(clf.labels)
    if labels.shape != (model.n,):
        raise LengthMismatchError(
            f"classifier assigns {labels.shape[0]} observations, model has {model.n}"
        )
    if np.any((labels < 1) | (labels > model.k)):
        raise OutOfRangeError(f"labels must lie in 1..{model.k}")
    return _mass_off(model, labels - 1)


def bayes_classifier(model: JointModel) -> Classifier:
    """Optimal rule: per column, the smallest label attaining the maximum."""
    return Classifier(labels=np.argmax(model.w, axis=0).astype(np.int64) + 1)


def _mass_off(model: JointModel, rows: np.ndarray) -> float:
    """Mass off w[rows[x], x] in every column x, summed so that a tiny error does not cancel."""
    rest = model.w.copy()
    rest[rows, np.arange(model.n)] = 0.0
    return float(rest.sum())


def bayes_error(model: JointModel) -> float:
    """Minimum misclassification probability: the mass off the column maxima."""
    return _mass_off(model, model.w.argmax(axis=0))


def profile_errors(profiles: np.ndarray) -> np.ndarray:
    """Bayes error of each row of a (B, k) stack of profiles: the mass off its maximum.

    Each row is summed as _mass_off sums the k x 1 model of that profile.
    """
    rest = profiles.copy()
    rest[np.arange(len(rest)), rest.argmax(axis=1)] = 0.0
    return rest.sum(axis=1)


def brute_force_bayes_error(model: JointModel, chunk: int = 4096) -> float:
    """Minimum error over every deterministic rule, by direct enumeration.

    All k^n label assignments are scored in vectorized chunks; refuses
    instances past BRUTE_FORCE_LIMIT rules.  Exists as an independent check
    of bayes_error, so it deliberately shares no logic with it.
    """
    k, n = model.k, model.n
    total = k**n
    if total > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"{k}^{n} = {total} rules exceeds limit {BRUTE_FORCE_LIMIT}")
    radix = k ** np.arange(n, dtype=np.int64)
    cols = np.arange(n)
    best = np.inf
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        # mixed-radix digits: rule index -> label (0-based) per observation
        f = (codes[:, None] // radix[None, :]) % k
        hit = model.w[f, cols[None, :]].sum(axis=1)
        best = min(best, float(1.0 - hit.max()))
    return best
