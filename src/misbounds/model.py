"""Finite discrete joint models of a label Y in {1..k} and an observation X in {1..n}.

A model stores the k x n matrix w with w[y-1, x-1] = P(Y = y, X = x); a
posterior profile is a length-k vector, the k x 1 model it is.  This module
validates both, loads models from CSV or JSON files, and holds the guards
that every public entry applies to its parameters.  Everything here is
immutable and purely functional.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadParamError,
    MassNotOneError,
    NegativeEntryError,
    ParseError,
    TooFewClassesError,
    TooLargeError,
)

# Input mass tolerance: sums within MASS_TOL of 1 are accepted and
# renormalized; deviations inside NO_TOUCH are left untouched so that
# validation is idempotent bit-for-bit.
MASS_TOL = 1e-9
NO_TOUCH = 1e-13


@dataclass(frozen=True)
class JointModel:
    """Validated k x n joint probability matrix, entries P(Y=y, X=x)."""

    w: np.ndarray

    def __post_init__(self):
        self.w.setflags(write=False)

    @property
    def k(self) -> int:
        """Number of classes (rows)."""
        return self.w.shape[0]

    @property
    def n(self) -> int:
        """Number of observations (columns)."""
        return self.w.shape[1]


@dataclass(frozen=True)
class PosteriorProfile:
    """Length-k nonnegative vector summing to 1 (a posterior over classes)."""

    a: np.ndarray

    def __post_init__(self):
        self.a.setflags(write=False)

    @property
    def k(self) -> int:
        return self.a.shape[0]

    def as_model(self) -> JointModel:
        """The profile as the k x 1 joint model it is."""
        return JointModel(w=self.a[:, None])


# --- parameter guards: every public entry checks its integers and sizes here ---


def integer(value) -> int:
    """operator.index, which refuses 3.9, "3" and [3], and refuses true and false too."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _integer_or_none(value) -> int | None:
    """integer(value), or None where integer refuses it."""
    try:
        return integer(value)
    except TypeError:
        return None


def real(value) -> float:
    """float(value), which refuses None and [0.3]; a bool or a string, which float would coerce, is refused too."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{value!r} is not a real number")
    return float(value)


def integer_at_least(value, name: str, least: int) -> int:
    """value as a Python int of at least `least`; a bool, a float or a string is refused."""
    number = _integer_or_none(value)
    if number is None or number < least:
        raise BadParamError(f"{name}={value!r} must be an integer >= {least}")
    return number


def require_classes(k) -> int:
    """k as a Python int; refuses a non-integer, a count below two, and a count above 2**53.

    Two is the least count with a decision to make; above 2**53 not every count is an exact double.
    """
    number = _integer_or_none(k)
    if number is None:
        raise BadParamError(f"k={k!r} must be an integer >= 2")
    if number < 2:
        raise TooFewClassesError(f"need at least 2 classes, got k={k}")
    require_at_most(number, 2**53, "classes")
    return number


def require_class_counts(k):
    """require_classes for a column: one class count, or an integer array of them as int64.

    A float or bool array is refused as require_classes refuses a float or a
    bool; the scalar guard itself still refuses every array.  The counts are
    checked in their own dtype, so a uint64 count cannot wrap, then widened
    to int64 so that k + 1 cannot wrap and log k is a double.
    """
    if not (isinstance(k, np.ndarray) and k.dtype.kind in "iu"):
        return require_classes(k)
    if k.size:
        if k.min() < 2:
            raise TooFewClassesError(f"need at least 2 classes, got k={k.min()}")
        require_at_most(k.max(), 2**53, "classes")
    return k.astype(np.int64)


# The one work limit: no grid, stack, scan or enumeration may hold more entries.
SIZE_LIMIT = 10**7


def require_at_most(count, limit, what: str) -> None:
    """Refuse a count of `what` above limit, NaN included; the message is built only then."""
    if not count <= limit:
        raise TooLargeError(f"too many {what}: {count}, over the limit of {limit}")


def clamp(value: float, lo: float, hi: float, slack: float, error: type, name: str) -> float:
    """Clamp value onto [lo, hi], or raise `error` if it is NaN or beyond `slack` of it."""
    if not lo - slack <= value <= hi + slack:
        raise error(f"{name}={value!r} outside [{lo!r}, {hi!r}]")
    return min(max(value, lo), hi)


def clamp_array(values, lo, hi, slack: float, error: type, name: str) -> np.ndarray:
    """clamp on every entry of an array; lo and hi may be arrays that broadcast against it.

    The first entry that is NaN or beyond `slack` raises as clamp raises on it.
    Entries are clamped with clamp's comparisons, so a -0.0 stays -0.0.
    """
    values = np.asarray(values, dtype=float)
    inside = (lo - slack <= values) & (values <= hi + slack)
    if not inside.all():
        inside, values, lo, hi = np.broadcast_arrays(inside, values, lo, hi)
        i = np.unravel_index(np.argmin(inside), inside.shape)
        clamp(float(values[i]), float(lo[i]), float(hi[i]), slack, error, name)
    raised = np.where(lo > values, lo, values)
    return np.where(hi < raised, hi, raised)


def _has_text_or_bool(raw) -> bool:
    """Whether raw, a nested sequence or array, holds a string or a bool, which float() would coerce.

    An array is checked by its dtype alone, but for one of objects: only float
    and integer arrays pass.  A list is checked entry by entry, since
    np.asarray([True, 0.5]) is already a float array.
    """
    if isinstance(raw, np.ndarray):
        kind = raw.dtype.kind
        return kind not in "fiuO" or (kind == "O" and any(map(_has_text_or_bool, raw.flat)))
    if isinstance(raw, (list, tuple)):
        return any(map(_has_text_or_bool, raw))
    return isinstance(raw, (str, bytes, bool, np.bool_))


def floats(raw) -> np.ndarray:
    """raw as a float array; ragged rows and entries that are not numbers, text and bools too, are a ParseError."""
    if _has_text_or_bool(raw):
        raise ParseError("expected numbers in a rectangular array, got text or a boolean")
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"expected numbers in a rectangular array: {exc}") from None


def validate_joint(raw) -> JointModel:
    """Validate a k x n matrix of joint probabilities and wrap it as a model.

    Entries must be nonnegative, there must be at least two rows, and the
    total mass must be 1 within ``MASS_TOL`` (small deviations are fixed by
    renormalization, which tolerates decimal-text round-off without hiding
    genuine input errors).
    """
    w = floats(raw)
    if w.ndim != 2 or w.size == 0:
        raise ParseError(f"expected a nonempty 2-D matrix, got shape {w.shape}")
    require_classes(w.shape[0])
    if not (w >= 0).all():  # false for NaN too
        y, x = np.argwhere(~(w >= 0))[0]
        raise NegativeEntryError(
            f"entry at row {y + 1}, col {x + 1} is {float(w[y, x])!r}; entries must be >= 0"
        )
    total = float(w.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise MassNotOneError(f"total mass is {total!r}, must be 1 within {MASS_TOL}")
    return JointModel(w=w / total if abs(total - 1.0) > NO_TOUCH else w.copy())


def validate_profile(raw) -> PosteriorProfile:
    """Validate a length-k vector as the k x 1 joint model it is."""
    a = floats(raw)
    if a.ndim != 1 or a.size == 0:
        raise ParseError(f"expected a nonempty 1-D vector, got shape {a.shape}")
    return PosteriorProfile(a=validate_joint(a[:, None]).w[:, 0])


# --- file loading ---------------------------------------------------------
#
# CSV layout: k rows x n columns of decimals, '#' lines are comments.
# JSON layout: {"k": ..., "n": ..., "w": [[...], ...]}.


def load_model(path) -> JointModel:
    """Load and validate a model from a JSON file (a .json suffix) or else a CSV file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(doc, dict) or "w" not in doc:
            raise ParseError(f"{path}: JSON model must be an object with a 'w' field")
        try:
            model = validate_joint(doc["w"])
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
        for key, size in (("k", model.k), ("n", model.n)):
            if key in doc and _integer_or_none(doc[key]) != size:
                raise ParseError(
                    f"{path}: 'k' and 'n' must be integers that match 'w', which is"
                    f" {model.k} x {model.n}; got {key!r}={doc[key]!r}"
                )
        return model

    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in stripped.split(",")]
        parsed = []
        for colno, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}: cannot parse {cell!r}", row=lineno, col=colno)
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise ParseError(
                f"{path}: ragged row, expected {width} columns got {len(parsed)}",
                row=lineno,
            )
        rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return validate_joint(rows)
