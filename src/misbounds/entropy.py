"""Entropy-based bounds on the Bayes error, and a counterexample evaluator.

Conditional Shannon entropy H in nats, one posterior_entropies sum for a
model and for a profile as its k x 1 model, pins the Bayes error between the
Feder-Merhav bounds: the lower bound inverts the strictly increasing map
phi(p) = p ln(k-1) + h2(p) by a safeguarded Newton iteration that is
accurate relative to p, so it stays a lower bound for tiny p*, and the upper
bound is piecewise linear in H with knots at ln m.  A sweep clamps its
entropy column once, in entropy_columns, and runs the scalar bodies on it:
_upper_fm with numpy's primitives, and _lower_fm_body, which makes every
choice before the one Newton loop, _newton, for a float or a column alike,
with the math module's functions mapped over the column, bit for bit.
Renyi conditional entropy (base 2) exists only to evaluate a published
two-class fixture on which a claimed entropy upper bound goes negative,
refuting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import bayes_error
from .errors import (
    BadBetaError,
    EntropyOutOfRangeError,
    NegativeEntropyError,
    OutOfRangeError,
)
from .model import JointModel, PosteriorProfile, clamp, clamp_array, require_class_counts, require_classes, validate_joint
from .tv_bounds import INTEGER_SNAP

# Domain-edge slack for entropy arguments; beyond it the input is an error,
# within it the value is clamped onto the closed domain.
H_SLACK = 1e-12

# The largest h that math.exp can take, ln(DBL_MAX) ~ 709.78.
LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# Newton inverse of phi: a step within four ulps of p ends it, and the cap is
# only a safety net, since it converges in a handful of steps.
NEWTON_MAX_ITER = 50
_FOUR_ULPS = 4.0 * math.ulp(1.0)


def _math_map(f):
    """f of the math module on each entry of a 1-D array.

    numpy's log and log1p can differ from the math module's in the last bit,
    while +, -, * and / round alike in both, so a formula fed these maps
    gives each entry exactly the float it gives that entry alone.
    """
    return lambda a: np.fromiter(map(f, a.tolist()), float, a.size)


@dataclass(frozen=True)
class EntropyValue:
    """Shannon conditional entropy in nats, tagged with its class count."""

    h: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "h", _into_domain(self.k, self.h))


def _into_domain(k: int, h: float) -> float:
    """Check k, then clamp h into [0, ln k], allowing H_SLACK of float overshoot."""
    require_classes(k)
    return clamp(h, 0.0, math.log(k), H_SLACK, EntropyOutOfRangeError, "h")


@dataclass(frozen=True)
class RenyiValue:
    """Renyi conditional entropy in bits at order beta."""

    h_beta: float
    beta: float


def _plogp(p: np.ndarray) -> np.ndarray:
    """p ln p elementwise with the 0 ln 0 = 0 convention: a zero entry takes ln 1 = 0."""
    return p * np.log(np.where(p > 0, p, 1.0))


def posterior_entropies(posteriors: np.ndarray, mass) -> np.ndarray:
    """Unclamped mass-weighted Shannon entropy in nats of the (..., k, m) posteriors of a model or stack.

    Each posterior is a column with mass divided by its float sum, and that
    sum weights its entropy: a model passes its m live columns, and a
    (B, k, 1) stack its B profiles, each as its k x 1 model.  Each posterior
    is summed over the last axis of the transposed view, so a model's column
    posteriors, which boolean indexing leaves column-major, sum contiguously.
    """
    return -(mass * _plogp(posteriors.swapaxes(-1, -2)).sum(axis=-1)).sum(axis=-1)


def _column_posteriors(model: JointModel) -> tuple:
    """The posterior of each observation that has mass, one per column, and that mass.

    Boolean indexing leaves them column-major, the layout whose summation
    order in posterior_entropies fixes the last bit of a k >= 8 entropy.
    """
    mu = model.w.sum(axis=0)
    live = mu > 0
    mu = mu[live]
    return model.w[:, live] / mu, mu


def conditional_entropy(model: JointModel) -> EntropyValue:
    """H(Y|X) in nats: marginal-weighted entropy of the column posteriors."""
    return EntropyValue(h=float(posterior_entropies(*_column_posteriors(model))), k=model.k)


def entropy_of_profile(profile: PosteriorProfile) -> EntropyValue:
    """Shannon entropy of one posterior profile, in nats: the H of the k x 1 model it is."""
    return conditional_entropy(profile.as_model())


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def phi(k: int, p: float) -> float:
    """p ln(k-1) + h2(p): strictly increasing from 0 to ln k on [0, 1-1/k]."""
    require_classes(k)
    p = clamp(p, 0.0, 1.0 - 1.0 / k, H_SLACK, OutOfRangeError, "p")
    return p * math.log(k - 1) + _h2(p)


def _seed_near_top(k: int, gap, sqrt):
    """The root of the quadratic ln k - h = k^2/(2(k-1)) (1-1/k-p)^2 at gap = ln k - h."""
    return 1.0 - 1.0 / k - sqrt(2.0 * (k - 1) * gap) / k


def _seed_small(h, log_km1: float, log):
    """The small-p asymptote p = h / (1 + ln(k-1) + ln(1/p)), iterated twice from p = h.

    The second pass writes ln p1 = ln h - ln(1 + ln(k-1) - ln h), so no
    logarithm is taken of an iterate that may have underflowed.
    """
    first = 1.0 + log_km1 - log(h)
    return h / (first + log(first))


def _newton(p, h, top, log_km1, rounding, log, log1p, where, every) -> tuple:
    """Bracketed Newton iteration on phi(p) = h from the seed p, on a float or an array alike.

    phi is concave and increasing, with phi'(p) = ln((k-1)(1-p)/p): a step
    from left of the root stays left of it, one from the right can overshoot,
    and a step that leaves the bracket [lo, hi], at first [0, top], takes its
    midpoint instead.  An entry is done when its step is within a few ulps of
    p, or its residual phi(p) - h within `rounding`, four ulps of h, the
    rounding level of phi itself; near the top, where phi is flat, only the
    second test can end it.  A done entry keeps its p, and the loop stops when
    `every` entry is done, or after NEWTON_MAX_ITER steps.  log, log1p and
    where take p's kind; top and log_km1 broadcast against it.  Returns
    (p, iterations, residual) with residual = phi(p) - h.
    """
    lo, hi = 0.0, top
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        log_p = log(p)
        log_q = log1p(-p)
        residual = p * (log_km1 - log_p) - (1.0 - p) * log_q - h
        step = residual / (log_km1 + log_q - log_p)
        done = (abs(step) <= _FOUR_ULPS * p) | (abs(residual) <= rounding)
        if every(done):
            break
        # a done entry's bracket closes on its p, and the midpoint of [p, p] is p
        below = residual < 0.0
        lo = where(below | done, p, lo)
        hi = where(below > done, hi, p)  # below and not done
        stepped = p - step
        p = where((lo < stepped) & (stepped < hi), stepped, 0.5 * (lo + hi))
    return p, iterations, residual


def _where(condition, a, b):
    return a if condition else b


def _lower_fm_body(k: int, h, log, log1p, sqrt, where, every, ulp):
    """lower_fm at an h already in [0, ln k], on a float or an array alike.

    Every entry runs the one loop, _newton; log, log1p, sqrt, where, every
    and ulp take h's kind.  An entry that needs no root runs it on a
    stand-in entropy ln k / 2, so nothing is split off, and its result is
    then replaced.  Both seeds are taken everywhere, and `where` picks one.
    """
    log_k, log_km1, top = math.log(k), math.log(k - 1), 1.0 - 1.0 / k
    stand_in = 0.5 * log_k
    # phi is quadratically flat at its right endpoint, so inverting there
    # amplifies noise in h to sqrt scale; h this close to ln k means the
    # endpoint itself is the best-conditioned answer
    at_top = log_k - h <= H_SLACK
    zero = h == 0.0
    h = where(at_top | zero, stand_in, h)
    # the quadratic dominates phi's expansion about the top while p is within
    # about 1/k of it, that is for a gap below about 1/(2k)
    gap = log_k - h
    p = where(gap < 0.5 / k, _seed_near_top(k, gap, sqrt), _seed_small(h, log_km1, log))
    # only the small-p seed underflows, and then the root lies below the
    # smallest subnormal double; top / 2 is a few steps from the stand-in's root
    underflow = p == 0.0
    zero = zero | underflow
    h = where(underflow, stand_in, h)
    p = where(underflow, 0.5 * top, p)
    p = _newton(p, h, top, log_km1, 4.0 * ulp(h), log, log1p, where, every)[0]
    return where(at_top, top, where(zero, 0.0, p))


def lower_fm(k: int, h: float) -> float:
    """Feder-Merhav lower bound: the unique p in [0, 1-1/k] with phi(p) = h.

    Safeguarded Newton inverse (see _lower_fm_body), a few ulps from the
    root relative to p wherever phi is well conditioned, down to p ~ 1e-300;
    nearer the top it is as exact as phi's rounding allows.
    """
    return _lower_fm(k, _into_domain(k, h))


def _lower_fm(k: int, h: float) -> float:
    """lower_fm at an h already in [0, ln k]: the one body on a float, with the math module's functions."""
    return _lower_fm_body(k, h, math.log, math.log1p, math.sqrt, _where, bool, math.ulp)


def _lower_fm_column(k: int, h: np.ndarray) -> np.ndarray:
    """_lower_fm of every entry of an entropy array already in [0, ln k], bit for bit, in one Newton pass.

    The one body runs on the flattened entries with the math module's
    functions mapped over them, np.where, np.all and np.spacing, which is
    math.ulp at every h the loop sees, as they are all positive.
    """
    sqrt, log, log1p = (_math_map(f) for f in (math.sqrt, math.log, math.log1p))
    return _lower_fm_body(k, h.reshape(-1), log, log1p, sqrt, np.where, np.all, np.spacing).reshape(h.shape)


def upper_fm(h: float) -> float:
    """Feder-Merhav upper bound, piecewise linear in H with knots at ln m.

    On [ln m, ln(m+1)] the bound climbs from 1 - 1/m to 1 - 1/(m+1).  The
    branch index is e = ceil(exp(H)) - 1, a plain ceiling: the bound is
    continuous at each knot ln m, so when exp(H) rounds to just past m the
    branch taken there gives the same value as the one before it.  At H = 0
    exp(H) is 1 and e is 0, so e is held at 1: the first branch,
    h / (2 ln 2), is the bound on all of [0, ln 2] and is 0 at H = 0.

    Accepts h down to -INTEGER_SNAP, clamped onto 0, so that probing the
    first knot (ln 1 = 0) from below stays legal, and up to LOG_FLOAT_MAX,
    where exp(H) still fits in a double.
    """
    h = clamp(h, 0.0, LOG_FLOAT_MAX, INTEGER_SNAP, NegativeEntropyError, "h")
    return _upper_fm(h, math.exp, math.log, math.log1p, math.ceil)


def _upper_fm(h, exp, log, log1p, ceil):
    """upper_fm at an h already in [0, LOG_FLOAT_MAX]; exp, log, log1p and ceil match h, a float or an array."""
    e = ceil(exp(h)) - 1
    e = e + (e < 1)
    return (e - 1.0) / e + (h - log(e)) / log1p(1.0 / e) / (e * (e + 1.0))


def entropy_columns(k, h) -> dict:
    """The clamped entropies and U_FM at each, over an array of entropies.

    k is one class count or an integer array of them, one per entropy; h is
    clamped as EntropyValue clamps it, against math.log(k).  numpy's log of
    an integer array can differ from math.log in the last bit, so it stands
    in only for entries that cannot reach the top; those within H_SLACK of
    it take math.log.
    """
    k = require_class_counts(k)
    if isinstance(k, np.ndarray):
        k, h = np.broadcast_arrays(k, np.asarray(h, dtype=float))
        log_k = np.log(k, out=np.zeros(k.shape))
        top = h >= log_k - H_SLACK
        log_k[top] = _math_map(math.log)(k[top])
    else:
        log_k = math.log(k)
    h = clamp_array(h, 0.0, log_k, H_SLACK, EntropyOutOfRangeError, "h")
    return {"entropy_nats": h, "U_FM": _upper_fm(h, np.exp, np.log, np.log1p, np.ceil)}


def renyi_conditional_entropy(model: JointModel, beta: float) -> RenyiValue:
    """Order-beta Renyi entropy of the row variable given the column, in bits.

    Columns are the conditioning outcomes; each column's posterior over rows
    is collapsed by the order-beta power sum, then mixed by the column
    marginal.  beta = 1 is the Shannon limit, H(Y|X) in bits.
    """
    # 0 < beta < inf: the least and the greatest positive finite doubles
    beta = clamp(beta, math.ulp(0.0), math.nextafter(math.inf, 0.0), 0.0, BadBetaError, "beta")
    ratio, mu = _column_posteriors(model)
    if beta == 1.0:
        return RenyiValue(h_beta=float(posterior_entropies(ratio, mu)) / math.log(2.0), beta=beta)
    per_col = np.log2((ratio**beta).sum(axis=0)) / (1.0 - beta)
    return RenyiValue(h_beta=float((mu * per_col).sum()), beta=beta)


# --- two-class counterexample fixture ---------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """Evaluation of the claimed Renyi upper bound on its refuting fixture."""

    p_e: float
    h_beta: float
    h_s: float
    ep_numerator: float
    bound_false: bool
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def to_dict(self) -> dict:
        return {
            "P_e": self.p_e,
            "H_beta": self.h_beta,
            "H_S": self.h_s,
            "ep_numerator": self.ep_numerator,
            "bound_false": self.bound_false,
            "checks": dict(self.checks),
        }


def ep_counterexample_check() -> CounterexampleReport:
    """Evaluate the fixture W = 1 surely, M uniform on {1, 2}, independent.

    Estimating M from W cannot beat coin-flipping, so the error is 1/2 and
    its binary entropy is 1 bit; yet W given M is deterministic, so every
    Renyi conditional entropy is 0.  The claimed upper bound's numerator
    H_beta - H_S(e) is then -1 < 0, which no probability can sit under.
    """
    w_rows = np.array([[0.5, 0.5], [0.0, 0.0]])
    renyi_model = validate_joint(w_rows)
    guess_model = validate_joint(w_rows.T)

    p_e = bayes_error(guess_model)
    h_betas = {b: renyi_conditional_entropy(renyi_model, b).h_beta for b in (0.5, 2.0, 5.0)}
    h_s = _h2(p_e) / math.log(2.0)
    h_beta = h_betas[2.0]
    numerator = h_beta - h_s

    checks = (
        ("error_is_half", abs(p_e - 0.5) <= 1e-12),
        ("renyi_all_zero", all(abs(v) <= 1e-12 for v in h_betas.values())),
        ("shannon_of_error_one_bit", abs(h_s - 1.0) <= 1e-12),
        ("numerator_negative", numerator < 0.0),
    )
    return CounterexampleReport(
        p_e=p_e,
        h_beta=h_beta,
        h_s=h_s,
        ep_numerator=numerator,
        bound_false=numerator < 0.0,
        checks=checks,
    )
