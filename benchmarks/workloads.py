"""The four workloads: seeded inputs, the ops that drive misbounds' public API,
and the benchmark's own checks on every op's output.

An op is one user-visible result. A round is a fixed group of ops that holds
the workload's whole mix; a run executes whole rounds, so every round has the
same composition and per-round throughput is comparable within and across runs.
A run cycles through a corpus of ``corpus_rounds`` seeded rounds.

Ops call the package through module attributes (``mb.validate_joint``,
``mb.BoundsReport.from_model``, ``cli.main``) at call time, so the traced run
can put spans around those calls from outside the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import misbounds as mb

# Acceptance slack for a chain link, and the tolerances for p* and brute force.
CHAIN_SLACK = 1e-11
P_STAR_TOL = 1e-12
BRUTE_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One user-visible result: ``run`` makes it, ``check`` lists what is wrong with it.

    ``ref`` is the benchmark's reference p* for ops that return a
    ``BoundsReport``; ``digest`` maps an output to a hash that is recorded,
    never gated on.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    ref: float | None = None
    digest: Callable[[object], str] | None = None


# --- references and checks ---------------------------------------------------


def reference_p_star(w) -> float:
    """math.fsum of the non-maximal entries: every entry but one maximum per column."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    keep = np.ones(w.shape, dtype=bool)
    keep[w.argmax(axis=0), np.arange(w.shape[1])] = False
    return math.fsum(w[keep].tolist())


def exponential_p_star(k: int, q: float) -> float:
    """p* of exponential_profile(k, q), q < 1/2, from the family's definition."""
    i = np.arange(1, k + 1, dtype=float)
    log_terms = (i - 1.0) * math.log1p(-q) + (k - i) * math.log(q)
    terms = np.exp(log_terms - log_terms.max()).tolist()
    top = max(range(k), key=terms.__getitem__)
    return math.fsum(terms[:top] + terms[top + 1 :]) / math.fsum(terms)


def binomial_p_star(m: int, q: float) -> float:
    """p* of binomial_profile(m, q), q < 1/2: the entries other than the single (1-q)^m."""
    return math.fsum(math.comb(m, j) * (1.0 - q) ** j * q ** (m - j) for j in range(m))


def chain_slacks(rep, p_star: float):
    """The five links of the two sandwich chains, measured against p_star."""
    return (
        ("L <= p*", p_star - rep.L),
        ("p* <= U", rep.U - p_star),
        ("U <= U_simpl", rep.U_simpl - rep.U),
        ("L_FM <= p*", p_star - rep.L_FM),
        ("p* <= U_FM", rep.U_FM - p_star),
    )


def check_report(rep, ref: float) -> list:
    """A report must match the reference p* and keep every chain link within the slack."""
    problems = []
    if not abs(rep.p_star - ref) <= P_STAR_TOL:
        problems.append(f"p_star {rep.p_star!r} differs from reference {ref!r}")
    for name, slack in chain_slacks(rep, ref):
        if not slack >= -CHAIN_SLACK:
            problems.append(f"{name} broken by {-slack:.3e}")
    return problems


def off_by_factor2(rep, ref: float) -> bool:
    """True when L, L_FM, U or U_FM is on the wrong side of ref by more than a factor of 2."""
    return max(rep.L, rep.L_FM) > 2.0 * ref or min(rep.U, rep.U_FM) < 0.5 * ref


def report_op(label: str, build: Callable[[], object], ref: float) -> Op:
    return Op(label, build, lambda rep: check_report(rep, ref), ref=ref)


# --- sandwich ----------------------------------------------------------------

SANDWICH_ROUND = 1000


def near_deterministic(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k x n model whose every column puts mass 1 - p on one label, p log-uniform in [1e-15, 1e-2]."""
    p = 10.0 ** rng.uniform(-15.0, -2.0)
    winners = rng.integers(0, k, size=n)
    cols = np.arange(n)
    post = rng.random((k, n)) + 0.01
    post[winners, cols] = 0.0
    post *= p / post.sum(axis=0)
    post[winners, cols] = 1.0 - p
    mass = rng.random(n) + 0.1
    return post * (mass / mass.sum())


def model_op(label: str, w: np.ndarray) -> Op:
    return report_op(label, lambda: mb.BoundsReport.from_model(mb.validate_joint(w)), reference_p_star(w))


def sandwich_round(rng: np.random.Generator) -> list:
    """validate_joint -> from_model on k x n models, k in 2..8, n in 1..6; every tenth near-deterministic."""
    ops = []
    for i in range(SANDWICH_ROUND):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(1, 7))
        if i % 10 == 9:
            w = near_deterministic(rng, k, n)
        else:
            w = rng.random((k, n))
            w /= w.sum()
        ops.append(model_op(f"model {k}x{n}", w))
    return ops


def sandwich_warmup():
    mb.BoundsReport.from_model(mb.validate_joint([[0.3, 0.1], [0.2, 0.4]]))


# --- sweeps ------------------------------------------------------------------

# Default CLI runs and the data rows each one writes (header and comments excluded).
SWEEP_ROWS = {
    "fig1": 401,  # delta = 0, 0.01, ..., 4 at k = 5
    "fig2": 606,  # 6 target errors x 101 eps points
    "fig3": 600,  # 2 families x 3 class counts x 100 q points
    "compare-lo": 145,  # guaranteed (k, ell) pairs for k = 3..50
    "compare-hi": 9998,  # k = 3..10000 at nu = 2
}


@dataclass(frozen=True)
class CliResult:
    code: int
    text: str
    stderr: str


def run_cli(argv: list) -> CliResult:
    """cli.main in-process, with stdout and stderr captured in memory.

    The CLI module is imported here, as a user's first command would, so that
    the sweeps warm-up op counts its import in the set-up time.
    """
    from misbounds import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def data_rows(csv_text: str) -> int:
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    return max(len(lines) - 1, 0)


def check_cli(res: CliResult, rows: int) -> list:
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()}"]
    got = data_rows(res.text)
    return [] if got == rows else [f"{got} data rows, expected {rows}"]


def sweeps_round(rng: np.random.Generator) -> list:
    """One op per default command; the commands take no seeded input."""
    return [
        Op(
            command,
            lambda command=command: run_cli([command]),
            lambda res, rows=rows: check_cli(res, rows),
            digest=lambda res: hashlib.sha256(res.text.encode()).hexdigest(),
        )
        for command, rows in SWEEP_ROWS.items()
    ]


def sweeps_warmup():
    run_cli(["fig1"])


# --- wide --------------------------------------------------------------------

WIDE_M = range(8, 13)  # profile sizes k = 2^8 .. 2^12
WIDE_DENSE = ((64, 64), (256, 32), (512, 16))


def wide_round(rng: np.random.Generator) -> list:
    """Profiles at k = 2^8..2^12 from both families, then the dense k x n models."""
    ops = []
    for m in WIDE_M:
        k = 2**m
        q = float(rng.uniform(0.05, 0.45))
        ops.append(
            report_op(
                f"exponential k={k}",
                lambda k=k, q=q: mb.BoundsReport.from_profile(mb.exponential_profile(k, q)),
                exponential_p_star(k, q),
            )
        )
        q = float(rng.uniform(0.05, 0.45))
        ops.append(
            report_op(
                f"binomial k={k}",
                lambda m=m, q=q: mb.BoundsReport.from_profile(mb.binomial_profile(m, q)),
                binomial_p_star(m, q),
            )
        )
    for k, n in WIDE_DENSE:
        w = rng.random((k, n))
        w /= w.sum()
        ops.append(model_op(f"model {k}x{n}", w))
    return ops


def wide_warmup():
    mb.BoundsReport.from_profile(mb.exponential_profile(2 ** WIDE_M[0], 0.25))


# --- certify -----------------------------------------------------------------

CERTIFY_GRIDS = ((2, 50), (3, 30), (4, 15), (5, 10))
BRUTE_SHAPES = tuple((k, n) for k in range(2, 9) for n in range(1, 7) if k**n <= 10**5)


def check_oracle(report, k: int, N: int) -> list:
    problems = [f"{len(report.violations)} oracle violations"] if report.violations else []
    expected = math.comb(N + k - 1, k - 1)
    if report.checked != expected:
        problems.append(f"checked {report.checked} profiles, expected {expected}")
    return problems


def check_brute(value: float, ref: float) -> list:
    return [] if abs(value - ref) <= BRUTE_TOL else [f"brute force {value!r} vs closed form {ref!r}"]


def certify_round(rng: np.random.Generator) -> list:
    """Every oracle grid, then one seeded model per shape with k^n <= 1e5."""
    ops = [
        Op(
            f"oracle k={k} N={N}",
            lambda k=k, N=N: mb.simplex_grid_oracle(k, N),
            lambda rep, k=k, N=N: check_oracle(rep, k, N),
        )
        for k, N in CERTIFY_GRIDS
    ]
    for k, n in BRUTE_SHAPES:
        w = rng.random((k, n))
        w /= w.sum()
        ref = reference_p_star(w)
        ops.append(
            Op(
                f"brute force {k}x{n}",
                lambda w=w: mb.brute_force_bayes_error(mb.validate_joint(w)),
                lambda value, ref=ref: check_brute(value, ref),
            )
        )
    return ops


def certify_warmup():
    mb.simplex_grid_oracle(*CERTIFY_GRIDS[0])


@dataclass(frozen=True)
class Workload:
    """``corpus_rounds`` distinct rounds make the corpus a run cycles through;
    one pass takes a few seconds at most on a 2-vCPU machine."""

    build_round: Callable[[np.random.Generator], list]
    warmup: Callable[[], None]
    corpus_rounds: int


WORKLOADS = {
    "sandwich": Workload(sandwich_round, sandwich_warmup, 10),
    "sweeps": Workload(sweeps_round, sweeps_warmup, 1),
    "wide": Workload(wide_round, wide_warmup, 8),
    "certify": Workload(certify_round, certify_warmup, 8),
}
