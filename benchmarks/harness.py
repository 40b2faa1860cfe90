"""Closed-loop runner: executes whole rounds of ops, times each op, checks it, and tallies.

One thread sends the next op only after the previous one has finished. Input
generation and checks run outside the timed region of each op.

A run cycles through a fixed corpus of rounds made from its seed, and always
completes at least one pass over it. Every execution is timed, but an op is
attempted, and failed, once per distinct input: the counts depend on the seed
only, not on how many rounds the machine's speed allowed.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from misbounds.errors import MisboundsError
from tracing import traced_package
from workloads import WORKLOADS, off_by_factor2

# Tail percentiles tried from the highest down; the first with >= TAIL_BEYOND samples above it is used.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
# The tail is taken in windows of whole rounds holding at least this many ops, and the median
# over windows is reported: over a whole run of ~10^5 ops the rule would pick p99.9 or p99.99,
# which on a shared machine measures preemption rather than the workload's slow ops.
TAIL_WINDOW_OPS = 100
# Throughput and median latency are taken per round and reported at the level that this share of
# rounds reaches: on a shared machine whose speed switches between a base state and faster spells
# of seconds, a run's median round lands in either state, while this level is the base speed.
STEADY_PCT = 90.0
MAX_EXAMPLES = 5


@dataclass
class Tally:
    """Everything a run counts. Ops are told apart by a key, their place in the corpus:
    ``attempted``, ``failed`` and ``factor2`` count distinct keys, ``op_s`` every execution.
    ``wrong`` executions returned an output that failed a check; ``untyped`` ones raised
    something other than a misbounds error."""

    seen: set = field(default_factory=set)
    failed_keys: set = field(default_factory=set)
    factor2_keys: set = field(default_factory=set)
    wrong: int = 0
    untyped: int = 0
    op_s: list = field(default_factory=list)
    round_ends: list = field(default_factory=list)
    round_rates: list = field(default_factory=list)
    failure_kinds: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    @property
    def factor2(self) -> int:
        return len(self.factor2_keys)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.untyped == 0

    def record_failure(self, key, op, kind: str, detail: str):
        if key in self.failed_keys:
            return
        self.failed_keys.add(key)
        self.failure_kinds[kind] += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(f"op {key} ({op.label}): {kind}: {detail}")


def execute(op, tally: Tally, tracer=None, key=None):
    """Run one op, timed, then check it. Returns (seconds, passed).

    ``key`` tells the op apart from others; by default each execution is a new op.
    """
    if key is None:
        key = len(tally.op_s)
    start = perf_counter()
    try:
        out = op.run() if tracer is None else tracer.call("op", op.run)
    except MisboundsError as exc:
        took = perf_counter() - start
        tally.record_failure(key, op, type(exc).__name__, str(exc))
        passed = False
    except Exception as exc:  # an untyped error is a failed op, and makes the run incorrect
        took = perf_counter() - start
        tally.untyped += 1
        tally.record_failure(key, op, type(exc).__name__, str(exc))
        passed = False
    else:
        took = perf_counter() - start
        problems = op.check(out)
        passed = not problems
        if problems:
            tally.wrong += 1
            tally.record_failure(key, op, "check", "; ".join(problems))
        if op.ref is not None and off_by_factor2(out, op.ref):
            tally.factor2_keys.add(key)
        if op.digest is not None and passed:
            tally.digests.setdefault(op.label, set()).add(op.digest(out))
    tally.seen.add(key)
    tally.op_s.append(took)
    return took, passed


def run_round(ops: list, tally: Tally, tracer=None, index=None):
    """Execute one round; ``index`` is its place in the corpus, which keys its ops."""
    busy = 0.0
    ok = 0
    for position, op in enumerate(ops):
        key = None if index is None else (index, position)
        took, passed = execute(op, tally, tracer, key)
        busy += took
        ok += passed
    tally.round_ends.append(len(tally.op_s))
    tally.round_rates.append(ok / busy)


class Run:
    """A closed-loop run of one workload over a corpus of rounds made from its seed.

    Round ``i`` of the corpus is built from the generator seeded with
    ``(seed, i)``, so it holds the same inputs on every pass and in every run
    with that seed. With a tracer, each round runs untraced into ``plain`` and
    then again, with spans, into ``spanned``; the two passes see the same inputs
    and the same state of the machine, so their ratio is the tracing overhead.
    """

    def __init__(self, workload: str, seed: int, tracer=None):
        self.build = WORKLOADS[workload].build_round
        self.corpus = WORKLOADS[workload].corpus_rounds
        self.seed = seed
        self.tracer = tracer
        self.plain = Tally()
        self.spanned = Tally()
        self.rounds = 0
        self.spent = 0.0
        self.budget = 0.0

    def step(self):
        start = perf_counter()
        index = self.rounds % self.corpus
        ops = self.build(np.random.default_rng((self.seed, index)))
        run_round(ops, self.plain, None, index)
        if self.tracer is not None:
            with traced_package(self.tracer):
                run_round(ops, self.spanned, self.tracer, index)
        self.rounds += 1
        self.spent += perf_counter() - start

    def run_for(self, seconds: float):
        """Execute whole rounds until the run has spent its earlier budget plus ``seconds``."""
        self.budget += seconds
        while self.spent < self.budget:
            self.step()

    def finish(self):
        """Complete the first pass over the corpus, so that every op has been checked."""
        while self.rounds < self.corpus:
            self.step()


def tail(op_s: list):
    """(percentile, ms): the highest listed percentile with >= TAIL_BEYOND samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(op_s) * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct, rank(op_s, pct) * 1e3
    return 100.0, max(op_s) * 1e3


def rank(values, pct: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)), 1) - 1]


def windows(tally: Tally, min_ops: int) -> list:
    """The op times in consecutive whole rounds grouped by >= min_ops; a short rest joins the last group."""
    bounds, start = [], 0
    for end in tally.round_ends:
        if end - start >= min_ops:
            bounds.append((start, end))
            start = end
    if start < len(tally.op_s):
        bounds[-1:] = [(bounds[-1][0] if bounds else 0, len(tally.op_s))]
    return [tally.op_s[a:b] for a, b in bounds]


def end_to_end(tally: Tally) -> dict:
    """Throughput, per-op latency and the ok fraction of one untraced run."""
    tails = [tail(window) for window in windows(tally, TAIL_WINDOW_OPS)]
    round_p50 = [statistics.median(ops) for ops in windows(tally, 1)]
    return {
        "ops_per_s": rank(tally.round_rates, 100.0 - STEADY_PCT),
        "op_p50_ms": rank(round_p50, STEADY_PCT) * 1e3,
        "op_tail_ms": statistics.median(ms for _, ms in tails),
        "ops_ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "op_tail": {
            "percentile": min(pct for pct, _ in tails),
            "windows": len(tails),
            "samples_per_window": len(tally.op_s) // len(tails),
        },
    }
