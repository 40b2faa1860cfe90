"""Tests of the benchmark's own checks, tracer and metric lists.

    python3 -m pytest benchmarks/test_checks.py -q

The repository's test command collects only tests/, so these stay out of it.
"""

import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import misbounds as mb  # noqa: E402
from harness import Run, Tally, end_to_end, execute, tail, windows  # noqa: E402
from run import END_TO_END_UNITS, EXPECTED_TOP_SELF, WORKLOAD_NAMES  # noqa: E402
from tracing import PER_LAYER, Tracer, traced_package  # noqa: E402
from workloads import (  # noqa: E402
    BRUTE_SHAPES,
    CERTIFY_GRIDS,
    WORKLOADS,
    CliResult,
    Op,
    binomial_p_star,
    check_brute,
    check_cli,
    check_oracle,
    check_report,
    exponential_p_star,
    model_op,
    near_deterministic,
    off_by_factor2,
    reference_p_star,
)

W = np.array([[0.3, 0.1, 0.05], [0.2, 0.25, 0.1]])


def _report():
    return mb.BoundsReport.from_model(mb.validate_joint(W))


def _run(op):
    tally = Tally()
    execute(op, tally)
    return tally


def test_genuine_report_passes():
    tally = _run(model_op("genuine", W))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)


@pytest.mark.parametrize(
    "field, shift",
    [("p_star", 1e-9), ("U_FM", -0.5), ("L", 0.3), ("L_FM", 0.3), ("U", -0.3), ("U_simpl", -0.3)],
)
def test_tampered_report_is_a_failed_op(field, shift):
    rep = _report()
    object.__setattr__(rep, field, getattr(rep, field) + shift)
    ref = reference_p_star(W)
    tally = _run(Op("tampered", lambda: rep, lambda r: check_report(r, ref), ref=ref))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert not tally.correct


def test_typed_refusal_fails_the_op_but_not_correctness():
    def refuse():
        raise mb.InvariantViolationError("p_star <= U_FM violated")

    tally = _run(Op("refused", refuse, lambda out: []))
    assert tally.failed == 1 and tally.correct
    assert tally.failure_kinds == {"InvariantViolationError": 1}


def test_untyped_error_makes_the_run_incorrect():
    tally = _run(Op("broken", lambda: 1 / 0, lambda out: []))
    assert tally.failed == 1 and not tally.correct


def test_references_match_the_package():
    assert reference_p_star(W) == pytest.approx(mb.bayes_error(mb.validate_joint(W)), abs=1e-15)
    for k, q in ((2, 0.1), (256, 0.3), (4096, 0.45)):
        assert exponential_p_star(k, q) == pytest.approx(1.0 - mb.exponential_profile(k, q).a.max(), abs=1e-12)
    for m, q in ((1, 0.2), (12, 0.05)):
        assert binomial_p_star(m, q) == pytest.approx(1.0 - mb.binomial_profile(m, q).a.max(), abs=1e-12)


def test_near_deterministic_model_has_tiny_p_star():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = near_deterministic(rng, int(rng.integers(2, 9)), int(rng.integers(1, 7)))
        assert math.isclose(w.sum(), 1.0, abs_tol=1e-13)
        assert 1e-15 * 0.999 <= reference_p_star(w) <= 1e-2 * 1.001


def test_factor2_flags_bounds_on_the_wrong_side():
    rep = _report()
    ref = reference_p_star(W)
    assert not off_by_factor2(rep, ref)
    object.__setattr__(rep, "U_FM", ref / 3.0)
    assert off_by_factor2(rep, ref)


def test_cli_checks():
    assert check_cli(CliResult(0, "# c\na,b\n1,2\n3,4\n", ""), 2) == []
    assert check_cli(CliResult(0, "a,b\n1,2\n", ""), 2)
    assert check_cli(CliResult(2, "", "verification failure"), 0)


def test_certify_checks():
    report = mb.simplex_grid_oracle(3, 4)
    assert check_oracle(report, 3, 4) == []
    assert check_oracle(report, 3, 5)
    object.__setattr__(report, "violations", (("fake",),))
    assert check_oracle(report, 3, 4)
    assert check_brute(0.25, 0.25) == []
    assert check_brute(0.25, 0.25 + 1e-9)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_first_round_of_each_workload_passes(workload):
    tally = Tally()
    for op in WORKLOADS[workload].build_round(np.random.default_rng(0)):
        execute(op, tally)
    assert tally.untyped == 0 and tally.wrong == 0


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, (range(10**5),)))
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_time["outer"] == pytest.approx(tracer.busy["outer"] - tracer.busy["inner"])
    assert tracer.top_self() in ("outer", "inner")


def test_traced_package_spans_cli_calls():
    tracer = Tracer()
    with traced_package(tracer):
        execute(WORKLOADS["sweeps"].build_round(None)[3], Tally(), tracer)
    for span in ("op", "cli.main", "report.rows", "report.rows_to_csv"):
        assert tracer.calls[span] == 1, span
    assert tracer.metric("report.rows_to_csv.bytes") > 0


def test_traced_package_spans_calls_and_restores():
    originals = (mb.validate_joint, mb.report.delta, mb.BoundsReport.__dict__["from_model"])
    tracer = Tracer()
    with traced_package(tracer):
        execute(model_op("traced", W), Tally(), tracer)
    assert (mb.validate_joint, mb.report.delta, mb.BoundsReport.__dict__["from_model"]) == originals
    for span in ("op", "model.validate_joint", "report.BoundsReport", "tv_bounds.delta", "entropy.lower_fm"):
        assert tracer.calls[span] == 1, span
    assert tracer.calls["tv_bounds.envelopes"] == 3
    assert tracer.metric("tv_bounds.delta.temp_bytes") == 2 * 2 * 3 * 8


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert tail([0.002] * 990 + [1.0] * 10) == (99.0, 2.0)
    assert tail([0.002] * 50)[0] == 50.0


def test_windows_group_whole_rounds():
    tally = Tally(op_s=[0.001] * 250, round_ends=[50, 100, 150, 200, 250])
    assert [len(w) for w in windows(tally, 100)] == [100, 150]
    assert [len(w) for w in windows(tally, 1)] == [50] * 5


def test_end_to_end_statistics():
    # ten rounds of 100 ops; every op of round i takes i ms
    tally = Tally(seen=set(range(1000)), failed_keys=set(range(10)))
    for i in range(1, 11):
        tally.op_s += [i * 1e-3] * 100
        tally.round_ends.append(len(tally.op_s))
        tally.round_rates.append(100 / (i * 0.1))
    e2e = end_to_end(tally)
    assert e2e["ops_per_s"] == pytest.approx(100.0)  # reached by 9 rounds in 10
    assert e2e["op_p50_ms"] == pytest.approx(9.0)  # 9 rounds in 10 stay within it
    assert e2e["op_tail_ms"] == pytest.approx(5.5)  # median of the rounds' p90
    assert e2e["op_tail"] == {"percentile": 90.0, "windows": 10, "samples_per_window": 100}
    assert e2e["ops_ok_frac"] == pytest.approx(0.99)


def test_repeated_op_counts_once():
    tally = Tally()
    op = Op("refused", lambda: 1 / 0, lambda out: [])
    for _ in range(3):
        execute(op, tally, key=(0, 0))
    execute(op, tally, key=(1, 0))
    assert (tally.attempted, tally.failed, len(tally.op_s)) == (2, 2, 4)
    assert tally.failure_kinds == {"ZeroDivisionError": 2}


def test_counts_follow_the_seed_not_the_run_length():
    short, long = Run("wide", 5), Run("wide", 5)
    short.run_for(1e-9)
    short.finish()
    long.run_for(1e-9)
    while long.rounds < 2 * long.corpus + 1:
        long.step()
    long.finish()
    assert short.rounds == short.corpus < long.rounds
    assert short.plain.seen == long.plain.seen
    assert short.plain.attempted == short.corpus * len(WORKLOADS["wide"].build_round(np.random.default_rng(0)))
    assert short.plain.failed_keys == long.plain.failed_keys


def test_traced_run_replays_each_round_with_spans():
    tracer = Tracer()
    run = Run("certify", 0, tracer)
    run.run_for(1e-9)
    assert run.rounds == 1
    assert run.plain.attempted == run.spanned.attempted == len(CERTIFY_GRIDS) + len(BRUTE_SHAPES)
    assert run.plain.correct and run.spanned.correct
    assert tracer.calls["tv_bounds.simplex_grid_oracle"] == 4
    assert tracer.metric("tv_bounds.simplex_grid_oracle.violations") == 0
    assert not hasattr(mb.simplex_grid_oracle, "__wrapped__")


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(EXPECTED_TOP_SELF)
