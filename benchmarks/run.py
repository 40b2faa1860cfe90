"""Benchmark of misbounds: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 benchmarks/run.py                       # every workload, untraced then traced
    python3 benchmarks/run.py --workload sandwich --seed 3 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--workload``, the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it is the
full record with run metadata. See benchmarks/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sandwich", "sweeps", "wide", "certify")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "fraction",
}
# The layer expected to have the largest self time on each workload.
EXPECTED_TOP_SELF = {
    "sandwich": ("entropy.lower_fm",),
    "sweeps": ("report.rows", "report.rows_to_csv"),
    "wide": ("tv_bounds.delta", "tv_bounds.delta_of_profile"),
    "certify": ("tv_bounds.simplex_grid_oracle",),
}

# setup_s is the median over this many fresh interpreters, one before each slice of the timed
# run, so that the samples are spread over the run like the timed rounds.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170

# Runs in a fresh interpreter: times `import misbounds` plus one warm-up op.
PROBE = """
import sys, time
bench, src, workload = sys.argv[1:4]
sys.path[:0] = [src, bench]
start = time.perf_counter()
import misbounds
imported = time.perf_counter()
import workloads
ready = time.perf_counter()
workloads.WORKLOADS[workload].warmup()
print(repr((imported - start) + (time.perf_counter() - ready)))
"""


def setup_seconds(workload: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(BENCH_DIR), str(SRC), workload],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of a git checkout at the root, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, run, tallies) -> dict:
    import misbounds
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "misbounds": misbounds.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus_rounds": run.corpus,
        "rounds": run.rounds,
        "ops": sum(t.attempted for t in tallies),
        "executions": sum(len(t.op_s) for t in tallies),
    }


def import_package():
    """Import misbounds from this checkout's src/ and nowhere else."""
    if not (SRC / "misbounds" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'misbounds'}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import misbounds

    if Path(misbounds.__file__).resolve().parent != SRC / "misbounds":
        sys.exit(f"error: misbounds imported from {misbounds.__file__}, not from {SRC}")


def failures(tally) -> dict:
    return {"kinds": dict(tally.failure_kinds), "examples": tally.examples}


def untraced(args) -> tuple:
    """End-to-end metrics: one untraced run, with a set-up probe before each of its slices."""
    import harness
    from workloads import WORKLOADS

    WORKLOADS[args.workload].warmup()
    run = harness.Run(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(setup_seconds(args.workload))
        run.run_for(args.seconds / SETUP_PROBES)
    run.finish()
    tally = run.plain
    e2e = harness.end_to_end(tally)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": e2e["ops_per_s"],
        "op_p50_ms": e2e["op_p50_ms"],
        "op_tail_ms": e2e["op_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": e2e["ops_ok_frac"],
    }
    record = {
        "metadata": metadata(args, run, [tally]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()},
        "setup_s_runs": setups,
        "op_tail": e2e["op_tail"],
        "failed_ops": failures(tally),
    }
    if tally.digests:
        record["output_sha256"] = {label: sorted(d) for label, d in tally.digests.items()}
        record["output_sha256_stable"] = all(len(d) == 1 for d in tally.digests.values())
    return record, [tally]


def traced(args) -> tuple:
    """Per-layer metrics: every round runs untraced, then again with spans."""
    import harness
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS

    WORKLOADS[args.workload].warmup()
    tracer = Tracer()
    run = harness.Run(args.workload, args.seed, tracer)
    run.run_for(args.seconds)
    run.finish()
    plain, spanned = run.plain, run.spanned
    values = {name: tracer.metric(name) for name, _, _ in PER_LAYER}
    values["report.bound_factor2_violations"] = spanned.factor2
    values["trace.overhead_frac"] = sum(spanned.op_s) / sum(plain.op_s) - 1.0
    top = tracer.top_self()
    record = {
        "metadata": metadata(args, run, [plain, spanned]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER},
        "top_self_layer": top,
        "top_self_layer_expected": list(EXPECTED_TOP_SELF[args.workload]),
        "top_self_layer_as_expected": top in EXPECTED_TOP_SELF[args.workload],
        "self_s": dict(sorted(tracer.self_time.items(), key=lambda kv: -kv[1])),
        "failed_ops": failures(spanned),
    }
    return record, [plain, spanned]


def run_one(args) -> None:
    import_package()
    record, tallies = (traced if args.trace else untraced)(args)
    for name, metric in record["metrics"].items():
        print(f"{args.workload:9s} {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace:
        verdict = "as expected" if record["top_self_layer_as_expected"] else "NOT as expected"
        print(f"{args.workload:9s} largest self time: {record['top_self_layer']} ({verdict})")
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": all(t.correct for t in tallies),
                "attempted": sum(t.attempted for t in tallies),
                "failed": sum(t.failed for t in tallies),
                "metrics": record["metrics"],
            }
        )
    )


def run_all(args) -> int:
    """Each workload in its own fresh process, untraced then traced."""
    code = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(trace)]
            sys.stdout.flush()
            returncode = subprocess.run(argv, timeout=2 * args.seconds + CHILD_TIMEOUT_S).returncode
            code = code or returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None, help="default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
