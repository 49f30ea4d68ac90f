"""matchforce benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload phi-exact --seed 1 --seconds 30 --trace 0

Each operation is a ``matchforce.cli.main(argv)`` call on edge-list files
written during set-up, judged against goldens.json and the independent
references in workloads.py. ``--seed`` permutes the order of the operations
in every pass; the inputs and outputs do not depend on it. Passes repeat
while the next one still fits in ``--seconds`` (at least one runs).

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` untraced passes are followed by traced passes, the per-layer
metrics are reported, and the spans are written to
``.bench_out/trace-<workload>-<seed>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import harness
import tracing
from workloads import BENCH_DIR, ROOT, WORKLOADS, load_goldens, load_matchforce, write_inputs

# Set-ups timed per run for setup_s, each in a fresh interpreter. One runs
# before every pass, so they sample the whole run rather than one moment.
SETUP_SAMPLES = 11


def timed_setup(workload: str, directory: Path) -> float:
    """Wall seconds from interpreter start to every input file written.

    No timeout: with one, ``wait`` polls at up to 50 ms intervals, which
    would round every sample up to the next poll.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(directory)], check=True)
    return time.perf_counter() - start


def run_passes(ops, paths, goldens, rng, seconds, main_of, tracer=None, first=0, before_pass=None):
    """Passes in seeded random order until the next would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        if before_pass is not None:
            before_pass()
        results = []
        for op in rng.sample(ops, len(ops)):
            if tracer is not None:
                tracer.op = f"{first + len(passes)}/{op.id}"
            results.append(harness.run_op(main_of(), op, paths, goldens["ops"][op.id]))
        passes.append(results)
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() - start + longest > seconds:
            return passes


def report_failures(passes) -> None:
    for results in passes:
        for r in results:
            if not r.ok:
                print(f"bench: {r.op} failed: {r.error}", file=sys.stderr)


def traced_run(workload, seed, seconds, mf, goldens, rng, work: Path) -> str:
    """Untraced passes for half the time, then traced passes; the result
    line carries the per-layer metrics, medians over the traced passes."""
    ops = WORKLOADS[workload]
    main_of = lambda: mf.cli.main  # looked up per call: tracing rebinds it
    paths = write_inputs(mf, workload, work / "inputs", goldens)
    start = time.perf_counter()
    untraced = run_passes(ops, paths, goldens, rng, seconds / 2, main_of)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.op = "setup"
        traced_paths = write_inputs(mf, workload, work / "traced-inputs", goldens)
        remaining = seconds - (time.perf_counter() - start)
        traced = run_passes(ops, traced_paths, goldens, rng, remaining, main_of, tracer, first=1)
    finally:
        tracer.uninstall()
    passes = untraced + traced
    report_failures(passes)
    untraced_wall = statistics.median(harness.pass_wall(p) for p in untraced)
    setup_spans = [s for s in tracer.spans if s.op == "setup"]
    per_pass = []
    for i, results in enumerate(traced, start=1):
        spans = setup_spans + [s for s in tracer.spans if s.op.startswith(f"{i}/")]
        layer = tracing.layer_metrics(spans, sum(r.stdout_bytes for r in results))
        layer["trace.overhead_s"] = harness.pass_wall(results) - untraced_wall
        per_pass.append(layer)
    out = ROOT / ".bench_out" / f"trace-{workload}-{seed}.json"
    tracer.dump(out, ops=[[asdict(r) for r in results] for results in passes])
    print(f"bench: {len(tracer.spans)} spans written to {out}", file=sys.stderr)
    return harness.result_line(passes, tracing.median_metrics(per_pass), tracing.LAYER_METRICS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mf = load_matchforce()
    goldens = load_goldens()
    rng = random.Random(args.seed)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        work = Path(tmp)
        if args.trace:
            print(traced_run(args.workload, args.seed, args.seconds, mf, goldens, rng, work))
            return 0
        paths = write_inputs(mf, args.workload, work / "inputs", goldens)
        setups: list[float] = []

        def probe() -> None:
            setups.append(timed_setup(args.workload, work / f"setup-{len(setups)}"))

        passes = run_passes(
            WORKLOADS[args.workload], paths, goldens, rng, args.seconds, lambda: mf.cli.main, before_pass=probe
        )
        while len(setups) < SETUP_SAMPLES:
            probe()
    report_failures(passes)
    calibrations = [r.calibration for p in passes for r in p]
    metrics = harness.end_to_end(passes, statistics.median(setups), harness.peak_rss_mb(), calibrations)
    print(f"bench: {len(passes)} passes, {len(setups)} timed set-ups; times are raw seconds x "
          f"{harness.CALIBRATION_REF_S / min(calibrations):.3f} (calibration)", file=sys.stderr)
    print(harness.result_line(passes, metrics, harness.END_TO_END))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
