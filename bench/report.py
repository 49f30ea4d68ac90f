"""Run the benchmark over workloads and seeds and print every metric.

    python3 bench/report.py                       # each BENCHMARK.json workload once
    python3 bench/report.py --seeds 1 2 3 4 5 --workloads enumerate

Each run is its own ``run.py`` process. For every workload and metric it
prints the median over seeds, the quartiles, and the spread: the distance
between the quartiles as a share of the median, against the metric's bound
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT

RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            values = ", ".join(f"{k} {v['value']:.4g}" for k, v in list(runs[-1]["metrics"].items())[:4])
            print(f"{workload} seed {seed}: attempted {runs[-1]['attempted']}, failed {runs[-1]['failed']}; "
                  f"{values}", file=sys.stderr, flush=True)
        print(f"\n{workload}  ({len(runs)} runs, correct={all(r['correct'] for r in runs)})")
        print(f"  {'metric':26s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, first in runs[0]["metrics"].items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            mark = "" if bound is None or rel <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:26s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:7.3f} "
                  f"{'' if bound is None else bound:>6}{mark}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
