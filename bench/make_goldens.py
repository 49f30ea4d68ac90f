"""Record goldens.json: the reference exit code and stdout of every operation.

    python3 bench/make_goldens.py

Needs scipy. Before recording, it confirms the forcing numbers in
``workloads.HIGHS_PHI`` with ``scipy.optimize.milp`` (HiGHS) on a test-cover
ILP built here from an enumeration that shares no code with matchforce, and
keeps the HiGHS optimum of C5 o K2 for the import-solution operation. Every
other golden is the CLI's own output at the recorded commit, so it pins
today's behaviour rather than proving it right; the independent checks in
workloads.py still run on every benchmark operation. For ``phi`` the golden
is the answer (phi, set, optimal), not the search statistics printed with
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

from workloads import GOLDENS_PATH, HIGHS_PHI, ROOT, WORKLOADS, build_input, load_matchforce
from workloads import resolve_argv, write_inputs

# Operations whose CLI output at the recorded commit is wrong: the golden is
# the correct output, from the closed form named in the operation.
CORRECT_OUTPUT = {"psi-S1100": "1099\n"}


def read_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n = int(lines[0][1])
    return n, [(int(u), int(v)) for u, v in lines[1:]]


def maximal_matchings(n: int, edges: list[tuple[int, int]]) -> list[frozenset[int]]:
    """Every matching by include/exclude, then keep the maximal ones."""
    found: list[frozenset[int]] = []

    def grow(i: int, used: frozenset[int], chosen: tuple[int, ...]) -> None:
        if i == len(edges):
            found.append(frozenset(chosen))
            return
        u, v = edges[i]
        if u not in used and v not in used:
            grow(i + 1, used | {u, v}, chosen + (i,))
        grow(i + 1, used, chosen)

    grow(0, frozenset(), ())
    out = []
    for m in found:
        saturated = {x for e in m for x in edges[e]}
        if all(u in saturated or v in saturated for u, v in edges):
            out.append(m)
    return out


def highs_phi(text: str) -> tuple[int, list[int]]:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, edges = read_edges(text)
    rows = maximal_matchings(n, edges)
    supports = sorted({frozenset(a ^ b) for a, b in combinations(rows, 2)}, key=sorted)
    matrix = np.zeros((len(supports), len(edges)))
    for k, support in enumerate(supports):
        matrix[k, sorted(support)] = 1
    res = milp(
        c=np.ones(len(edges)),
        constraints=LinearConstraint(matrix, lb=1, ub=np.inf),
        integrality=np.ones(len(edges)),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise SystemExit(f"HiGHS failed: {res.message}")
    chosen = [j for j, x in enumerate(res.x) if x > 0.5]
    return round(res.fun), chosen


def run_cli(mf, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mf.cli.main(argv)
    return code, out.getvalue()


def commit_label() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    mf = load_matchforce()
    highs: dict[str, dict] = {}
    goldens: dict = {
        "commit": commit_label(),
        "provenance": (
            "ops: exit code and stdout SHA-256 of matchforce.cli.main at 'commit', except the "
            "entries marked 'closed form'; highs: scipy.optimize.milp (HiGHS) optimum of the "
            "deduplicated test-cover ILP over an enumeration independent of matchforce"
        ),
        "highs": highs,
        "ops": {},
    }
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for name, want in HIGHS_PHI.items():
            text = mf.graph.serialize_edge_list(build_input(mf, name))
            phi, chosen = highs_phi(text)
            if phi != want:
                raise SystemExit(f"HiGHS gives phi({name}) = {phi}, workloads.py says {want}")
            highs[name] = {"phi": phi, "set": chosen}
            print(f"{name}: HiGHS phi {phi}", file=sys.stderr)
        for workload, ops in WORKLOADS.items():
            paths = write_inputs(mf, workload, Path(tmp) / workload, goldens)
            for op in ops:
                if op.id in CORRECT_OUTPUT:
                    code, stdout, source = 0, CORRECT_OUTPUT[op.id], f"closed form: {op.source}"
                else:
                    code, stdout = run_cli(mf, resolve_argv(op, paths))
                    source = "golden"
                    if op.check is not None and (problem := op.check(stdout)):
                        raise SystemExit(f"{op.id}: {problem}")
                data = stdout.encode()
                goldens["ops"][op.id] = {
                    "exit": code,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                    "head": stdout[:160],
                    "source": source,
                    "independent": op.source or None,
                }
                if op.argv[0] == "phi":
                    result = json.loads(stdout)
                    goldens["ops"][op.id]["answer"] = {k: result[k] for k in ("phi", "set", "optimal")}
                print(f"{workload}/{op.id}: exit {code}, {len(data)} B", file=sys.stderr)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
