"""Benchmark inputs and operations.

Each workload is a list of CLI invocations over edge-list files that the
set-up writes. References come from two places, kept apart on purpose:

* independent checks, which share no code with matchforce: closed forms
  (Psi and nu of P_n o K3, Psi of a star) and forcing numbers confirmed by
  ``scipy.optimize.milp`` (HiGHS) when ``goldens.json`` was made;
* goldens: the exit code and the SHA-256 of the stdout bytes recorded by
  ``make_goldens.py`` at the commit named in ``goldens.json``.

Run as a script (``python3 bench/workloads.py WORKLOAD DIR``) it performs
one set-up from a fresh interpreter; ``run.py`` times that for ``setup_s``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDENS_PATH = BENCH_DIR / "goldens.json"


def load_matchforce():
    """Import matchforce from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "matchforce" / "__init__.py").is_file():
        raise SystemExit(f"bench: no matchforce sources under {src}")
    sys.path.insert(0, str(src))
    import matchforce
    import matchforce.cli

    if Path(matchforce.__file__).resolve().parent != src / "matchforce":
        raise SystemExit(f"bench: imported matchforce from {matchforce.__file__}, not {src}")
    return matchforce


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def psi_path_corona_k3(n: int) -> int:
    """Maximal matchings of P_n o K3 with n path vertices: 3^n * F(n+1)."""
    return 3**n * fibonacci(n + 1)


# name -> (spine family, spine order, copied family, copied order); a copied
# family of None means the input is the spine graph itself.
INPUTS: dict[str, tuple[str, int, str | None, int]] = {
    "C4oK2": ("cycle", 4, "complete", 2),
    "K3oP3": ("complete", 3, "path", 3),
    "C5oK2": ("cycle", 5, "complete", 2),
    "K2oK4": ("complete", 2, "complete", 4),
    "P5oK3": ("path", 5, "complete", 3),
    "P6oK3": ("path", 6, "complete", 3),
    "P6oK2": ("path", 6, "complete", 2),
    "S1100": ("star", 1100, None, 0),
}

# The C5 o K2 solution file fed to import-solution holds this HiGHS optimum.
SOLUTION_INPUT = "C5oK2"


def build_input(mf, name: str):
    kind, n, h_kind, h_n = INPUTS[name]
    g = mf.graph.generate(mf.graph.GraphFamily(kind, n))
    if h_kind is None:
        return g
    h = mf.graph.generate(mf.graph.GraphFamily(h_kind, h_n))
    return mf.corona.corona_product(g, h).graph


Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI call. ``argv`` names inputs as ``{NAME}``, filled in at set-up.

    ``check`` is the independent reference, if any: it returns a message when
    the stdout disagrees with it.
    """

    id: str
    argv: tuple[str, ...]
    check: Check | None = None
    source: str = ""


def _first_int(stdout: str) -> int:
    return int(stdout.split()[0])


def expect_count(key: str, want: int) -> Check:
    def check(stdout: str) -> str | None:
        got = json.loads(stdout)[key] if stdout.startswith("{") else _first_int(stdout)
        return None if got == want else f"{key} {got}, expected {want}"

    return check


def expect_psi_listing(want: int) -> Check:
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        listed = len(payload["matchings"])
        if payload["psi"] != want or listed != want:
            return f"psi {payload['psi']} with {listed} listed, expected {want}"
        return None

    return check


def expect_phi(want: int) -> Check:
    """A proven answer must equal the HiGHS optimum; an unproven incumbent is
    a forcing set, so it can only be at or above it."""

    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        phi, optimal = payload["phi"], payload["optimal"]
        if phi != len(payload["set"]):
            return f"phi {phi} but set has {len(payload['set'])} edges"
        if (optimal and phi != want) or phi < want:
            return f"phi {phi} (optimal={optimal}), HiGHS optimum {want}"
        return None

    return check


def expect_forcing_solution(want: int) -> Check:
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload["forcing"] is not True or payload["objective"] != want:
            return f"import-solution gave {payload}, expected a forcing set of size {want}"
        return None

    return check


# phi of the phi-exact instances, confirmed with HiGHS by make_goldens.py.
HIGHS_PHI = {"C4oK2": 10, "K3oP3": 9, "C5oK2": 13, "K2oK4": 16}
HIGHS = "scipy.optimize.milp (HiGHS) on the test-cover ILP, see make_goldens.py"


def _phi_op(name: str, *extra: str) -> Op:
    return Op(
        f"phi-{name}",
        ("phi", "--method", "exact", "--json", "--in", f"{{{name}}}", *extra),
        expect_phi(HIGHS_PHI[name]),
        HIGHS,
    )


def _enumerate_ops(name: str, n: int) -> list[Op]:
    path = f"{{{name}}}"
    psi = psi_path_corona_k3(n)
    psi_src = f"Psi(P_n o K3) = 3^n F(n+1), n = {n}"
    return [
        Op(f"psi-{name}", ("psi", "--in", path), expect_count("psi", psi), psi_src),
        Op(f"nu-{name}", ("nu", "--in", path), expect_count("nu", 2 * n), f"nu(P_n o K3) = 2n, n = {n}"),
        Op(f"sat-{name}", ("sat", "--in", path)),
        Op(f"psi-json-{name}", ("psi", "--json", "--in", path), expect_psi_listing(psi), psi_src),
    ]


def _export_op(name: str, *extra: str) -> Op:
    suffix = "-nodedup" if extra else ""
    return Op(f"export-lp{suffix}-{name}", ("export-lp", *extra, "--in", f"{{{name}}}"))


SWEEP_FAMILIES = ("K1", "K2", "K3", "P3", "P4", "C4", "K2,2")

WORKLOADS: dict[str, list[Op]] = {
    # Exact searches where the proof of optimality is >99% of the time. Two
    # proofs finish; C5oK2 (311,295 nodes to prove) and K2oK4 stop unproven
    # at a node budget, which keeps every operation short enough to repeat.
    "phi-exact": [
        _phi_op("C4oK2"),
        _phi_op("K3oP3"),
        _phi_op("C5oK2", "--node-limit", "50000"),
        _phi_op("K2oK4", "--node-limit", "20000"),
    ],
    # Enumeration does all the work; --json adds Matching objects and output.
    "enumerate": _enumerate_ops("P6oK3", 6) + _enumerate_ops("P5oK3", 5),
    # Many small searches (84 phi_exact calls) and per-call set-up costs.
    "bounds-sweep": [
        Op("sweep", ("sweep", "--families", *SWEEP_FAMILIES, "--max-n", "12")),
    ],
    # The O(Psi^2) row-pair loop, LP text size and memory; forcing verifies.
    # P3oC4 (507,528 row pairs, 1.5 s) is left out: its one long, memory-bound
    # call had the widest run-to-run spread of any operation.
    "ilp-roundtrip": [
        _export_op("C5oK2"),
        _export_op("P6oK2"),
        _export_op("C5oK2", "--no-dedup"),
        Op(
            "import-solution-C5oK2",
            ("import-solution", "--in", "{C5oK2}", "--solution", "{C5oK2.sol}"),
            expect_forcing_solution(HIGHS_PHI["C5oK2"]),
            HIGHS,
        ),
    ],
    # Not in BENCHMARK.json: it fails at the goldens commit (RecursionError),
    # and the measured workloads must not fail. Run it by name to check
    # ROADMAP item 5.
    "robustness": [
        Op("psi-S1100", ("psi", "--in", "{S1100}"), expect_count("psi", 1099), "Psi(star(n)) = n - 1"),
    ],
}


def input_names(ops: list[Op]) -> list[str]:
    names = []
    for op in ops:
        for arg in op.argv:
            if arg.startswith("{"):
                name = arg[1:-1].removesuffix(".sol")
                if name not in names:
                    names.append(name)
    return names


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def write_inputs(mf, workload: str, directory: Path, goldens: dict) -> dict[str, str]:
    """Generate, corona-build and serialize every input file of a workload.

    Returns the ``{NAME}`` substitutions for the operations' argv.
    """
    directory.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload]
    paths: dict[str, str] = {}
    for name in input_names(ops):
        path = directory / f"{name}.txt"
        path.write_text(mf.graph.serialize_edge_list(build_input(mf, name)))
        paths[f"{{{name}}}"] = str(path)
    if any("{C5oK2.sol}" in op.argv for op in ops):
        path = directory / f"{SOLUTION_INPUT}.sol"
        chosen = goldens["highs"][SOLUTION_INPUT]["set"]
        path.write_text("".join(f"x{e + 1} 1\n" for e in chosen))
        paths[f"{{{SOLUTION_INPUT}.sol}}"] = str(path)
    return paths


def resolve_argv(op: Op, paths: dict[str, str]) -> list[str]:
    return [paths.get(arg, arg) for arg in op.argv]


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in WORKLOADS:
        print(f"usage: workloads.py {{{','.join(WORKLOADS)}}} DIR", file=sys.stderr)
        return 2
    mf = load_matchforce()
    write_inputs(mf, argv[0], Path(argv[1]), load_goldens())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
