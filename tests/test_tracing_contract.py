"""The package still offers everything ``bench/tracing.py`` wraps and reads.

``tracing.install`` raises when a traced function, ``forcing.phi_greedy`` or
``matchings.DEFAULT_BUDGET`` is gone, and its record hooks read the results
of ``maximal_matching_masks`` (a list), ``build_model``, ``export_lp`` (a
str) and ``phi_exact``; either failure makes a traced benchmark run exit 1. The harness module is imported from ``bench/``
as it stands and is not changed here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import matchforce
import matchforce.cli
from matchforce.corona import corona_product
from matchforce.graph import complete, cycle, path, serialize_edge_list
from matchforce.matchings import maximal_matching_masks

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    module = importlib.import_module("tracing")
    yield module
    sys.modules.pop("tracing", None)


def test_traced_cli_calls_run_and_record_every_row_pair(tracing, tmp_path):
    graphs = {
        "C4oK2": corona_product(cycle(4), complete(2)).graph,
        "P3oK2": corona_product(path(3), complete(2)).graph,
        "P5oK3": corona_product(path(5), complete(3)).graph,
    }
    files = {}
    for name, g in graphs.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(serialize_edge_list(g))
    solution = tmp_path / "all.sol"
    solution.write_text("".join(f"x{e + 1} 1\n" for e in range(graphs["C4oK2"].m)))
    calls = [
        ["export-lp", "--in", str(files["C4oK2"])],
        ["export-lp", "--no-dedup", "--in", str(files["C4oK2"])],
        ["export-lp", "--in", str(files["P3oK2"])],
        ["import-solution", "--in", str(files["C4oK2"]), "--solution", str(solution)],
        ["phi", "--json", "--in", str(files["P3oK2"])],
        ["psi", "--json", "--in", str(files["P3oK2"])],
        # 34 edges: the rows come from the state listing.
        ["psi", "--json", "--in", str(files["P5oK3"])],
    ]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        codes = [matchforce.cli.main(argv) for argv in calls]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(calls)
    assert not hasattr(matchforce.ilp.build_model, "__wrapped__")

    builds = [s for s in tracer.spans if s.name == "ilp.build_model"]
    psi = {name: len(maximal_matching_masks(g)) for name, g in graphs.items()}
    want = [psi["C4oK2"], psi["C4oK2"], psi["P3oK2"]]
    assert [s.info["row_pairs"] for s in builds] == [t * (t - 1) // 2 for t in want]
    exports = [s for s in tracer.spans if s.name == "ilp.export_lp"]
    assert len(exports) == 3 and all(s.info["bytes"] > 0 for s in exports)
    phi = [s for s in tracer.spans if s.name == "forcing.phi_exact"]
    assert len(phi) == 1 and set(phi[0].info) == {"nodes", "size", "lower", "greedy"}
    last = [s for s in tracer.spans if s.name == "cli.main"][-1]
    listings = [s for s in tracer.spans if s.name == "matchings.maximal_matching_masks"]
    assert [s.info["rows"] for s in listings if s.parent == last.id] == [1944]
