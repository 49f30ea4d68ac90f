from __future__ import annotations

import json

import pytest

from matchforce import cli
from matchforce.bounds import psi_path_corona_triangle
from matchforce.corona import corona_product, partition_to_json
from matchforce.graph import (
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    path,
    serialize_edge_list,
    star,
)
from matchforce.matchings import MatchingSummary, summarize_matchings

from oracles import (
    corona_psi,
    degrees,
    path_corona_nu_sat,
    path_corona_psi,
    vertex_branch_maximal_masks,
)


@pytest.fixture
def y_graph():
    return corona_product(complete(2), complete(2))


class TestConstruction:
    def test_y_layout(self, y_graph):
        assert y_graph.graph.n == 6
        assert y_graph.graph.m == 7
        # spine edge first, then copy edges, then join edges copy by copy
        assert y_graph.graph.edges == (
            (0, 1),
            (2, 3),
            (4, 5),
            (0, 2),
            (0, 3),
            (1, 4),
            (1, 5),
        )
        assert y_graph.part_eg == (0,)
        assert y_graph.part_eh == ((1,), (2,))
        assert y_graph.part_egh == ((3, 4), (5, 6))
        # the join edges of copy i reach exactly that copy's vertices
        copies = [
            {v for e in cell for v in y_graph.graph.edges[e]} - {i}
            for i, cell in enumerate(y_graph.part_egh)
        ]
        assert copies == [{2, 3}, {4, 5}]

    def test_k2_corona_k1_is_a_path(self):
        cg = corona_product(complete(2), complete(1))
        g = cg.graph
        assert (g.n, g.m) == (4, 3)
        assert sorted(degrees(g)) == [1, 1, 2, 2]  # a 4-vertex tree with these degrees is P4

    def test_k1_corona_k3_is_k4(self):
        cg = corona_product(complete(1), complete(3))
        produced = {frozenset(e) for e in cg.graph.edges}
        expected = {frozenset(e) for e in complete(4).edges}
        # relabeling: copy vertices 1..3 around spine vertex 0 cover all pairs
        assert produced == expected

    def test_empty_first_factor_rejected(self):
        with pytest.raises(GraphError):
            corona_product(Graph(n=0, edges=()), complete(2))


FACTOR_PAIRS = [
    (g_name, h_name)
    for g_name in ("K1", "K2", "P3", "K3", "C4")
    for h_name in ("K1", "K2", "K3", "P3")
]


def _factor(name):
    return {
        "K1": complete(1),
        "K2": complete(2),
        "K3": complete(3),
        "P3": path(3),
        "C4": cycle(4),
    }[name]


@pytest.mark.parametrize("g_name,h_name", FACTOR_PAIRS)
def test_order_and_size_formulas(g_name, h_name):
    g, h = _factor(g_name), _factor(h_name)
    cg = corona_product(g, h)
    assert cg.graph.n == g.n * (1 + h.n)
    assert cg.graph.m == g.m + g.n * h.m + g.n * h.n


@pytest.mark.parametrize("g_name,h_name", FACTOR_PAIRS)
def test_partition_is_exact_and_join_edges_touch_spine(g_name, h_name):
    g, h = _factor(g_name), _factor(h_name)
    cg = corona_product(g, h)
    cells = [cg.part_eg, *cg.part_eh, *cg.part_egh]
    flat = [e for cell in cells for e in cell]
    assert sorted(flat) == list(range(cg.graph.m))
    assert len(set(flat)) == len(flat)
    for i, cell in enumerate(cg.part_egh):
        assert len(cell) == h.n
        for e in cell:
            assert i in cg.graph.edges[e]  # spine vertex i is an endpoint
    spine_degrees = degrees(cg.graph)[: g.n]
    assert spine_degrees == [d + h.n for d in degrees(g)]
    for i in range(g.n):
        # vertex j of copy i is g.n + i*h.n + j
        relabel = {g.n + i * h.n + j: j for j in range(h.n)}
        inner = {
            (relabel[u], relabel[v])
            for u, v in (cg.graph.edges[e] for e in cg.part_eh[i])
        }
        assert inner == set(h.edges)  # copy i is an identity-indexed copy of h


class TestPartitionOfEdge:
    def test_tags_by_layout_region(self, y_graph):
        assert 0 in y_graph.part_eg
        assert 1 in y_graph.part_eh[0]
        assert 6 in y_graph.part_egh[1]

    def test_edgeless_second_factor(self):
        cg = corona_product(path(3), complete(1))
        assert cg.part_eg == (0, 1)
        assert cg.part_eh == ((), (), ())
        assert cg.part_egh == ((2,), (3,), (4,))


def test_partition_sidecar_round_trip(y_graph):
    parts = json.loads(partition_to_json(y_graph))
    assert parts["EG"] == list(y_graph.part_eg)
    assert parts["EH"] == [list(cell) for cell in y_graph.part_eh]
    assert parts["EGH"] == [list(cell) for cell in y_graph.part_egh]


PSI_FACTORS = [
    ("K1", complete(1)),
    ("K2", complete(2)),
    ("K3", complete(3)),
    ("P3", path(3)),
    ("P4", path(4)),
    ("C4", cycle(4)),
    ("K4", complete(4)),
    ("K2,2", complete_bipartite(2, 2)),
    ("C5", cycle(5)),
    ("S4", star(4)),
]
PATH_SUMMARY_FACTORS = [("K3", complete(3)), ("P3", path(3)), ("C4", cycle(4))]
# Every ordered pair whose corona has at most 30 edges: 59 of the 100.
PSI_PAIRS = [
    (f"{g_name}o{h_name}", g, h)
    for g_name, g in PSI_FACTORS
    for h_name, h in PSI_FACTORS
    if g.m + g.n * (h.m + h.n) <= 30
]


@pytest.mark.parametrize("name,g,h", PSI_PAIRS, ids=[p[0] for p in PSI_PAIRS])
def test_corona_psi_oracle_equals_enumeration(name, g, h):
    assert corona_psi(g, h) == summarize_matchings(corona_product(g, h).graph).psi


def test_corona_psi_oracle_reaches_past_enumeration():
    assert len(PSI_PAIRS) == 59
    # P12oK3 has 83 edges; its Ψ is far beyond enumeration.
    assert corona_psi(path(12), complete(3)) == psi_path_corona_triangle(11) == 123_825_753


@pytest.mark.parametrize("name,h", PSI_FACTORS, ids=[name for name, _ in PSI_FACTORS])
def test_path_transfer_matrix_equals_the_subset_oracle(name, h):
    for n in range(1, 7):
        assert path_corona_psi(n, h) == corona_psi(path(n), h)


@pytest.mark.parametrize("n,psi", [(12, 123_825_753), (20, 38_166_342_053_346)])
def test_counting_pass_reaches_criterion_9_on_long_paths(n, psi):
    # Listing stops at its budget long before these counts; the counting
    # pass holds a few hundred states. corona_psi walks 2^(n - 1) spine edge
    # sets, minutes on P20oK3, so the transfer matrix checks both lengths.
    g = corona_product(path(n), complete(3)).graph
    assert summarize_matchings(g, budget=10**15).psi == psi_path_corona_triangle(n - 1) == psi
    assert path_corona_psi(n, complete(3)) == psi


@pytest.mark.parametrize("name,h", PSI_FACTORS, ids=[name for name, _ in PSI_FACTORS])
def test_path_transfer_matrix_nu_and_sat_equal_the_vertex_branching(name, h):
    # The coronas within the 30 edges of PSI_PAIRS, spine lengths 1 to 4.
    for n in range(1, 5):
        g = corona_product(path(n), h).graph
        if g.m <= 30:
            sizes = [row.bit_count() for row in vertex_branch_maximal_masks(g)]
            assert path_corona_nu_sat(n, h) == (max(sizes), min(sizes))


@pytest.mark.parametrize("name,h", PATH_SUMMARY_FACTORS, ids=[n for n, _ in PATH_SUMMARY_FACTORS])
def test_counting_pass_summary_equals_the_transfer_matrix(name, h):
    # P20oC4 has 179 edges and about 1.1e20 maximal matchings.
    for n in range(1, 21):
        g = corona_product(path(n), h).graph
        nu, sat = path_corona_nu_sat(n, h)
        want = MatchingSummary(path_corona_psi(n, h), nu, sat, has_perfect=2 * nu == g.n)
        assert summarize_matchings(g, budget=10**30) == want


@pytest.mark.parametrize("stat", ["nu", "sat"])
def test_json_report_figures_equal_the_transfer_matrix(stat, capsys, tmp_path):
    # The --json figures come from the 9,477 listed rows of P6oK3.
    source = tmp_path / "P6oK3.el"
    source.write_text(serialize_edge_list(corona_product(path(6), complete(3)).graph))
    assert cli.main([stat, "--json", "--in", str(source)]) == 0
    want = dict(zip(("nu", "sat"), path_corona_nu_sat(6, complete(3))))[stat]
    assert json.loads(capsys.readouterr().out)[stat] == want
