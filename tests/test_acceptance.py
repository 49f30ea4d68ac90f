"""Acceptance suite: every headline value and property the toolkit must
reproduce, one test per criterion, exact integer equality throughout.

Each test prints one PASS/FAIL line so a plain run doubles as a report.
"""

from __future__ import annotations

import pytest

from matchforce.bounds import (
    corollary_lower_bounds,
    corona_matching_number,
    corona_phi_lower_randomly,
    corona_phi_upper_complement,
    phi_balanced_bipartite,
    phi_complete_even,
    psi_path_corona_triangle,
    verify_bounds,
)
from matchforce.corona import corona_product
from matchforce.forcing import is_global_forcing_set, phi_exact
from matchforce.graph import complete, complete_bipartite, path
from matchforce.ilp import build_model, export_lp, import_solution
from matchforce.matchings import (
    enumerate_maximal_matchings,
    maximal_matching_masks,
    summarize_matchings,
)

from oracles import brute_maximal_masks, brute_min_forcing, small_instances


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def y_graph():
    return corona_product(complete(2), complete(2)).graph


SWEEP_G = [("K1", complete(1)), ("K2", complete(2)), ("K3", complete(3)), ("P3", path(3))]
SWEEP_H = [("K1", complete(1)), ("K2", complete(2)), ("K3", complete(3))]


@pytest.fixture(scope="module")
def sweep_reports_fixture():
    return [
        verify_bounds(g, h, g_name, h_name)
        for g_name, g in SWEEP_G
        for h_name, h in SWEEP_H
    ]


# The maximal matchings of K2oK2 listed by hand, in canonical order. One holds
# the spine edge (0,1). The other eight pick one of (2,3), (0,2), (0,3) on the
# left and one of (4,5), (1,4), (1,5) on the right, except (2,3) with (4,5),
# which leaves 0 and 1 free for the spine edge.
Y_MAXIMAL_MATCHINGS = [
    ((0, 1), (2, 3), (4, 5)),
    ((2, 3), (1, 4)),
    ((2, 3), (1, 5)),
    ((4, 5), (0, 2)),
    ((4, 5), (0, 3)),
    ((0, 2), (1, 4)),
    ((0, 2), (1, 5)),
    ((0, 3), (1, 4)),
    ((0, 3), (1, 5)),
]


def test_criterion_01_psi_of_y():
    cg = corona_product(complete(2), complete(2))
    y = cg.graph
    psi = summarize_matchings(y).psi
    masks = maximal_matching_masks(y)
    listed = [tuple(y.edges[i] for i in range(y.m) if mask >> i & 1) for mask in masks]
    (spine,) = cg.part_eg
    with_spine_edge = sum(1 for mask in masks if mask >> spine & 1)
    oracle = brute_maximal_masks(y)

    # A count of 10 needs the two copy edges alone: a matching, but one the
    # spine edge still extends, so not a maximal one.
    copy_pair = ((2, 3), (4, 5))
    extended = copy_pair + (y.edges[spine],)
    copy_pair_is_matching = len({v for e in copy_pair for v in e}) == 4
    spine_extends_it = len({v for e in extended for v in e}) == 6

    ok = (
        psi == 9
        and with_spine_edge == 1
        and masks == oracle
        and listed == Y_MAXIMAL_MATCHINGS
        and copy_pair_is_matching
        and copy_pair not in listed
        and spine_extends_it
    )
    report(
        1,
        ok,
        f"Psi(K2oK2)={psi} (expected 9), equal to the brute-force oracle and the "
        f"hand listing; {with_spine_edge} contains the spine edge; a count of 10 "
        f"needs {copy_pair}, which the spine edge {y.edges[spine]} extends, "
        "so it is not maximal",
    )
    assert psi == 9
    assert with_spine_edge == 1
    assert masks == oracle
    assert listed == Y_MAXIMAL_MATCHINGS
    assert copy_pair_is_matching and spine_extends_it
    assert copy_pair not in listed


def test_criterion_02_phi_of_y(y_graph):
    result = phi_exact(y_graph)
    lower = result.lower_bound
    nu = summarize_matchings(y_graph).nu
    upper = corona_phi_upper_complement(y_graph.m, nu)
    ok = result.size == 4 and lower == 4 and upper == 4 and y_graph.m - nu == 4
    assert report(
        2,
        ok,
        f"phi(Y)={result.size} (expected 4), ceil-log2 lower={lower}, "
        f"m-nu={y_graph.m}-{nu}={upper}",
    )
    assert result.optimal


def test_criterion_03_second_upper_branch_on_p4():
    cg = corona_product(complete(2), complete(1))
    phi = phi_exact(cg.graph).size
    nu_h = summarize_matchings(complete(1)).nu
    predicted_nu = corona_matching_number(1, 2, nu_h, False)
    bound = corona_phi_upper_complement(cg.graph.m, predicted_nu)
    ok = phi == 1 and bound == 1
    assert report(
        3,
        ok,
        f"phi(K2oK1)=phi(P4)={phi} (expected 1); "
        f"no-perfect-matching branch bound m-n(G)-n(G)nu(H)={bound}",
    )


def test_criterion_04_k3_worked_example():
    k3 = complete(3)
    matchings = enumerate_maximal_matchings(k3)
    rows = maximal_matching_masks(k3)
    lp_text = export_lp(build_model(k3))
    expected_lp = (
        "Minimize\n"
        " obj: x1 + x2 + x3\n"
        "Subject To\n"
        " c1_2: x1 + x2 >= 1\n"
        " c1_3: x1 + x3 >= 1\n"
        " c2_3: x2 + x3 >= 1\n"
        "Binary\n"
        " x1\n"
        " x2\n"
        " x3\n"
        "End\n"
    )
    edges, objective = import_solution("x1 1\nx2 1\nx3 0\n", k3)
    checks = [
        matchings == [(0,), (1,), (2,)],
        rows == [0b001, 0b010, 0b100],
        lp_text == expected_lp,
        edges == (0, 1) and objective == 2,
        is_global_forcing_set(k3, edges),
        phi_exact(k3).size == 2,
    ]
    assert report(
        4,
        all(checks),
        "K3: singleton matchings, identity incidence matrix, golden LP text, "
        f"imported solution {edges} verifies with objective {objective} = phi",
    )


def test_criterion_05_closed_forms():
    even_complete = {k: phi_exact(complete(2 * k)).size for k in (1, 2, 3)}
    bipartite = {k: phi_exact(complete_bipartite(k, k)).size for k in (2, 3)}
    ok = all(even_complete[k] == phi_complete_even(k) for k in (1, 2, 3))
    ok = ok and even_complete == {1: 0, 2: 2, 3: 8}
    ok = ok and all(bipartite[k] == phi_balanced_bipartite(k) for k in (2, 3))
    ok = ok and bipartite == {2: 1, 3: 4}
    assert report(
        5,
        ok,
        f"phi(K_2k) for k=1,2,3 -> {even_complete} vs (2k-2)^2/2; "
        f"phi(K_kk) for k=2,3 -> {bipartite} vs (k-1)^2",
    )


def test_criterion_06_matching_number_formula(sweep_reports_fixture):
    failures = [
        (r.g_name, r.h_name)
        for r in sweep_reports_fixture
        if r.exact_nu is None or not r.verdicts.get("nu_formula", False)
    ]
    branches = {r.h_has_perfect for r in sweep_reports_fixture}
    ok = not failures and branches == {True, False}
    assert report(
        6,
        ok,
        f"matching-number formula on {len(sweep_reports_fixture)} factor pairs, "
        f"both branches exercised ({sorted(branches)}); failures: {failures}",
    )


def test_criterion_07_theorem_sandwich(sweep_reports_fixture):
    failures = []
    for r in sweep_reports_fixture:
        if r.exact_phi is None:
            failures.append((r.g_name, r.h_name, "no exact phi"))
            continue
        if r.exact_phi > min(r.upper_complement, r.upper_sum):
            failures.append((r.g_name, r.h_name, "upper bound violated"))
        if r.lower_randomly is not None and r.lower_randomly > r.exact_phi:
            failures.append((r.g_name, r.h_name, "lower bound violated"))
    y_report = next(
        r for r in sweep_reports_fixture if (r.g_name, r.h_name) == ("K2", "K2")
    )
    tight = y_report.upper_sum == 4 == y_report.exact_phi
    ok = not failures and tight
    assert report(
        7,
        ok,
        f"lower <= phi <= min(upper bounds) on {len(sweep_reports_fixture)} pairs; "
        f"upper_sum tight on K2oK2 ({y_report.upper_sum}); failures: {failures}",
    )


def test_criterion_08_oracle_suites():
    instances = small_instances(max_edges=8)
    failures = []
    for name, g in instances:
        masks = maximal_matching_masks(g)
        if masks != brute_maximal_masks(g):
            failures.append((name, "enumeration"))
            continue
        exact = phi_exact(g)
        size, witness = brute_min_forcing(g, masks)
        if exact.size != size or exact.edges != witness:
            failures.append((name, "exact search"))
        full = build_model(g, dedup=False)
        deduped = build_model(g, dedup=True)
        best = min(
            (mask.bit_count() for mask in range(1 << g.m) if deduped.satisfied_by(mask)),
            default=0,
        )
        if best != exact.size:
            failures.append((name, "ilp optimum"))
        if any(
            full.satisfied_by(mask) != deduped.satisfied_by(mask)
            for mask in range(1 << g.m)
        ):
            failures.append((name, "dedup feasible set"))
    assert report(
        8,
        not failures,
        f"enumeration/exact/ILP/dedup oracles agree on {len(instances)} graphs "
        f"with m<=8; failures: {failures}",
    )


def test_criterion_09_fibonacci_convention():
    two_vertex = summarize_matchings(corona_product(path(2), complete(3)).graph).psi
    three_vertex = summarize_matchings(corona_product(path(3), complete(3)).graph).psi
    edge_convention = psi_path_corona_triangle(2)  # P3 has 2 edges
    vertex_convention = psi_path_corona_triangle(3)  # n = vertex count reading
    matches = {
        "edge_convention": three_vertex == edge_convention,
        "vertex_convention": three_vertex == vertex_convention,
    }
    ok = (
        two_vertex == 18 == psi_path_corona_triangle(1)
        and three_vertex == 81 == edge_convention
        and vertex_convention == 405
        and three_vertex != vertex_convention
    )
    assert report(
        9,
        ok,
        f"Psi(P2oK3)={two_vertex} pins the n-edge convention (3^2*F3=18); "
        f"Psi(P3oK3)={three_vertex} vs edge-convention {edge_convention}, "
        f"vertex-convention {vertex_convention}; matches: {matches}",
    )


def test_criterion_10_corollary_consistency():
    failures = []
    for k in (2, 3, 4):
        for phi_g, n_g in ((0, 1), (1, 2), (3, 5)):
            from_complete = corona_phi_lower_randomly(
                phi_g, n_g, phi_complete_even(k), 2 * k
            )
            from_bipartite = corona_phi_lower_randomly(
                phi_g, n_g, phi_balanced_bipartite(k), 2 * k
            )
            if corollary_lower_bounds(phi_g, n_g, k) != (from_complete, from_bipartite):
                failures.append((k, phi_g, n_g))
    assert report(
        10,
        not failures,
        f"corollary formulas equal the general lower bound with the closed-form "
        f"factor values for k in (2,3,4); failures: {failures}",
    )
