from __future__ import annotations

import pytest

from matchforce.bounds import (
    GRADED_CHECKS,
    corollary_lower_bounds,
    corona_matching_number,
    corona_phi_lower_randomly,
    corona_phi_upper_complement,
    corona_phi_upper_sum,
    fibonacci,
    phi_balanced_bipartite,
    phi_complete_even,
    psi_path_corona_triangle,
    sweep_reports,
    verify_bounds,
)
from matchforce.corona import corona_product
from matchforce.forcing import phi_exact
from matchforce.graph import (
    complete,
    complete_bipartite,
    cycle,
    generate,
    parse_family_name,
    path,
    star,
)
from matchforce.matchings import BudgetExceededError, maximal_matching_masks, summarize_matchings

from oracles import brute_min_forcing, projections_distinct
from test_cli import enumerated  # noqa: F401  (a fixture)


class TestClosedForms:
    def test_fibonacci_convention(self):
        assert [fibonacci(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]
        with pytest.raises(ValueError):
            fibonacci(0)

    def test_factor_forcing_numbers(self):
        assert [phi_complete_even(k) for k in (1, 2, 3)] == [0, 2, 8]
        assert [phi_balanced_bipartite(k) for k in (1, 2, 3)] == [0, 1, 4]
        for closed_form in (phi_complete_even, phi_balanced_bipartite):
            with pytest.raises(ValueError):
                closed_form(0)

    def test_path_corona_triangle_count(self):
        assert psi_path_corona_triangle(1) == 18  # 3^2 * F(3)
        assert psi_path_corona_triangle(2) == 81  # 3^3 * F(4)
        with pytest.raises(ValueError):
            psi_path_corona_triangle(0)


class TestFormulaEvaluators:
    def test_matching_number_both_branches(self):
        assert corona_matching_number(1, 2, 1, True) == 3  # Y
        assert corona_matching_number(1, 2, 0, False) == 2  # K2 o K1 = P4
        assert corona_matching_number(0, 1, 1, False) == 2  # K1 o K3 = K4

    def test_upper_complement(self):
        assert corona_phi_upper_complement(7, 3) == 4
        assert corona_phi_upper_complement(3, 2) == 1
        assert corona_phi_upper_complement(6, 2) == 4

    def test_upper_sum(self):
        assert corona_phi_upper_sum(0, 2, 0, 2) == 4
        assert corona_phi_upper_sum(0, 2, 0, 1) == 2
        assert corona_phi_upper_sum(0, 1, 2, 3) == 5

    def test_lower_randomly(self):
        assert corona_phi_lower_randomly(0, 2, 0, 2) == 2
        assert corona_phi_lower_randomly(0, 2, 2, 4) == 8
        assert corona_phi_lower_randomly(0, 1, 1, 4) == 3
        with pytest.raises(ValueError):
            corona_phi_lower_randomly(0, 2, 0, 3)

    def test_corollary_values(self):
        assert corollary_lower_bounds(0, 1, 2) == (4, 3)
        assert corollary_lower_bounds(0, 2, 2) == (8, 6)
        assert corollary_lower_bounds(2, 3, 3) == (35, 23)
        with pytest.raises(ValueError):
            corollary_lower_bounds(0, 1, 1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("phi_g,n_g", [(0, 1), (0, 2), (2, 3)])
    def test_corollary_agrees_with_general_lower_bound(self, k, phi_g, n_g):
        complete_bound, bipartite_bound = corollary_lower_bounds(phi_g, n_g, k)
        # H on 2k vertices in both cases, with the factor closed forms
        assert complete_bound == corona_phi_lower_randomly(
            phi_g, n_g, phi_complete_even(k), 2 * k
        )
        assert bipartite_bound == corona_phi_lower_randomly(
            phi_g, n_g, phi_balanced_bipartite(k), 2 * k
        )


class TestVerifyBounds:
    def test_y_instance_is_tight_on_both_upper_bounds(self):
        report = verify_bounds(complete(2), complete(2), "K2", "K2")
        assert report.all_pass()
        assert report.h_has_perfect and report.h_randomly_matchable
        assert report.exact_phi == 4
        assert report.gaps["upper_complement"] == 0
        assert report.gaps["upper_sum"] == 0
        assert report.gaps["lower_randomly"] == 2

    def test_p4_instance_uses_the_second_branch(self):
        report = verify_bounds(complete(2), complete(1), "K2", "K1")
        assert report.all_pass()
        assert not report.h_has_perfect
        assert report.predicted_nu == 2
        assert report.exact_phi == 1
        assert report.gaps["upper_complement"] == 0
        assert report.lower_randomly is None

    def test_k4_instance_has_slack(self):
        report = verify_bounds(complete(1), complete(3), "K1", "K3")
        assert report.all_pass()
        assert report.predicted_nu == 2
        assert report.exact_phi == 2
        assert report.gaps["upper_complement"] == 2  # bound 4
        assert report.gaps["upper_sum"] == 3  # bound 5

    def test_budget_exhaustion_gives_partial_report(self):
        report = verify_bounds(complete(2), complete(2), budget=4)
        assert report.exact_phi is None and report.exact_nu is None
        assert report.verdicts == {"lower_le_upper": True}

    def test_factor_phi_must_be_proven(self, monkeypatch):
        # 10 nodes leave C6oK2 unproven; its φ is 15 and takes 21 nodes to
        # prove. An unproven factor value would leak into
        # upper_sum, so it is an error.
        monkeypatch.setattr("matchforce.bounds.DEFAULT_NODE_LIMIT", 10)
        with pytest.raises(BudgetExceededError, match="factor H"):
            verify_bounds(complete(1), corona_product(cycle(6), complete(2)).graph)

    def test_exact_phi_runs_no_greedy(self, monkeypatch):
        # A report carries no greedy size, so bounds reads φ off the exact
        # search alone and never builds the greedy set.
        def refuse(*args):
            raise AssertionError("bounds ran the greedy forcing set")

        monkeypatch.setattr("matchforce.forcing._greedy_columns", refuse)
        report = verify_bounds(cycle(4), complete(2), "C4", "K2")
        assert (report.phi_g, report.phi_h, report.exact_phi) == (1, 0, 10)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_nu_prediction_off_either_way_fails(self, monkeypatch, offset):
        # ν is an equality, unlike the bounds, so a prediction below the
        # exact value fails as well as one above it.
        monkeypatch.setattr(
            "matchforce.bounds.corona_matching_number",
            lambda *args: corona_matching_number(*args) + offset,
        )
        report = verify_bounds(complete(2), complete(2))
        assert report.gaps["nu_formula"] == -offset
        assert report.verdicts["nu_formula"] is False
        assert not report.all_pass()

    def test_factor_past_the_edge_cap_is_refused(self):
        # star(42) has 41 edges, one past the exact search's cap.
        with pytest.raises(BudgetExceededError, match="factor H"):
            verify_bounds(complete(1), star(42))

    def test_report_serializes(self):
        report = verify_bounds(complete(2), complete(2))
        data = report.to_dict()
        assert data["all_pass"] is True
        assert data["exact_psi"] == summarize_matchings(
            corona_product(complete(2), complete(2)).graph
        ).psi


NU_GRID_G = [("K1", complete(1)), ("K2", complete(2)), ("K3", complete(3)), ("P3", path(3)), ("C4", cycle(4))]
NU_GRID_H = [("K1", complete(1)), ("K2", complete(2)), ("K3", complete(3)), ("P3", path(3))]


@pytest.mark.parametrize("g_name,g", NU_GRID_G, ids=[n for n, _ in NU_GRID_G])
@pytest.mark.parametrize("h_name,h", NU_GRID_H, ids=[n for n, _ in NU_GRID_H])
def test_matching_number_formula_on_wide_grid(g_name, g, h_name, h):
    summary_h = summarize_matchings(h)
    predicted = corona_matching_number(
        summarize_matchings(g).nu, g.n, summary_h.nu, summary_h.has_perfect
    )
    assert predicted == summarize_matchings(corona_product(g, h).graph).nu


NU_LONG_G = [(f"{name}{n}", make(n)) for name, make in (("P", path), ("C", cycle)) for n in (10, 17, 30)]
NU_LONG_H = [
    ("K1", complete(1)),
    ("K2", complete(2)),
    ("K3", complete(3)),
    ("P3", path(3)),
    ("P4", path(4)),
    ("C4", cycle(4)),
    ("K4", complete(4)),
    ("C5", cycle(5)),
    ("S4", star(4)),
]


@pytest.mark.parametrize("g_name,g", NU_LONG_G, ids=[n for n, _ in NU_LONG_G])
@pytest.mark.parametrize("h_name,h", NU_LONG_H, ids=[n for n, _ in NU_LONG_H])
def test_matching_number_formula_on_long_paths_and_cycles(g_name, g, h_name, h):
    # Every ν here, of the factors and of the corona, comes from the blossom
    # matching of networkx, which shares no code with the enumerator.
    nx = pytest.importorskip("networkx")

    def nu(graph):
        return len(nx.max_weight_matching(nx.Graph(graph.edges), maxcardinality=True))

    nu_h = nu(h)
    predicted = corona_matching_number(nu(g), g.n, nu_h, 2 * nu_h == h.n)
    assert predicted == nu(corona_product(g, h).graph)


def test_sweep_covers_all_pairs_and_passes():
    factors = [("K1", complete(1)), ("K2", complete(2)), ("P3", path(3))]
    reports = sweep_reports(factors)
    assert len(reports) == 9
    assert all(report.all_pass() for report in reports)
    capped = sweep_reports(factors, max_corona_order=6)
    assert {(r.g_name, r.h_name) for r in capped} == {
        ("K1", "K1"),
        ("K1", "K2"),
        ("K1", "P3"),
        ("K2", "K1"),
        ("K2", "K2"),
        ("P3", "K1"),
    }


# The bounds-sweep benchmark grid, swept up to corona order 12.
BENCH_GRID = ("K1", "K2", "K3", "P3", "P4", "C4", "K2,2")


def test_every_graded_check_has_a_column():
    factors = [(name, generate(parse_family_name(name))) for name in BENCH_GRID]
    reports = sweep_reports(factors, max_corona_order=12)
    checks = set(GRADED_CHECKS)
    for report in reports:
        assert set(report.gaps) <= checks
        # lower_le_upper compares two bounds and has no gap or column.
        assert set(report.verdicts) - {"lower_le_upper"} <= checks
    assert set().union(*(report.gaps for report in reports)) == checks


def test_sweep_grades_each_distinct_graph_once(enumerated):
    factors = [(name, generate(parse_family_name(name))) for name in BENCH_GRID]
    reports = sweep_reports(factors, max_corona_order=12)
    # 7 factors and 28 coronas, K1oK1 being K2: one listing each, not 3 per pair.
    assert len(enumerated) == len(set(enumerated)) == 34
    separate = [
        verify_bounds(g, h, g_name, h_name)
        for g_name, g in factors
        for h_name, h in factors
        if g.n * (1 + h.n) <= 12
    ]
    assert len(separate) == 28
    assert reports == separate


def test_a_graph_shared_by_pairs_or_factors_is_enumerated_once(enumerated):
    k2 = complete(2)
    assert complete_bipartite(1, 1) == k2
    reports = sweep_reports([("K2", k2), ("K1,1", complete_bipartite(1, 1))])
    assert [(r.g_name, r.h_name) for r in reports] == [
        ("K2", "K2"), ("K2", "K1,1"), ("K1,1", "K2"), ("K1,1", "K1,1")
    ]
    assert enumerated == [k2, corona_product(k2, k2).graph]
    enumerated.clear()
    verify_bounds(path(3), path(3))
    assert enumerated == [path(3), corona_product(path(3), path(3)).graph]


# Pairs on which ``upper_sum`` falls below the exact forcing number, the one
# list of them that the docs point to. The formula is left as implemented
# until the paper's theorem text settles whether it lacks a hypothesis; these
# pin the failures so none goes unseen. K2oK4's φ is also checked with HiGHS
# in test_forcing.py; K3oK4's, P3oK4's and C4oC4's come from the exact
# search, with the witness checked by projecting the matchings onto it.
UPPER_SUM_FAILURES = [
    ("K1oK4", complete(1), complete(4), 8, 6),
    ("K1oC4", complete(1), cycle(4), 6, 5),
    ("K1oK2,2", complete(1), complete_bipartite(2, 2), 6, 5),
    ("K2oC4", complete(2), cycle(4), 12, 10),
    ("C4oK2", cycle(4), complete(2), 10, 9),
    ("K3oC4", complete(3), cycle(4), 20, 17),
    ("P3oC4", path(3), cycle(4), 19, 16),
    ("K2oK4", complete(2), complete(4), 16, 12),
    ("K3oK4", complete(3), complete(4), 26, 20),
    ("P3oK4", path(3), complete(4), 25, 19),
    ("C4oC4", cycle(4), cycle(4), 26, 21),
]


@pytest.mark.parametrize(
    "name,g,h,phi,upper_sum", UPPER_SUM_FAILURES, ids=[c[0] for c in UPPER_SUM_FAILURES]
)
def test_upper_sum_counterexamples(name, g, h, phi, upper_sum):
    report = verify_bounds(g, h)
    assert (report.exact_phi, report.upper_sum) == (phi, upper_sum)
    assert report.verdicts["upper_sum"] is False
    assert report.verdicts["upper_complement"] and report.upper_complement == phi
    assert report.verdicts["lower_randomly"]
    cg = corona_product(g, h).graph
    rows = maximal_matching_masks(cg)
    if cg.m <= 12:  # the subset oracle is fast up to here; the other pairs have 16 to 36 edges
        assert brute_min_forcing(cg, rows)[0] == phi
    else:
        witness = phi_exact(cg).edges
        assert len(witness) == phi
        assert projections_distinct(rows, sum(1 << e for e in witness))
