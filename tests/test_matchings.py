from __future__ import annotations

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from matchforce import matchings
from matchforce.corona import corona_product
from matchforce.forcing import phi_exact
from matchforce.graph import Graph, complete, complete_bipartite, cycle, empty, path, star
from matchforce.matchings import (
    BudgetExceededError,
    _summarize_masks,
    enumerate_maximal_matchings,
    is_matching,
    is_maximal_matching,
    is_randomly_matchable,
    mask_to_edges,
    maximal_matching_masks,
    summarize_matchings,
)

from oracles import (
    brute_maximal_masks,
    brute_min_forcing,
    small_instances,
    vertex_branch_maximal_masks,
)


class TestPredicates:
    def test_is_matching(self):
        p4 = path(4)
        assert is_matching(p4, {0, 2})
        assert not is_matching(p4, {0, 1})  # share vertex 1
        assert is_matching(complete(3), set())

    def test_is_matching_rejects_bad_index(self):
        with pytest.raises(IndexError):
            is_matching(path(4), {5})

    def test_is_maximal_matching(self):
        p4 = path(4)
        assert is_maximal_matching(p4, {1})  # middle edge saturates both inner vertices
        assert not is_maximal_matching(p4, {0})  # edge 2 can still be added
        assert is_maximal_matching(complete(3), {1})
        assert not is_maximal_matching(p4, {0, 1})  # not even a matching

    def test_maximality_against_extension_oracle(self):
        p4 = path(4)
        for candidate in ({0}, {1}, {2}, {0, 2}):
            extendable = any(
                is_matching(p4, candidate | {e}) for e in range(3) if e not in candidate
            )
            assert is_maximal_matching(p4, candidate) == (not extendable)


class TestEnumeration:
    def test_p4_matches_subset_oracle(self):
        assert enumerate_maximal_matchings(path(4)) == [(0, 2), (1,)]

    def test_k3_yields_the_three_singletons(self):
        assert enumerate_maximal_matchings(complete(3)) == [
            (0,),
            (1,),
            (2,),
        ]

    def test_y_counts(self):
        # Two triangles joined by the spine edge 0: nine maximal matchings,
        # exactly one of which uses the spine edge (brute-forced in oracles).
        y = corona_product(complete(2), complete(2)).graph
        masks = maximal_matching_masks(y)
        assert masks == brute_maximal_masks(y)
        assert len(masks) == 9
        assert sum(1 for mask in masks if mask & 1) == 1

    def test_listing_spells_out_the_masks(self):
        y = corona_product(complete(2), complete(2)).graph
        listing = enumerate_maximal_matchings(y)
        assert listing == [mask_to_edges(mask) for mask in maximal_matching_masks(y)]
        for edges in listing:
            assert is_maximal_matching(y, edges)

    def test_deterministic_and_lexicographic(self):
        g = cycle(6)
        first = enumerate_maximal_matchings(g)
        second = enumerate_maximal_matchings(g)
        assert first == second == sorted(first)

    def test_budget_overflow_is_an_error(self):
        with pytest.raises(BudgetExceededError):
            maximal_matching_masks(complete(4), budget=2)
        assert len(maximal_matching_masks(complete(4), budget=3)) == 3

    def test_budget_boundary_on_a_relabelled_scan(self):
        # P5oK3 has 34 edges, so its scan is relabelled, and
        # Psi = 3^5 F(6) = 1,944 maximal matchings.
        g = corona_product(path(5), complete(3)).graph
        assert g.m > matchings._RELABEL_ABOVE
        with pytest.raises(BudgetExceededError):
            maximal_matching_masks(g, budget=1943)
        assert len(maximal_matching_masks(g, budget=1944)) == 1944

    def test_long_scans_need_no_recursion(self):
        # In each, one branch decides more edges than Python's default
        # recursion limit of 1,000 frames.
        disjoint = Graph(n=2000, edges=tuple((2 * i, 2 * i + 1) for i in range(1000)))
        summary = summarize_matchings(disjoint)
        assert (summary.psi, summary.nu) == (1, 1000)
        assert maximal_matching_masks(disjoint) == [(1 << 1000) - 1]
        assert tuple(is_randomly_matchable(disjoint)) == (True, True)
        assert summarize_matchings(star(1100)).psi == 1099
        assert tuple(is_randomly_matchable(star(1100))) == (False, False)
        for count in (maximal_matching_masks, summarize_matchings):
            with pytest.raises(BudgetExceededError):
                count(path(2100), budget=10)
        # A long path has few states per position, so the pass counts it.
        summary = summarize_matchings(path(2100), budget=10**1000)
        assert (summary.nu, summary.sat) == (1050, 700)
        assert summary.psi > 10**250

    def test_edgeless_graph_has_the_empty_matching(self):
        assert maximal_matching_masks(empty(3)) == [0]
        summary = summarize_matchings(empty(3))
        assert (summary.psi, summary.nu, summary.sat) == (1, 0, 0)


ORACLE_INSTANCES = small_instances(max_edges=12)
ORACLE_IDS = [name for name, _ in ORACLE_INSTANCES]


@pytest.mark.parametrize("name,graph", ORACLE_INSTANCES, ids=ORACLE_IDS)
def test_enumeration_equals_subset_oracle(name, graph):
    assert maximal_matching_masks(graph) == brute_maximal_masks(graph)


@pytest.mark.parametrize("name,graph", ORACLE_INSTANCES, ids=ORACLE_IDS)
def test_relabelled_scan_equals_subset_oracle(name, graph, monkeypatch):
    # Only larger graphs take the scan order, Cuthill-McKee on the vertices;
    # force it here.
    monkeypatch.setattr(matchings, "_RELABEL_ABOVE", 0)
    assert maximal_matching_masks(graph) == brute_maximal_masks(graph)


# Coronas past the subset oracle's reach, on both sides of the relabelling
# threshold: 13 to 18 edges scan in index order, 26 to 34 in scan order.
CORONA_FACTORS = [
    ("K2oK3", complete(2), complete(3)),
    ("C4oK2", cycle(4), complete(2)),
    ("K2oC4", complete(2), cycle(4)),
    ("K3oP3", complete(3), path(3)),
    ("P3oC4", path(3), cycle(4)),
    ("P4oK3", path(4), complete(3)),
    ("K3oC4", complete(3), cycle(4)),
    ("K3oK4", complete(3), complete(4)),
    ("P5oK3", path(5), complete(3)),
]


@pytest.mark.parametrize("name,g,h", CORONA_FACTORS, ids=[name for name, _, _ in CORONA_FACTORS])
def test_enumeration_equals_vertex_branch_oracle(name, g, h):
    graph = corona_product(g, h).graph
    rows = vertex_branch_maximal_masks(graph)
    assert maximal_matching_masks(graph) == rows
    assert summarize_matchings(graph) == _summarize_masks(rows, graph.n)


def _bandwidth(g, order):
    # The largest position gap between two edges that share an endpoint: how
    # long the search waits before an excluded edge meets its last neighbour.
    position = {e: k for k, e in enumerate(order)}
    return max(
        (
            abs(position[e] - position[f])
            for e in range(g.m)
            for f in range(e)
            if set(g.edges[e]) & set(g.edges[f])
        ),
        default=0,
    )


def test_scan_order_keeps_neighbours_close():
    # Index order spreads P_n o K3 over 6n gaps (18 to 72 here); the scan keeps
    # every pair of neighbours within 7 positions, whatever the length.
    widths = set()
    for n in range(3, 13):
        g = corona_product(path(n), complete(3)).graph
        widths.add(_bandwidth(g, matchings._scan_order(g)))
    assert len(widths) == 1 and widths.pop() <= 7
    g = corona_product(cycle(5), cycle(4)).graph
    assert 2 * _bandwidth(g, matchings._scan_order(g)) <= _bandwidth(g, range(g.m)) == 41


@pytest.mark.parametrize("name,graph", ORACLE_INSTANCES, ids=ORACLE_IDS)
def test_summary_invariants(name, graph):
    summary = summarize_matchings(graph)
    assert summary == _summarize_masks(brute_maximal_masks(graph), graph.n)
    assert summary.sat <= summary.nu
    assert summary.psi >= 1
    assert summary.has_perfect == (2 * summary.nu == graph.n)


@pytest.fixture
def passes(monkeypatch):
    # (budget, whether the states outgrew their limit) for each _merge_states
    # call; a call that raises the budget error records False.
    calls = []
    original = matchings._merge_states

    def counting(g, budget, keep):
        try:
            scan = original(g, budget, keep)
        except BudgetExceededError:
            calls.append((budget, False))
            raise
        calls.append((budget, scan is None))
        return scan

    monkeypatch.setattr(matchings, "_merge_states", counting)
    return calls


class TestCountingPass:
    """summarize_matchings counts by merged search states and lists nothing,
    unless its states outgrow the budget; then it summarizes the search."""

    @pytest.fixture
    def listings(self, monkeypatch):
        calls = []
        original = matchings.maximal_matching_masks

        def counting(g, budget=matchings.DEFAULT_BUDGET):
            calls.append(budget)
            return original(g, budget)

        monkeypatch.setattr(matchings, "maximal_matching_masks", counting)
        return calls

    def test_budget_boundary(self, listings):
        # Psi(P5oK3) = 1,944, from a pass of far fewer states.
        g = corona_product(path(5), complete(3)).graph
        message = "more than 1943 maximal matchings; raise the budget to enumerate"
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            summarize_matchings(g, budget=1943)
        assert summarize_matchings(g, budget=1944).psi == 1944
        assert listings == []

    def test_more_states_than_budget_falls_back_to_the_search(self, listings, passes):
        assert summarize_matchings(complete(4), budget=3).psi == 3
        with pytest.raises(BudgetExceededError):
            summarize_matchings(complete(4), budget=2)
        assert passes == [(3, True), (2, True)]
        # K8 has 28 edges and Psi = 105, from a pass of 226 states: past 24
        # edges the listing would run the pass again before its search.
        g = complete(8)
        want = _summarize_masks(vertex_branch_maximal_masks(g), g.n)
        assert summarize_matchings(g, budget=105) == want
        message = "more than 104 maximal matchings; raise the budget to enumerate"
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            summarize_matchings(g, budget=104)
        assert passes == [(3, True), (2, True), (105, True), (104, True)]
        assert listings == []

    def test_search_fallback_stays_small(self):
        # K30 has more than 20,000 states and maximal matchings. The search
        # stops at the 20,001st row; a second pass kept 20,000 states too and
        # peaked at 4.5 MB.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="^more than 20000 maximal"):
                summarize_matchings(complete(30), budget=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    def test_budget_must_be_positive(self):
        # The edgeless graph's pass has one state, so it never reaches the listing.
        for g in (empty(3), complete(3)):
            with pytest.raises(ValueError):
                summarize_matchings(g, budget=0)
            with pytest.raises(ValueError):
                maximal_matching_masks(g, 0)


class TestStateListing:
    """maximal_matching_masks lists graphs of more than 24 edges from the
    counting pass's states, and by the search once those outgrow the budget."""

    def test_states_past_the_budget_fall_back_to_the_search(self, passes):
        # K8 has 28 edges and Psi = 105, from a pass of 226 states.
        g = complete(8)
        assert g.m > matchings._RELABEL_ABOVE
        assert maximal_matching_masks(g, budget=105) == vertex_branch_maximal_masks(g)
        assert passes == [(105, True)]
        message = "more than 104 maximal matchings; raise the budget to enumerate"
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            maximal_matching_masks(g, budget=104)
        assert passes == [(105, True), (104, True)]

    def test_kept_states_past_half_the_budget_fall_back(self, passes):
        # K8's 226 states fit a budget of 226 but not its half, so the
        # listing takes the search, where the count would keep its pass.
        g = complete(8)
        assert maximal_matching_masks(g, budget=226) == vertex_branch_maximal_masks(g)
        assert summarize_matchings(g, budget=226).psi == 105
        assert passes == [(226, True), (226, False)]

    def test_search_fallback_stays_small(self):
        # K30 has more than 20,000 states and maximal matchings. Keeping up
        # to 20,000 states before the search peaked at 4.5 MB; the search
        # itself stops at the 20,001st row.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="^more than 20000 maximal"):
                maximal_matching_masks(complete(30), budget=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    def test_count_over_the_budget_lists_nothing(self, passes):
        # P5oK3 has Psi = 1,944 from far fewer states, and P20oK3 has
        # 38,166,342,053,346 from 294: the count refuses both before a row.
        p5 = corona_product(path(5), complete(3)).graph
        with mock.patch.object(matchings, "_expand_states", side_effect=AssertionError):
            with pytest.raises(BudgetExceededError, match="^more than 1943 maximal"):
                maximal_matching_masks(p5, budget=1943)
            with pytest.raises(BudgetExceededError, match="^more than 5000000 maximal"):
                maximal_matching_masks(corona_product(path(20), complete(3)).graph)
        assert passes == [(1943, False), (matchings.DEFAULT_BUDGET, False)]

    def test_each_list_is_dropped_after_its_last_reader(self):
        # C5oC4 has 45 edges and 103,328 maximal matchings, about 4 MB of
        # rows. Keeping every state's list to the end peaked at 14 MB.
        g = corona_product(cycle(5), cycle(4)).graph
        tracemalloc.start()
        try:
            rows = maximal_matching_masks(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 103_328
        assert peak <= 8_000_000

    def test_set_up_holds_no_key_per_edge(self):
        # 5,000 disjoint edges have one maximal matching. The set-up's
        # neighbourhood and dead masks are O(m^2) bits; a list of one m-bit
        # key per edge on top of them peaked at 11.4 MB, and a list of the
        # 2m-bit keys at 14.7 MB. Building each key at its position peaks
        # at 9.5 MB.
        g = Graph(10_000, tuple((2 * i, 2 * i + 1) for i in range(5_000)))
        tracemalloc.start()
        try:
            rows = maximal_matching_masks(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == [(1 << 5_000) - 1]
        assert peak <= 10_500_000


def _dense_graphs(seed, count):
    # 8 to 10 vertices and 25 to 34 edges: past the search's 24, and most
    # with more merged states than maximal matchings.
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(8, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(25, min(34, len(pairs))))
        out.append(Graph(n=n, edges=tuple(sorted(edges))))
    return out


DENSE_GRAPHS = _dense_graphs(seed=7, count=30)


@pytest.mark.parametrize("g", DENSE_GRAPHS, ids=[f"dense{i}" for i in range(len(DENSE_GRAPHS))])
def test_dense_graphs_at_the_budget_boundary(g, passes):
    rows = vertex_branch_maximal_masks(g)
    psi = len(rows)
    for count, want in ((maximal_matching_masks, rows), (summarize_matchings, _summarize_masks(rows, g.n))):
        passes.clear()
        assert count(g, psi) == want
        assert len(passes) <= 1
        passes.clear()
        with pytest.raises(BudgetExceededError):
            count(g, psi - 1)
        assert len(passes) <= 1


def test_most_dense_graphs_take_the_search_at_their_count(passes):
    # The route the boundary test must keep covering: states past Psi.
    outgrown = 0
    for g in DENSE_GRAPHS:
        psi = summarize_matchings(g).psi
        passes.clear()
        summarize_matchings(g, budget=psi)
        outgrown += passes == [(psi, True)]
    assert 2 * outgrown > len(DENSE_GRAPHS)


class TestCounts:
    def test_counts_on_named_graphs(self):
        assert summarize_matchings(complete(4)).psi == 3
        assert summarize_matchings(path(4)).nu == 2
        assert summarize_matchings(complete(3)).nu == 1
        assert summarize_matchings(path(4)).sat == 1
        assert summarize_matchings(complete(4)).sat == 2
        assert summarize_matchings(star(4)).sat == 1

    def test_perfect_matching_existence(self):
        assert summarize_matchings(complete(2)).has_perfect
        assert not summarize_matchings(complete(3)).has_perfect
        assert summarize_matchings(cycle(4)).has_perfect

    def test_y_matching_number_matches_factor_formula(self):
        # nu(K2) + 2 * nu(K2) = 3, cross-checked by enumeration
        y = corona_product(complete(2), complete(2)).graph
        assert summarize_matchings(y).nu == 3

    def test_p2_corona_k3_count(self):
        g = corona_product(path(2), complete(3)).graph
        assert summarize_matchings(g).psi == 18


class TestRandomlyMatchable:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (complete(4), (True, True)),
            (complete_bipartite(3, 3), (True, True)),
            (path(4), (False, False)),
            (complete(2), (True, True)),
            (complete(3), (False, False)),
            (star(4), (False, False)),
        ],
    )
    def test_verdicts(self, graph, expected):
        assert tuple(is_randomly_matchable(graph)) == expected

    def test_disconnected_graphs(self):
        two_k2 = Graph(n=4, edges=((0, 1), (2, 3)))
        assert tuple(is_randomly_matchable(two_k2)) == (True, True)
        k2_plus_isolated = Graph(n=3, edges=((0, 1),))
        assert tuple(is_randomly_matchable(k2_plus_isolated)) == (False, False)
        k4_edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        k4_plus_k2 = Graph(n=6, edges=k4_edges + ((4, 5),))
        assert tuple(is_randomly_matchable(k4_plus_k2)) == (True, True)
        k4_plus_k3 = Graph(n=7, edges=k4_edges + ((4, 5), (5, 6), (6, 4)))
        assert tuple(is_randomly_matchable(k4_plus_k3)) == (False, False)

    def test_definitional_equals_structural_on_connected_graphs(self):
        # Sumner: the connected randomly matchable graphs are exactly the even
        # complete and balanced complete bipartite ones; check everything
        # connected we generate with n <= 8.
        graphs = (
            [complete(n) for n in range(2, 9)]
            + [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5)]
            + [path(n) for n in range(2, 9)]
            + [cycle(n) for n in range(3, 9)]
            + [star(n) for n in range(2, 9)]
        )
        for g in graphs:
            verdict = is_randomly_matchable(g)
            assert verdict.definitional == verdict.structural

    def test_saturation_equals_nu_on_randomly_matchable(self):
        for g in (complete(4), complete(6), complete_bipartite(2, 2)):
            summary = summarize_matchings(g)
            assert summary.sat == summary.nu


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # At most 12 edges keeps the 2^m subset oracle fast.
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    return Graph(n=n, edges=tuple(chosen))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_enumerated_matchings_satisfy_both_predicates(g):
    masks = maximal_matching_masks(g)
    assert len(set(masks)) == len(masks)
    for edges in enumerate_maximal_matchings(g):
        assert is_matching(g, edges)
        assert is_maximal_matching(g, edges)


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_enumeration_and_search_equal_the_oracles(g):
    rows = maximal_matching_masks(g)
    assert rows == brute_maximal_masks(g)
    if g.m <= 8:
        result = phi_exact(g)
        assert result.optimal
        assert (result.size, result.edges) == brute_min_forcing(g, rows)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_counting_pass_equals_the_subset_oracle(g):
    assert summarize_matchings(g) == _summarize_masks(brute_maximal_masks(g), g.n)


@given(small_graphs(), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=80, deadline=None)
def test_edge_order_changes_only_the_labels(g, rng, relabel):
    # Shuffling the edge list renames the edges and nothing else, whichever
    # scan the enumerator picks.
    perm = list(range(g.m))
    rng.shuffle(perm)
    shuffled = Graph(n=g.n, edges=tuple(g.edges[e] for e in perm))
    assert summarize_matchings(g) == summarize_matchings(shuffled)
    with mock.patch.object(matchings, "_RELABEL_ABOVE", 0 if relabel else matchings._RELABEL_ABOVE):
        rows = maximal_matching_masks(g)
        moved = maximal_matching_masks(shuffled)
        listings = enumerate_maximal_matchings(g), enumerate_maximal_matchings(shuffled)
    back = {sum(1 << perm[i] for i in mask_to_edges(mask)) for mask in moved}
    assert back == set(rows)
    for listing in listings:
        assert all(a < b for a, b in zip(listing, listing[1:]))


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_neighbourhood_masks_in_any_order(g, rng):
    order = list(range(g.m))
    rng.shuffle(order)
    edges = [g.edges[e] for e in order]
    near = matchings._scan_setup(edges)[0]
    for k, (u, v) in enumerate(edges):
        assert near[k] == sum(1 << j for j, edge in enumerate(edges) if {u, v} & set(edge))
