from __future__ import annotations

import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matchforce import cli
from matchforce.graph import (
    Graph,
    GraphError,
    GraphFamily,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    empty,
    family_label,
    family_order,
    generate,
    parse_edge_list,
    parse_family_name,
    path,
    read_ascii_int,
    recognize_structure,
    serialize_edge_list,
    star,
)

from oracles import brute_structure, degrees

INVALID_FAMILIES = [
    GraphFamily("cycle", 2),
    GraphFamily("path", 0),
    GraphFamily("complete_bipartite", 0, 2),
    GraphFamily("complete_bipartite", 2),
    GraphFamily("path", 3, 4),
    GraphFamily("nonsense", 3),
]


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(n=2, edges=((1, 1),))

    def test_rejects_duplicate_edge_regardless_of_orientation(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(n=3, edges=((0, 1), (1, 0)))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(n=2, edges=((0, 2),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError, match="nonnegative"):
            Graph(n=-1, edges=())


class TestParsing:
    def test_single_edge_with_header(self):
        g = parse_edge_list("n 2\n0 1\n")
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_triangle_without_header_keeps_edge_order(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        assert (g.n, g.edges) == (3, ((0, 1), (1, 2), (2, 0)))

    def test_self_loop_reports_line_number(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list("0 0\n")

    def test_comments_and_blank_lines_are_skipped(self):
        g = parse_edge_list("# a triangle\n\nn 3\n0 1  # first\n1 2\n2 0\n")
        assert g.m == 3

    def test_header_preserves_isolated_vertices(self):
        g = parse_edge_list("n 5\n0 1\n")
        assert g.n == 5

    def test_duplicate_edge_reports_line_number(self):
        with pytest.raises(GraphError, match="line 3"):
            parse_edge_list("0 1\n1 2\n1 0\n")

    def test_vertex_beyond_declared_count(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("n 2\n0 2\n")

    def test_malformed_line(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list("0 1 2\n")
        with pytest.raises(GraphError, match="non-integer"):
            parse_edge_list("a b\n")

    def test_empty_text_gives_empty_graph(self):
        g = parse_edge_list("")
        assert (g.n, g.m) == (0, 0)


@pytest.mark.parametrize(
    "token,want",
    [
        ("0", 0),
        ("007", 7),
        ("", None),
        ("+1", None),
        ("-1", None),
        ("1_0", None),
        ("\u0662", None),
        ("\uff11", None),
        (" 1", None),
    ],
)
def test_read_ascii_int(token, want):
    assert read_ascii_int(token) == want


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="no integer digit limit"
)
def test_read_ascii_int_stops_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert read_ascii_int("7" * limit) == int("7" * limit)
    assert read_ascii_int("7" * (limit + 1)) is None


def test_no_digit_limit_getter_means_no_limit(monkeypatch, capsys):
    # Python 3.10 before 3.10.7 has neither the getter nor a limit in int().
    # Deleting the getter does not lift the limit, so the numerals stay short.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert read_ascii_int("12") == 12
    assert cli.main(["gen", "--family", "path", "--n", "3"]) == 0
    assert capsys.readouterr().out == "n 3\n0 1\n1 2\n"


class TestFamilies:
    def test_path_edges_in_walk_order(self):
        assert path(4).edges == ((0, 1), (1, 2), (2, 3))

    def test_complete_graph_size(self):
        assert complete(4).m == 6

    def test_complete_bipartite_parts_and_order(self):
        g = complete_bipartite(2, 2)
        assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_cycle_closes_the_walk(self):
        assert cycle(3).edges == ((0, 1), (1, 2), (2, 0))

    def test_star_and_empty(self):
        assert star(4).edges == ((0, 1), (0, 2), (0, 3))
        assert empty(3).m == 0

    @pytest.mark.parametrize("family", INVALID_FAMILIES)
    def test_invalid_parameters(self, family):
        with pytest.raises(GraphError):
            generate(family)

    @pytest.mark.parametrize("family", INVALID_FAMILIES)
    def test_family_order_checks_as_generate_does(self, family):
        with pytest.raises(GraphError) as ordered:
            family_order(family)
        with pytest.raises(GraphError) as generated:
            generate(family)
        assert str(ordered.value) == str(generated.value)

    def test_parse_family_name_round_trip(self):
        for name in ["K1", "K4", "P3", "C5", "S4", "E2", "K2,3"]:
            assert family_label(parse_family_name(name)) == name
        with pytest.raises(GraphError):
            parse_family_name("Q3")
        with pytest.raises(GraphError):
            parse_family_name("K")


ALL_SMALL_FAMILIES = (
    [GraphFamily("path", n) for n in range(1, 9)]
    + [GraphFamily("cycle", n) for n in range(3, 9)]
    + [GraphFamily("complete", n) for n in range(1, 9)]
    + [GraphFamily("star", n) for n in range(1, 9)]
    + [GraphFamily("empty", n) for n in range(1, 9)]
    + [GraphFamily("complete_bipartite", a, b) for a in range(1, 5) for b in range(1, 5)]
)


@pytest.mark.parametrize("family", ALL_SMALL_FAMILIES, ids=family_label)
def test_family_order_is_the_vertex_count(family):
    assert family_order(family) == generate(family).n


@pytest.mark.parametrize("family", ALL_SMALL_FAMILIES, ids=family_label)
def test_serialize_parse_round_trip(family):
    g = generate(family)
    again = parse_edge_list(serialize_edge_list(g))
    assert (again.n, again.edges) == (g.n, g.edges)


def _closed_form_degrees(family: GraphFamily) -> list[int]:
    """Degree sequence of a family member in vertex order, from its definition."""
    kind, a, b = family.kind, family.a, family.b
    if kind == "complete_bipartite":
        return [b] * a + [a] * b
    if a == 1 or kind == "empty":
        return [0] * a
    if kind == "path":
        return [1] + [2] * (a - 2) + [1]
    if kind == "cycle":
        return [2] * a
    if kind == "complete":
        return [a - 1] * a
    return [a - 1] + [1] * (a - 1)  # star


@pytest.mark.parametrize("family", ALL_SMALL_FAMILIES, ids=family_label)
def test_degree_sum_is_twice_edge_count(family):
    g = generate(family)
    assert degrees(g) == _closed_form_degrees(family)
    assert sum(degrees(g)) == 2 * g.m


class TestRecognizeStructure:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (complete(4), ("complete_even",)),
            (complete_bipartite(3, 3), ("balanced_complete_bipartite",)),
            (path(4), ("other",)),
            (complete(2), ("complete_even",)),  # K2 = K_{1,1}: tie-break
            (complete(1), ("other",)),
            (complete(3), ("other",)),
            (complete_bipartite(2, 3), ("other",)),
            (cycle(4), ("balanced_complete_bipartite",)),  # C4 = K_{2,2}
            # k vertices and k^2/4 edges, but not bipartite: the triangular
            # prism and the paw (a triangle with a pendant edge).
            (
                Graph(
                    n=6,
                    edges=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)),
                ),
                ("other",),
            ),
            (Graph(n=4, edges=((0, 1), (1, 2), (0, 2), (2, 3))), ("other",)),
            (cycle(6), ("other",)),
            (complete_bipartite(2, 4), ("other",)),
        ],
    )
    def test_single_component(self, graph, expected):
        assert recognize_structure(graph) == expected

    def test_even_complete_families(self):
        for k in (1, 2, 3):
            assert recognize_structure(complete(2 * k)) == ("complete_even",)
        for k in (2, 3):
            assert recognize_structure(complete_bipartite(k, k)) == (
                "balanced_complete_bipartite",
            )

    def test_disconnected_components_tagged_separately(self):
        # K4 on {0..3} plus K2 on {4,5} plus an isolated vertex
        edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4)) + ((4, 5),)
        g = Graph(n=7, edges=edges)
        assert recognize_structure(g) == ("complete_even", "complete_even", "other")

    def test_connected_components_order(self):
        g = Graph(n=4, edges=((2, 3),))
        assert connected_components(g) == ((0,), (1,), (2, 3))


@st.composite
def unions_of_blocks(draw):
    """Graphs on at most 7 vertices built as disjoint blocks of vertices.

    Each block is complete, balanced complete bipartite, complete bipartite
    at a random cut (so possibly unbalanced or edgeless) or random. Up to two
    vertex pairs are toggled afterwards, and the edges come in random order
    and orientation. Blocks of one vertex are isolated vertices.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    order = draw(st.permutations(range(n)))
    keys: set[tuple[int, int]] = set()
    start = 0
    while start < n:
        size = draw(st.just(n - start) | st.integers(min_value=1, max_value=n - start))
        block = order[start : start + size]
        start += size
        kind = draw(st.sampled_from(["complete", "balanced", "bipartite", "random"]))
        if kind == "complete":
            pairs = list(combinations(block, 2))
        elif kind == "balanced":
            pairs = [(a, b) for a in block[::2] for b in block[1::2]]
        elif kind == "bipartite":
            cut = draw(st.integers(min_value=0, max_value=size))
            pairs = [(a, b) for a in block[:cut] for b in block[cut:]]
        else:
            pairs = [p for p in combinations(block, 2) if draw(st.booleans())]
        keys.update((min(p), max(p)) for p in pairs)
    vertex = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        u, v = draw(vertex), draw(vertex)
        if u != v:
            keys ^= {(min(u, v), max(u, v))}
    edges = draw(st.permutations(sorted(keys)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Graph(n=n, edges=tuple((v, u) if f else (u, v) for (u, v), f in zip(edges, flips)))


@settings(max_examples=300)
@given(unions_of_blocks())
def test_structure_equals_the_oracle(g):
    comps, tags = brute_structure(g)
    assert connected_components(g) == comps
    assert recognize_structure(g) == tags


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=12,
            ),
        )
    )
)
def test_random_graphs_round_trip_and_degree_sum(data):
    n, raw = data
    edges = []
    seen = set()
    for u, v in raw:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v))
    g = Graph(n=n, edges=tuple(edges))
    assert degrees(g) == [sum(v in key for key in seen) for v in range(n)]
    assert sum(degrees(g)) == 2 * g.m
    again = parse_edge_list(serialize_edge_list(g))
    assert (again.n, again.edges) == (g.n, g.edges)
