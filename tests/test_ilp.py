from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from matchforce import cli, ilp
from matchforce.corona import corona_product
from matchforce.forcing import is_global_forcing_set, phi_exact
from matchforce.graph import Graph, complete, cycle, path, serialize_edge_list
from matchforce.ilp import (
    SolutionFormatError,
    build_model,
    export_lp,
    import_solution,
)
from matchforce.matchings import mask_renderer, maximal_matching_masks

from oracles import brute_ilp_constraints, reference_lp, small_instances
from test_matchings import small_graphs

K3_LP = """Minimize
 obj: x1 + x2 + x3
Subject To
 c1_2: x1 + x2 >= 1
 c1_3: x1 + x3 >= 1
 c2_3: x2 + x3 >= 1
Binary
 x1
 x2
 x3
End
"""

K2_LP = """Minimize
 obj: x1
Subject To
Binary
 x1
End
"""


class TestBuildModel:
    def test_k3(self):
        model = build_model(complete(3))
        assert model.num_edges == 3
        assert [c.columns for c in model.constraints] == [(0, 1), (0, 2), (1, 2)]
        assert [c.label for c in model.constraints] == [(0, 1), (0, 2), (1, 2)]

    def test_k2_has_no_constraints(self):
        model = build_model(complete(2))
        assert (model.num_edges, model.constraints) == (1, ())

    def test_p4_single_constraint_over_all_columns(self):
        model = build_model(path(4))
        assert len(model.constraints) == 1
        assert model.constraints[0].columns == (0, 1, 2)

    def test_every_constraint_has_a_term(self):
        for _, g in small_instances(max_edges=8):
            for constraint in build_model(g).constraints:
                assert constraint.columns

    def test_dedup_merges_identical_supports(self):
        two_triangles = Graph(
            n=6, edges=((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))
        )
        full = build_model(two_triangles, dedup=False)
        deduped = build_model(two_triangles, dedup=True)
        # 9 maximal matchings -> 36 pairs, but pairs agreeing on one triangle
        # share supports: 3 + 3 + 9 distinct supports survive
        assert len(full.constraints) == 36
        assert len(deduped.constraints) == 15
        assert sum(len(c.pairs) for c in deduped.constraints) == 36
        supports = [c.columns for c in deduped.constraints]
        assert len(set(supports)) == len(supports)
        for constraint in deduped.constraints:
            assert constraint.label == min(constraint.pairs) == next(iter(constraint.pairs))

    def test_models_compare_by_their_fields(self):
        assert build_model(complete(3)) == build_model(complete(3))
        assert build_model(complete(3), dedup=False) == build_model(complete(3), dedup=False)
        assert build_model(complete(3)) != build_model(complete(3), dedup=False)
        assert build_model(complete(3)) != build_model(path(4))
        with pytest.raises(TypeError):
            hash(build_model(complete(3)))

    @pytest.mark.parametrize("dedup", [True, False])
    def test_feasibility_matches_forcing_predicate(self, dedup):
        for _, g in small_instances(max_edges=8):
            model = build_model(g, dedup=dedup)
            for mask in range(1 << g.m):
                edges = [j for j in range(g.m) if mask >> j & 1]
                assert model.satisfied_by(mask) == is_global_forcing_set(g, edges)


ORACLE_GRAPHS = small_instances(max_edges=8) + [
    ("C5oK2", corona_product(cycle(5), complete(2)).graph),
    ("C4oP3", corona_product(cycle(4), path(3)).graph),
]


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "nodedup"])
@pytest.mark.parametrize("name,graph", ORACLE_GRAPHS, ids=[n for n, _ in ORACLE_GRAPHS])
def test_model_matches_pairwise_grouping(name, graph, dedup):
    rows = maximal_matching_masks(graph)
    model = build_model(graph, dedup=dedup)
    want = brute_ilp_constraints(rows, dedup)
    assert len(model.constraints) == len(want)
    for c, (label, columns, pairs) in zip(model.constraints, want):
        assert (c.label, c.columns, tuple(c.pairs), len(c.pairs)) == (label, columns, pairs, len(pairs))
        assert min(c.pairs) == c.label
    psi = len(rows)
    assert sum(len(c.pairs) for c in model.constraints) == psi * (psi - 1) // 2
    assert build_model(graph, dedup=dedup) == model


@pytest.mark.parametrize("name,graph", ORACLE_GRAPHS, ids=[n for n, _ in ORACLE_GRAPHS])
def test_both_forms_share_one_support_table(name, graph):
    rows = maximal_matching_masks(graph)
    full = build_model(graph, dedup=False)
    model = build_model(graph)
    assert full.supports == model.supports
    groups = brute_ilp_constraints(rows, True)
    assert full.supports == [rows[i] ^ rows[j] for (i, j), _, _ in groups]
    assert [len(c.pairs) for c in model.constraints] == [len(pairs) for _, _, pairs in groups]
    assert full.labels is None


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.booleans())
def test_pass_keeps_the_pairwise_first_seen_order(g, dedup):
    rows = maximal_matching_masks(g)
    model = build_model(g, dedup=dedup)
    groups = brute_ilp_constraints(rows, True)
    assert model.supports == [rows[i] ^ rows[j] for (i, j), _, _ in groups]
    assert model.labels == ([label for label, _, _ in groups] if dedup else None)
    psi = len(rows)
    sizes = [len(pairs) for _, _, pairs in groups] if dedup else [1] * (psi * (psi - 1) // 2)
    assert [len(c.pairs) for c in model.constraints] == sizes
    assert export_lp(model) == reference_lp(g.m, rows, dedup)


# K1 has no edge; P3oP3 has 17, so its last byte holds one variable; the 70
# disjoint edges are in every maximal matching, so all supports of the last
# graph sit on the triangle's edges x71..x73, past the first eight bytes.
MATCHING_AND_TRIANGLE = tuple((2 * k, 2 * k + 1) for k in range(70)) + ((140, 141), (141, 142), (142, 140))
EXPORT_GRAPHS = ORACLE_GRAPHS + [
    ("K1", complete(1)),
    ("P3oP3", corona_product(path(3), path(3)).graph),
    ("70K2+K3", Graph(n=143, edges=MATCHING_AND_TRIANGLE)),
]


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "nodedup"])
@pytest.mark.parametrize("name,graph", EXPORT_GRAPHS, ids=[n for n, _ in EXPORT_GRAPHS])
def test_export_matches_the_reference_writer(name, graph, dedup):
    rows = maximal_matching_masks(graph)
    text = export_lp(build_model(graph, dedup=dedup))
    assert text == reference_lp(graph.m, rows, dedup)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 200).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(0, (1 << m) - 1), max_size=8))
    )
)
# Up to 64 names the masks are packed 8 bytes a mask, above it joined.
@example((0, [0, 0]))
@example((64, [0, (1 << 64) - 1, 1 << 63 | 1, 1 << 7 | 1 << 8]))
@example((65, [0, (1 << 65) - 1, 1 << 64, 1 << 63 | 1]))
def test_support_renderer_joins_the_names_of_set_bits(case):
    m, masks = case
    names = [f"x{k}" for k in range(1, m + 1)]
    for sep in (" + ", ", "):
        render = mask_renderer(names, sep)
        want = [sep.join(names[e] for e in range(m) if mask >> e & 1) for mask in masks]
        assert list(render(masks)) == want


@pytest.mark.parametrize("extra", [(), ("--no-dedup",)], ids=["dedup", "nodedup"])
def test_export_lp_builds_no_constraint_objects(extra, monkeypatch, capsys, tmp_path):
    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError("export-lp built an IlpConstraint")

    def forbidden(model):
        raise AssertionError("export-lp read IlpModel.constraints")

    monkeypatch.setattr(ilp, "IlpConstraint", Forbidden)
    monkeypatch.setattr(ilp.IlpModel, "constraints", property(forbidden))
    source = tmp_path / "C4oK2.txt"
    source.write_text(serialize_edge_list(corona_product(cycle(4), complete(2)).graph))
    assert cli.main(["export-lp", *extra, "--in", str(source)]) == 0
    assert capsys.readouterr().out.startswith("Minimize\n")


def test_no_dedup_export_renders_each_support_once(monkeypatch):
    rendered = 0
    make_renderer = ilp.mask_renderer

    def counting_renderer(names, sep):
        render = make_renderer(names, sep)

        def counted(supports):
            nonlocal rendered
            supports = list(supports)
            rendered += len(supports)
            return render(supports)

        return counted

    monkeypatch.setattr(ilp, "mask_renderer", counting_renderer)
    g = corona_product(cycle(4), complete(2)).graph
    text = export_lp(build_model(g, dedup=False))
    psi = len(maximal_matching_masks(g))
    assert text.count(">= 1") == psi * (psi - 1) // 2
    assert rendered == len(build_model(g).supports)


# C4oK2 has 90 maximal matchings: 4,005 row pairs behind 1,064 distinct supports.
@pytest.mark.parametrize("extra,constraints", [((), 1064), (("--no-dedup",), 4005)], ids=["dedup", "nodedup"])
def test_budget_bounds_the_constraints_written(extra, constraints, capsys, tmp_path):
    source = tmp_path / "C4oK2.txt"
    source.write_text(serialize_edge_list(corona_product(cycle(4), complete(2)).graph))
    over = constraints - 1
    assert cli.main(["export-lp", *extra, "--in", str(source), "--budget", str(over)]) == 1
    assert capsys.readouterr() == ("", f"error: more than {over} constraints; raise the budget to export\n")
    assert cli.main(["export-lp", *extra, "--in", str(source), "--budget", str(constraints)]) == 0
    assert capsys.readouterr().out.count(">= 1") == constraints


class TestExport:
    def test_k3_golden(self):
        assert export_lp(build_model(complete(3))) == K3_LP

    def test_k2_golden_empty_subject_to(self):
        assert export_lp(build_model(complete(2))) == K2_LP

    def test_y_objective_has_seven_terms(self):
        from matchforce.corona import corona_product

        y = corona_product(complete(2), complete(2)).graph
        text = export_lp(build_model(y))
        obj = next(line for line in text.splitlines() if line.startswith(" obj:"))
        assert obj.count("x") == 7


class TestImport:
    def test_k3_reference_solution(self):
        edges, objective = import_solution("x1 1\nx2 1\nx3 0\n", complete(3))
        assert (edges, objective) == ((0, 1), 2)
        assert is_global_forcing_set(complete(3), edges)

    def test_empty_text_defaults_to_zero(self):
        assert import_solution("", complete(2)) == ((), 0)

    def test_tolerance_rounds_near_integers(self):
        edges, objective = import_solution("x1 0.9999999\n", complete(3))
        assert (edges, objective) == ((0,), 1)

    def test_fractional_value_rejected(self):
        with pytest.raises(SolutionFormatError, match="not binary"):
            import_solution("x1 0.5\n", complete(3))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(SolutionFormatError, match="not binary"):
            import_solution(f"x1 {value}\n", complete(3))

    def test_non_binary_integer_rejected(self):
        with pytest.raises(SolutionFormatError, match="not binary"):
            import_solution("x1 2\n", complete(3))

    def test_unknown_variable_rejected(self):
        with pytest.raises(SolutionFormatError, match="out of range"):
            import_solution("x9 1\n", complete(3))
        for name in ("y1", "x01", "x007"):
            with pytest.raises(SolutionFormatError, match="unknown variable"):
                import_solution(f"{name} 1\n", complete(3))
        with pytest.raises(SolutionFormatError, match="out of range"):
            import_solution("x0 1\n", complete(3))

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(SolutionFormatError, match="duplicate"):
            import_solution("x1 1\nx1 0\n", complete(3))

    def test_malformed_line_rejected(self):
        with pytest.raises(SolutionFormatError, match="expected"):
            import_solution("x1\n", complete(3))


def _exhaustive_optimum(model) -> int:
    best = model.num_edges
    for mask in range(1 << model.num_edges):
        if mask.bit_count() < best and model.satisfied_by(mask):
            best = mask.bit_count()
    return best


SMALL = small_instances(max_edges=8)


@pytest.mark.parametrize("name,graph", SMALL, ids=[n for n, _ in SMALL])
def test_model_optimum_equals_exact_forcing_number(name, graph):
    model = build_model(graph)
    assert _exhaustive_optimum(model) == phi_exact(graph).size


@pytest.mark.parametrize("name,graph", SMALL, ids=[n for n, _ in SMALL])
def test_dedup_preserves_the_feasible_set(name, graph):
    full = build_model(graph, dedup=False)
    deduped = build_model(graph, dedup=True)
    for mask in range(1 << graph.m):
        assert full.satisfied_by(mask) == deduped.satisfied_by(mask)


# SHA-256 of the export-lp stdout, copied from bench/goldens.json (keys
# export-lp-C5oK2, export-lp-P6oK2 and export-lp-nodedup-C5oK2).
LP_DIGESTS = [
    ("C5oK2", (), "762983ead6654424dfe0126c925405d87701faf4bb40da74ff70763ee3756348"),
    ("P6oK2", (), "938777b9540bceaccb1cfbf51f4b4f420f1c3fbdece0899829d821086814b4ac"),
    ("C5oK2", ("--no-dedup",), "62851a8e8fe1c342aa13bda023970e58dee94cd8abbc4d477021944fb09a36f0"),
]
LP_INPUTS = {
    "C5oK2": corona_product(cycle(5), complete(2)).graph,
    "P6oK2": corona_product(path(6), complete(2)).graph,
}


@pytest.mark.parametrize("name,extra,digest", LP_DIGESTS, ids=["C5oK2", "P6oK2", "nodedup-C5oK2"])
def test_export_lp_bytes_match_the_goldens(name, extra, digest, capsys, tmp_path):
    source = tmp_path / f"{name}.txt"
    source.write_text(serialize_edge_list(LP_INPUTS[name]))
    assert cli.main(["export-lp", *extra, "--in", str(source)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
