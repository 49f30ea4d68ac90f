from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import matchforce
from matchforce import matchings
from matchforce.bounds import GRADED_CHECKS, verify_bounds
from matchforce.cli import build_parser, main
from matchforce.corona import corona_product
from matchforce.graph import (
    Graph,
    complete,
    complete_bipartite,
    empty,
    parse_edge_list,
    path,
    serialize_edge_list,
    star,
)


@pytest.fixture
def k3_file(tmp_path):
    target = tmp_path / "K3.el"
    target.write_text(serialize_edge_list(complete(3)))
    return str(target)


@pytest.fixture
def k2_file(tmp_path):
    target = tmp_path / "K2.el"
    target.write_text(serialize_edge_list(complete(2)))
    return str(target)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_path(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path", "--n", "4")
        assert code == 0
        assert out == "n 4\n0 1\n1 2\n2 3\n"

    def test_complete_bipartite(self, capsys):
        out = serialize_edge_list(complete_bipartite(2, 3))
        assert run(capsys, "gen", "--family", "complete_bipartite", "--a", "2", "--b", "3") == (0, out, "")

    def test_single_parameter_family_needs_n(self, capsys):
        want = (1, "", "error: family path requires --n\n")
        assert run(capsys, "gen", "--family", "path") == want

    def test_bipartite_needs_both_parts(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "complete_bipartite", "--a", "2")
        assert code == 1
        assert "error" in err

    def test_invalid_parameter_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "cycle", "--n", "2")
        assert code == 1
        assert "error" in err

    def test_unknown_family_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "pentagram", "--n", "5")
        assert code == 2


class TestCounts:
    def test_psi_nu_sat(self, capsys, k3_file):
        assert run(capsys, "psi", "--in", k3_file)[:2] == (0, "3\n")
        assert run(capsys, "nu", "--in", k3_file)[:2] == (0, "1\n")
        assert run(capsys, "sat", "--in", k3_file)[:2] == (0, "1\n")

    def test_json_report_lists_matchings(self, capsys, k3_file):
        code, out, _ = run(capsys, "psi", "--in", k3_file, "--json")
        assert code == 0
        assert json.loads(out) == {"psi": 3, "matchings": [[0], [1], [2]]}

    def test_budget_exceeded_exit_code(self, capsys, k3_file):
        assert run(capsys, "psi", "--in", k3_file, "--budget", "1") == (
            1,
            "",
            "error: more than 1 maximal matchings; raise the budget to enumerate\n",
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "psi", "--in", str(tmp_path / "nope.el"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 16, 17, 25, 30, 31, 41, 45, 46])
    def test_json_bytes_equal_json_dumps(self, capsys, tmp_path, m):
        # Edge counts on both sides of the byte boundaries of a row mask;
        # the 41 edges are P6oK3, with 9,477 rows. Past 24 edges the rows
        # come from the state listing, whose m-bit rows and 2m-bit sort keys
        # sit on both sides of CPython's 30-bit digit boundaries at 25, 30,
        # 31, 45 and 46 edges: there, m - 3 disjoint edges and then a
        # triangle give 3 rows.
        if m == 41:
            g = corona_product(path(6), complete(3)).graph
        elif m > 24:
            k = m - 3
            triangle = tuple((2 * k + u, 2 * k + v) for u, v in complete(3).edges)
            g = Graph(2 * k + 3, tuple((2 * i, 2 * i + 1) for i in range(k)) + triangle)
        else:
            g = empty(3) if m == 0 else path(m + 1)
        assert g.m == m
        target = tmp_path / "g.el"
        target.write_text(serialize_edge_list(g))
        listing = [list(edges) for edges in matchings.enumerate_maximal_matchings(g)]
        summary = matchings.summarize_matchings(g)
        for stat in ("psi", "nu", "sat"):
            want = json.dumps({stat: getattr(summary, stat), "matchings": listing}) + "\n"
            assert run(capsys, stat, "--in", str(target), "--json") == (0, want, "")

    def test_psi_of_a_large_star(self, capsys, tmp_path):
        # 1,099 edges at one vertex: one branch decides more edges than
        # Python's default recursion limit of 1,000 frames.
        target = tmp_path / "S1100.el"
        target.write_text(serialize_edge_list(star(1100)))
        assert run(capsys, "psi", "--in", str(target)) == (0, "1099\n", "")


class TestPhi:
    def test_plain_value(self, capsys, k3_file):
        assert run(capsys, "phi", "--in", k3_file, "--method", "exact")[:2] == (0, "2\n")

    def test_json_schema(self, capsys, k3_file):
        code, out, _ = run(capsys, "phi", "--in", k3_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "phi": 2,
            "set": [0, 1],
            "optimal": True,
            "lower": 2,
            "greedy": 2,
            "nodes": payload["nodes"],
        }

    def test_greedy_method(self, capsys, k3_file):
        code, out, _ = run(capsys, "phi", "--in", k3_file, "--method", "greedy", "--json")
        assert code == 0
        assert json.loads(out)["optimal"] is False


class TestVerifyForcing:
    def test_negative_answer_is_not_an_error(self, capsys, k3_file):
        assert run(capsys, "verify-forcing", "--in", k3_file, "--edges", "0")[:2] == (
            0,
            "false\n",
        )

    def test_positive_answer(self, capsys, k3_file):
        assert run(capsys, "verify-forcing", "--in", k3_file, "--edges", "0,1")[:2] == (
            0,
            "true\n",
        )

    def test_empty_set(self, capsys, k2_file):
        assert run(capsys, "verify-forcing", "--in", k2_file)[:2] == (0, "true\n")

    def test_edge_index_out_of_range_is_a_domain_error(self, capsys, tmp_path):
        k1 = tmp_path / "K1.el"
        k1.write_text(serialize_edge_list(complete(1)))
        code, out, err = run(capsys, "verify-forcing", "--in", str(k1), "--edges", "0,1")
        assert (code, out) == (1, "")
        assert err == "error: edge index 1 out of range for graph with 0 edges\n"


class TestCorona:
    def test_writes_edge_list_and_sidecar(self, capsys, tmp_path, k2_file):
        out = tmp_path / "Y.el"
        code, _, _ = run(capsys, "corona", "--g", k2_file, "--h", k2_file, "-o", str(out))
        assert code == 0
        cg = corona_product(complete(2), complete(2))
        rebuilt = parse_edge_list(out.read_text())
        assert rebuilt.edges == cg.graph.edges
        parts = json.loads((tmp_path / "Y.el.partition.json").read_text())
        assert parts["EG"] == list(cg.part_eg)
        assert parts["EH"] == [list(cell) for cell in cg.part_eh]
        assert parts["EGH"] == [list(cell) for cell in cg.part_egh]

    def test_psi_of_written_corona(self, capsys, tmp_path, k2_file):
        out = tmp_path / "Y.el"
        run(capsys, "corona", "--g", k2_file, "--h", k2_file, "-o", str(out))
        assert run(capsys, "psi", "--in", str(out))[:2] == (0, "9\n")


class TestLpRoundTrip:
    def test_export_golden(self, capsys, k3_file):
        code, out, _ = run(capsys, "export-lp", "--in", k3_file)
        assert code == 0
        assert out.startswith("Minimize\n obj: x1 + x2 + x3\nSubject To\n")
        assert out.endswith("End\n")

    def test_no_dedup_flag(self, capsys, k3_file):
        _, with_dedup, _ = run(capsys, "export-lp", "--in", k3_file)
        _, without, _ = run(capsys, "export-lp", "--in", k3_file, "--no-dedup")
        assert with_dedup == without  # K3 has no duplicate supports

    def test_import_solution(self, capsys, tmp_path, k3_file):
        sol = tmp_path / "sol.txt"
        sol.write_text("x1 1\nx2 1\nx3 0\n")
        code, out, _ = run(capsys, "import-solution", "--in", k3_file, "--solution", str(sol))
        assert code == 0
        assert json.loads(out) == {"set": [0, 1], "objective": 2, "forcing": True}
        sol.write_text("x1 1\n\n# x3 1\nx2 1\nx3 0\n")
        assert run(capsys, "import-solution", "--in", k3_file, "--solution", str(sol)) == (0, out, "")

    def test_import_bad_solution(self, capsys, tmp_path, k3_file):
        sol = tmp_path / "sol.txt"
        sol.write_text("x1 0.5\n")
        code, _, err = run(capsys, "import-solution", "--in", k3_file, "--solution", str(sol))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_import_non_finite_value(self, capsys, tmp_path, k3_file, value):
        sol = tmp_path / "sol.txt"
        sol.write_text(f"x1 {value}\n")
        code, out, err = run(capsys, "import-solution", "--in", k3_file, "--solution", str(sol))
        assert (code, out) == (1, "")
        assert err == f"error: line 1: value {value} is not binary within tolerance\n"


# The bounds-sweep benchmark grid, and the SHA-256 of its sweep stdout copied
# from bench/goldens.json (key sweep).
SWEEP_GRID = ("K1", "K2", "K3", "P3", "P4", "C4", "K2,2")
SWEEP_DIGEST = "d3ef2c85e46f6b73e68c9eb660cd0d5a44e30219ecb24b39ba78cd20333c43b4"


class TestBoundsAndSweep:
    def test_bounds_json(self, capsys, k2_file):
        code, out, _ = run(capsys, "bounds", "--g", k2_file, "--h", k2_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_phi"] == 4
        assert payload["all_pass"] is True

    def test_factor_past_the_edge_cap_is_a_domain_error(self, capsys, tmp_path, k2_file):
        target = tmp_path / "S42.el"
        target.write_text(serialize_edge_list(star(42)))  # 41 edges
        code, out, err = run(capsys, "bounds", "--g", k2_file, "--h", str(target))
        assert (code, out) == (1, "")
        assert err.isascii() and err.count("\n") == 1
        assert err.startswith("error: factor H: ")

    def test_sweep_csv_and_exit_code(self, capsys):
        code, out, _ = run(capsys, "sweep", "--families", "K1", "K2", "--max-n", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "g,h,n_g,n_h,m_corona,nu_g,nu_h,phi_g,phi_h,h_has_perfect,"
            "h_randomly_matchable,predicted_nu,upper_complement,upper_sum,"
            "lower_randomly,exact_nu,exact_psi,exact_phi,verdict_nu_formula,"
            "verdict_upper_complement,verdict_upper_sum,verdict_lower_randomly,"
            "gap_nu_formula,gap_upper_complement,gap_upper_sum,gap_lower_randomly,"
            "all_pass"
        )
        assert len(lines) == 1 + 4  # header + all four pairs

    def test_sweep_respects_max_n(self, capsys):
        code, out, _ = run(capsys, "sweep", "--families", "K1", "K2", "--max-n", "4")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3  # K2oK2 has 6 vertices and is skipped

    def test_sweep_bytes_match_the_golden(self, capsys):
        code, out, _ = run(capsys, "sweep", "--families", *SWEEP_GRID, "--max-n", "12")
        assert (code, len(out.encode())) == (1, 2499)
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGEST

    def test_sweep_columns_are_the_bounds_keys(self, capsys, k2_file):
        code, out, _ = run(capsys, "bounds", "--g", k2_file, "--h", k2_file)
        expected = []
        for key in json.loads(out):
            if key in ("verdicts", "gaps"):
                expected += [f"{key[:-1]}_{check}" for check in GRADED_CHECKS]
            else:
                expected.append(key)
        code, out, _ = run(capsys, "sweep", "--families", *SWEEP_GRID, "--max-n", "12")
        assert next(csv.reader(io.StringIO(out))) == expected

    def test_sweep_builds_only_the_factors_it_grades(self, capsys):
        # K600 is in no pair within --max-n 4, so its 179,700 edges cost nothing.
        tracemalloc.start()
        try:
            skipped = run(capsys, "sweep", "--families", "K1", "K600", "--max-n", "4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert skipped == run(capsys, "sweep", "--families", "K1", "--max-n", "4")
        assert skipped[0] == 0
        assert peak < 2_000_000

    def test_sweep_checks_the_factors_it_skips(self, capsys):
        code, out, err = run(capsys, "sweep", "--families", "K1", "C2", "--max-n", "2")
        assert (code, out, err) == (1, "", "error: cycle requires n >= 3, got 2\n")


class TestRandomlyMatchable:
    def test_json_verdicts(self, capsys, tmp_path):
        target = tmp_path / "K4.el"
        target.write_text(serialize_edge_list(complete(4)))
        code, out, _ = run(capsys, "randomly-matchable", "--in", str(target))
        assert code == 0
        assert json.loads(out) == {"definitional": True, "structural": True}


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, k3_file):
        first = run(capsys, "phi", "--in", k3_file, "--json")
        second = run(capsys, "phi", "--in", k3_file, "--json")
        assert first == second


def test_output_file_flag(tmp_path, capsys, k3_file):
    out = tmp_path / "value.txt"
    code, stdout, _ = run(capsys, "psi", "--in", k3_file, "-o", str(out))
    assert code == 0
    assert stdout == ""
    assert out.read_text() == "3\n"


def test_parser_is_reused_and_survives_a_usage_error(capsys, k3_file):
    assert build_parser() is build_parser()
    src = str(Path(matchforce.__file__).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "matchforce", "psi", "--json", "--in", k3_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert main(["psi", "--in", k3_file, "--budget", "0"]) == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "psi", "--json", "--in", k3_file)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert json.loads(out)["psi"] == 3


def test_usage_error_exit_code(capsys, k3_file):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["psi", "--in", k3_file, "--budget", "0"]) == 2
    assert main(["phi", "--in", k3_file, "--node-limit", "0"]) == 2
    assert main(["phi", "--in", k3_file, "--node-limit", "-1"]) == 2
    assert main(["gen", "--family", "path", "--n", "3", "--budget", "7"]) == 2
    # Only phi caps the search; bounds and sweep report proven values alone.
    assert main(["bounds", "--g", k3_file, "--h", k3_file, "--node-limit", "5"]) == 2
    assert main(["sweep", "--families", "K1", "K2", "--node-limit", "5"]) == 2


@pytest.mark.parametrize("flag", ["--in", "--g", "--h", "--solution"])
def test_non_utf8_input_is_a_domain_error(capsys, tmp_path, k3_file, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n\xff 2\n")
    argv = {
        "--in": ["psi", "--in", str(bad)],
        "--g": ["bounds", "--g", str(bad), "--h", k3_file],
        "--h": ["corona", "--g", k3_file, "--h", str(bad), "-o", str(tmp_path / "out.el")],
        "--solution": ["import-solution", "--in", k3_file, "--solution", str(bad)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 4)\n"


BOM_ARGV = {
    "--in": ["psi", "--in", "{}"],
    "--g": ["bounds", "--g", "{}", "--h", "{K3}"],
    "--solution": ["import-solution", "--in", "{K3}", "--solution", "{}"],
}


def bom_run(capsys, tmp_path, k3_file, flag, text):
    source = tmp_path / "input.txt"
    source.write_text(text, encoding="utf-8")
    paths = {"{}": str(source), "{K3}": k3_file}
    return run(capsys, *(paths.get(arg, arg) for arg in BOM_ARGV[flag]))


@pytest.mark.parametrize("flag", list(BOM_ARGV))
def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, k3_file, flag):
    text = "x1 1\nx2 1\n" if flag == "--solution" else "n 3\n0 1\n1 2\n"
    plain = bom_run(capsys, tmp_path, k3_file, flag, text)
    assert plain[0] == 0
    assert bom_run(capsys, tmp_path, k3_file, flag, "\ufeff" + text) == plain


@pytest.mark.parametrize(
    "flag,text,message",
    [
        ("--in", "0 1\n\ufeff1 2\n", "line 2: non-integer vertex in '\\ufeff1 2'"),
        ("--in", "\ufeff\ufeffn 3\n0 1\n", "line 1: non-integer vertex in '\\ufeffn 3'"),
        ("--in", " \ufeff0 1\n", "line 1: non-integer vertex in '\\ufeff0 1'"),
        ("--solution", "x1 1\n\ufeffx2 1\n", "line 2: unknown variable '\\ufeffx2'"),
    ],
    ids=["second-line", "doubled", "after-space", "solution-second-line"],
)
def test_byte_order_mark_past_the_start_is_a_domain_error(
    capsys, tmp_path, k3_file, flag, text, message
):
    assert bom_run(capsys, tmp_path, k3_file, flag, text) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("case", ["header", "variable", "family", "bipartite-part"])
def test_superscript_digits_are_a_domain_error(capsys, tmp_path, k3_file, case):
    # "²" passes str.isdigit() but int() rejects it.
    bad = tmp_path / "bad.txt"
    bad.write_text({"header": "n ²\n0 1\n", "variable": "x² 1\n"}.get(case, ""), encoding="utf-8")
    argv = {
        "header": ["psi", "--in", str(bad)],
        "variable": ["import-solution", "--in", k3_file, "--solution", str(bad)],
        "family": ["sweep", "--families", "K²"],
        "bipartite-part": ["sweep", "--families", "K2,²"],
    }[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# int() and float() read other Unicode digits and "_" separators as numbers;
# every numeral in the input formats and family names is ASCII digits only.
NON_ASCII_NUMERALS = {
    "variable-arabic-indic": ("solution", "x\u0661 1\n"),
    "value-fullwidth": ("solution", "x1 \uff11\n"),
    "value-underscore": ("solution", "x1 0_1\n"),
    "vertex-underscore": ("graph", "1 1_0\n"),
    "vertex-arabic-indic": ("graph", "1 \u0662\n"),
    "vertex-plus": ("graph", "+0 1\n"),
    "vertex-plus-second": ("graph", "0 +1\n"),
    "vertex-minus-zero": ("graph", "-0 1\n"),
    "header-arabic-indic": ("graph", "n \u0663\n0 1\n"),
    "family-arabic-indic": ("family", "K\u0663"),
}


def _numeral_argv(tmp_path, k3_file, kind, text):
    """A command that reads ``text`` as a solution file, a graph file or a
    family name."""
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    return {
        "solution": ["import-solution", "--in", k3_file, "--solution", str(bad)],
        "graph": ["psi", "--in", str(bad)],
        "family": ["sweep", "--families", text],
    }[kind]


@pytest.mark.parametrize("case", NON_ASCII_NUMERALS)
def test_non_ascii_numerals_are_a_domain_error(capsys, tmp_path, k3_file, case):
    code, out, err = run(capsys, *_numeral_argv(tmp_path, k3_file, *NON_ASCII_NUMERALS[case]))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# int() raises past sys.get_int_max_str_digits() (4,300 by default); a longer
# numeral is malformed input like any other.
_LONG_NUMERAL = "9" * 5000
LONG_NUMERALS = {
    "header": ("graph", f"n {_LONG_NUMERAL}\n0 1\n"),
    "vertex": ("graph", f"0 {_LONG_NUMERAL}\n"),
    "family": ("family", f"K{_LONG_NUMERAL}"),
    "bipartite-part": ("family", f"K2,{_LONG_NUMERAL}"),
    "variable": ("solution", f"x{_LONG_NUMERAL} 1\n"),
}


@pytest.mark.parametrize("case", LONG_NUMERALS)
def test_long_numerals_are_a_domain_error(capsys, tmp_path, k3_file, case):
    argv = _numeral_argv(tmp_path, k3_file, *LONG_NUMERALS[case])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    src = str(Path(matchforce.__file__).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "matchforce", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)


# int() reads the same numerals in the integer flags; each flag takes ASCII
# digits only, after optional surrounding spaces and a sign.
INTEGER_FLAGS = {
    "edges": ["verify-forcing", "--in", "{k3}", "--edges", "0,{bad}"],
    "n": ["gen", "--family", "path", "--n", "{bad}"],
    "a": ["gen", "--family", "complete_bipartite", "--a", "{bad}", "--b", "2"],
    "b": ["gen", "--family", "complete_bipartite", "--a", "2", "--b", "{bad}"],
    "max-n": ["sweep", "--families", "K1", "--max-n", "{bad}"],
    "budget": ["psi", "--in", "{k3}", "--budget", "{bad}"],
    "node-limit": ["phi", "--in", "{k3}", "--node-limit", "{bad}"],
}


@pytest.mark.parametrize("bad", ["\u0661", "\uff11", "1_0", "1\u0660", "+-1", "x"])
@pytest.mark.parametrize("flag", INTEGER_FLAGS)
def test_integer_flags_read_ascii_digits_only(capsys, k3_file, flag, bad):
    argv = [arg.format(k3=k3_file, bad=bad) for arg in INTEGER_FLAGS[flag]]
    code, out, err = run(capsys, *argv)
    assert out == "" and "Traceback" not in err
    if flag == "edges":
        assert code == 1
        assert err == f"error: --edges expects comma-separated integers, got '0,{bad}'\n"
    else:
        assert code == 2
        assert err.startswith("usage: ")
        assert f"argument --{flag}: invalid int value: {bad!r}" in err


@pytest.mark.parametrize(
    "argv,want",
    [
        (["gen", "--family", "path", "--n", " +3 "], (0, "n 3\n0 1\n1 2\n", "")),
        (["psi", "--in", "{k3}", "--budget", " 10"], (0, "3\n", "")),
        (["verify-forcing", "--in", "{k3}", "--edges", "0, 1"], (0, "true\n", "")),
        (
            ["verify-forcing", "--in", "{k3}", "--edges", "-1"],
            (1, "", "error: edge index -1 out of range for graph with 3 edges\n"),
        ),
    ],
)
def test_integer_flags_keep_spaces_and_sign(capsys, k3_file, argv, want):
    assert run(capsys, *[arg.format(k3=k3_file) for arg in argv]) == want


def test_negative_vertex_keeps_its_message(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n-1 2\n")
    code, out, err = run(capsys, "psi", "--in", str(bad))
    assert (code, out, err) == (1, "", "error: line 2: negative vertex index in (-1, 2)\n")
    bad.write_text("0 1\n1 -2\n")
    code, out, err = run(capsys, "psi", "--in", str(bad))
    assert (code, out, err) == (1, "", "error: line 2: negative vertex index in (1, -2)\n")

@pytest.fixture
def enumerated(monkeypatch):
    """Graphs passed to ``maximal_matching_masks``, one entry per call.

    Modules that import the function by name hold their own binding, so every
    binding in the package is replaced, not only the one in ``matchings``.
    """
    calls = []
    original = matchings.maximal_matching_masks

    def counting(g, *args, **kwargs):
        calls.append(g)
        return original(g, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matchforce":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_each_graph_is_enumerated_once(enumerated, capsys, k3_file):
    verify_bounds(complete(2), complete(3))
    assert enumerated == [complete(2), complete(3), corona_product(complete(2), complete(3)).graph]
    enumerated.clear()
    assert run(capsys, "psi", "--in", k3_file, "--json")[0] == 0
    assert enumerated == [complete(3)]


@pytest.mark.parametrize("spine,h", [(path(4), complete(3)), (path(3), complete(2))], ids=["P4oK3", "P3oK2"])
@pytest.mark.parametrize(
    "argv,lists",
    [
        (["psi"], False),
        (["psi", "--json"], True),
        (["nu"], False),
        (["randomly-matchable"], False),
        (["phi", "--json"], True),
        (["export-lp"], True),
        (["verify-forcing", "--edges", "0"], True),
        (["import-solution"], True),
    ],
    ids=["psi", "psi-json", "nu", "randomly-matchable", "phi-json", "export-lp", "verify-forcing", "import-solution"],
)
def test_each_command_enumerates_once(enumerated, monkeypatch, capsys, tmp_path, spine, h, argv, lists):
    # A count runs the merged-state pass once; a listing lists once, and runs
    # the pass only past 24 edges (P4oK3 has 27, P3oK2 11).
    g = corona_product(spine, h).graph
    target = tmp_path / "g.el"
    target.write_text(serialize_edge_list(g))
    if argv[0] == "import-solution":
        (tmp_path / "sol.txt").write_text("x1 1\n")
        argv = [*argv, "--solution", str(tmp_path / "sol.txt")]
    scans = []
    original = matchings._merge_states

    def scanning(graph, *args, **kwargs):
        scans.append(graph)
        return original(graph, *args, **kwargs)

    monkeypatch.setattr(matchings, "_merge_states", scanning)
    assert run(capsys, argv[0], "--in", str(target), *argv[1:])[0] == 0
    assert enumerated == ([g] if lists else [])
    assert scans == ([g] if not lists or g.m > matchings._RELABEL_ABOVE else [])


@pytest.mark.parametrize(
    "argv",
    [["psi"], ["phi", "--json"], ["export-lp"], ["randomly-matchable"]],
    ids=["psi", "phi-json", "export-lp", "randomly-matchable"],
)
def test_declared_vertex_count_costs_no_memory(capsys, tmp_path, argv):
    # Only the one edge should cost memory, not the 200,000 declared vertices.
    wide = tmp_path / "wide.el"
    wide.write_text("n 200000\n0 1\n")
    tracemalloc.start()
    try:
        code = main([*argv, "--in", str(wide)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (0, "")
    assert peak < 2_000_000


_P20_K3 = corona_product(path(20), complete(3)).graph


@pytest.mark.parametrize(
    "graph,budget,argv",
    [
        pytest.param(_P20_K3, matchings.DEFAULT_BUDGET, ["psi"], id="P20oK3"),
        pytest.param(complete(30), 1000, ["psi"], id="K30"),
        pytest.param(_P20_K3, matchings.DEFAULT_BUDGET, ["psi", "--json"], id="P20oK3-psi-json"),
        pytest.param(_P20_K3, matchings.DEFAULT_BUDGET, ["export-lp"], id="P20oK3-export-lp"),
        pytest.param(
            _P20_K3, matchings.DEFAULT_BUDGET, ["verify-forcing", "--edges", "0"], id="P20oK3-verify-forcing"
        ),
        pytest.param(complete(30), 1000, ["psi", "--json"], id="K30-psi-json"),
    ],
)
def test_counts_past_the_budget_fail_small(capsys, tmp_path, graph, budget, argv):
    # P20oK3 has 38,166,342,053,346 maximal matchings, counted from a few
    # hundred states; listing them up to the default budget peaks near 300 MB,
    # so the listing commands must check the count before they build a row.
    # K30's states outgrow the budget, so the listing stops at 1,000 rows.
    target = tmp_path / "g.el"
    target.write_text(serialize_edge_list(graph))
    tracemalloc.start()
    try:
        result = run(capsys, *argv, "--in", str(target), "--budget", str(budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = f"error: more than {budget} maximal matchings; raise the budget to enumerate\n"
    assert result == (1, "", message)
    assert peak <= 5_000_000


def test_bounds_past_the_edge_cap_lists_nothing(capsys, tmp_path):
    # P20oK3 has 139 edges, past the exact search's 40-edge cap, so the report
    # needs only its summary; Psi is over the default budget, so the exact
    # columns stay empty. Listing rows up to the budget first peaked near 300 MB.
    spine, copied = tmp_path / "P20.el", tmp_path / "K3.el"
    spine.write_text(serialize_edge_list(path(20)))
    copied.write_text(serialize_edge_list(complete(3)))
    tracemalloc.start()
    try:
        result = run(capsys, "bounds", "--g", str(spine), "--h", str(copied))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = (
        '{"g": "G", "h": "H", "n_g": 20, "n_h": 3, "m_corona": 139, "nu_g": 10, "nu_h": 1, '
        '"phi_g": 9, "phi_h": 2, "h_has_perfect": false, "h_randomly_matchable": false, '
        '"predicted_nu": 40, "upper_complement": 99, "upper_sum": 109, "lower_randomly": null, '
        '"exact_nu": null, "exact_psi": null, "exact_phi": null, "verdicts": {}, "gaps": {}, '
        '"all_pass": true}\n'
    )
    assert result == (0, report, "")
    assert peak <= 5_000_000


# Vertex indices are 15 or below, plus one far index: a graph costs memory
# for its edges only, not for every vertex the far index declares. The
# long numeral is longer than int() reads.
_GRAPH_TOKENS = [
    b"n", b"#", b"-1", b"1.5", b"x", b"\xff", b"\xc3", b"\x80", b"200000", _LONG_NUMERAL.encode()
] + [str(v).encode() for v in range(16)]
# "\udcff" is written out as the lone byte 0xff, which is not UTF-8.
_SOLUTION_VALUES = ["0", "1", "2", "0.5", "0.9999999", "nan", "inf", "-inf", "1e400", "junk", "\udcff"]
_EDGE_FLAGS = ["", "0", "0,1", "1,2,3", "-1", "99", "a", "1,,2"]


@st.composite
def cli_inputs(draw):
    lines = draw(st.lists(st.lists(st.sampled_from(_GRAPH_TOKENS), max_size=3), max_size=12))
    graph = b"\n".join(b" ".join(line) for line in lines)
    entries = draw(
        st.lists(st.tuples(st.integers(0, 15), st.sampled_from(_SOLUTION_VALUES)), max_size=4)
    )
    solution = "".join(f"x{i} {value}\n" for i, value in entries)
    return graph, solution.encode("utf-8", "surrogateescape"), draw(st.sampled_from(_EDGE_FLAGS))


@given(cli_inputs())
@example((b"n " + _LONG_NUMERAL.encode() + b"\n0 1", b"", ""))
@settings(max_examples=150, deadline=None)
def test_every_exit_code_is_0_1_or_2(inputs):
    graph, solution, edge_flag = inputs
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp, "g.el")
        graph_path.write_bytes(graph)
        solution_path = Path(tmp, "sol.txt")
        solution_path.write_bytes(solution)
        out = str(Path(tmp, "out.txt"))
        for argv in (
            ["psi", "--in", str(graph_path)],
            ["phi", "--in", str(graph_path), "--node-limit", "1000"],
            ["verify-forcing", "--in", str(graph_path), "--edges", edge_flag],
            ["import-solution", "--in", str(graph_path), "--solution", str(solution_path)],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["-o", out])
            assert code in (0, 1, 2)
            if code == 1:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
