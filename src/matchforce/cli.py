"""Command-line surface: graph generation, corona construction, matching
counts, forcing numbers, bound verification, and LP export/import.

All data goes to stdout (or the ``-o`` path); diagnostics go to stderr.
Exit status: 0 on success, 1 on domain errors such as exceeded budgets or
malformed input files, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import corona as corona_mod
from . import forcing, ilp, matchings
from .graph import (
    FAMILY_KINDS,
    Graph,
    GraphError,
    GraphFamily,
    family_label,
    family_order,
    generate,
    parse_edge_list,
    parse_family_name,
    read_ascii_int,
    serialize_edge_list,
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "complete_bipartite":
        if args.a is None or args.b is None:
            raise GraphError("complete_bipartite requires --a and --b")
        family = GraphFamily("complete_bipartite", args.a, args.b)
    else:
        if args.n is None:
            raise GraphError(f"family {args.family} requires --n")
        family = GraphFamily(args.family, args.n)
    _emit(serialize_edge_list(generate(family)), args.out)
    return 0


def _cmd_corona(args: argparse.Namespace) -> int:
    g = _read_graph(args.g)
    h = _read_graph(args.h)
    cg = corona_mod.corona_product(g, h)
    Path(args.out).write_text(serialize_edge_list(cg.graph))
    Path(args.out + ".partition.json").write_text(corona_mod.partition_to_json(cg))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    if not args.json:
        summary = matchings.summarize_matchings(g, args.budget)
        _emit(f"{getattr(summary, args.stat)}\n", args.out)
        return 0
    masks = matchings.maximal_matching_masks(g, args.budget)
    # Ψ is the listing's length; ν and sat need a pass over every row.
    value = len(masks) if args.stat == "psi" else getattr(matchings._summarize_masks(masks, g.n), args.stat)
    # The bytes json.dumps gives for {stat: value, "matchings": rows}, each
    # row a list of edge indices; there is always at least one row.
    render = matchings.mask_renderer([str(e) for e in range(g.m)], ", ")
    rows = "], [".join(render(masks))
    _emit(f'{{"{args.stat}": {value}, "matchings": [[{rows}]]}}\n', args.out)
    return 0


def _cmd_phi(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    if args.method == "exact":
        result = forcing.phi_exact(g, args.budget, args.node_limit)
    else:
        result = forcing.phi_greedy(g, args.budget)
    if args.json:
        _emit(json.dumps(result.to_dict()) + "\n", args.out)
    else:
        _emit(f"{result.size}\n", args.out)
    return 0


def _parse_edge_flag(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [_ascii_int(tok) for tok in text.split(",")]
    except argparse.ArgumentTypeError:
        raise GraphError(f"--edges expects comma-separated integers, got {text!r}") from None


def _cmd_verify_forcing(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    try:
        ok = forcing.is_global_forcing_set(g, _parse_edge_flag(args.edges), args.budget)
    except IndexError as exc:
        raise GraphError(str(exc)) from None
    _emit("true\n" if ok else "false\n", args.out)
    return 0


def _cmd_export_lp(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    model = ilp.build_model(g, args.budget, dedup=not args.no_dedup)
    _emit(ilp.export_lp(model), args.out)
    return 0


def _cmd_import_solution(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    edges, objective = ilp.import_solution(_read_text(args.solution), g)
    valid = forcing.is_global_forcing_set(g, edges, args.budget)
    payload = {"set": list(edges), "objective": objective, "forcing": valid}
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _read_graph(args.g)
    h = _read_graph(args.h)
    report = bounds_mod.verify_bounds(g, h, budget=args.budget)
    _emit(json.dumps(report.to_dict()) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    families = [(family, family_order(family)) for family in map(parse_family_name, args.families)]
    # Any corona with a factor of order n has order >= s * (1 + n), s the least order.
    smallest = min(order for _, order in families)
    factors = [
        (family_label(family), generate(family))
        for family, order in families
        if args.max_n is None or smallest * (1 + order) <= args.max_n
    ]
    reports = bounds_mod.sweep_reports(factors, max_corona_order=args.max_n, budget=args.budget)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(bounds_mod.CSV_COLUMNS)
    writer.writerows(report.csv_row() for report in reports)
    _emit(buf.getvalue(), args.out)
    return 0 if all(report.all_pass() for report in reports) else 1


def _cmd_randomly_matchable(args: argparse.Namespace) -> int:
    g = _read_graph(args.infile)
    verdict = matchings.is_randomly_matchable(g, args.budget)
    _emit(json.dumps(verdict._asdict()) + "\n", args.out)
    return 0


def _ascii_int(text: str) -> int:
    """An integer flag: surrounding spaces, an optional sign, then a numeral
    that :func:`read_ascii_int` reads."""
    token = text.strip()
    value = read_ascii_int(token[1:] if token.startswith(("+", "-")) else token)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if token.startswith("-") else value


def _positive_int(text: str) -> int:
    value = _ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument(
        "--budget",
        type=_positive_int,
        default=matchings.DEFAULT_BUDGET,
        help="maximal-matching enumeration cap (default %(default)s)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser. It is built once per process, since building
    it takes longer than many commands, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="matchforce",
        description="Exact computations around global forcing sets of maximal matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family as edge-list text")
    p.add_argument("--family", required=True, choices=list(FAMILY_KINDS))
    p.add_argument("--n", type=_ascii_int, default=None, help="vertex count")
    p.add_argument("--a", type=_ascii_int, default=None, help="first part size (complete_bipartite)")
    p.add_argument("--b", type=_ascii_int, default=None, help="second part size (complete_bipartite)")
    p.add_argument("-o", "--out", default=None, help="write output to this path instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("corona", help="build a corona product plus its partition sidecar")
    p.add_argument("--g", required=True, help="edge-list file of the spine factor")
    p.add_argument("--h", required=True, help="edge-list file of the copied factor")
    p.add_argument("-o", "--out", required=True, help="output edge-list path; sidecar gets .partition.json appended")
    p.set_defaults(func=_cmd_corona)

    for stat, blurb in (
        ("psi", "count all maximal matchings"),
        ("nu", "matching number"),
        ("sat", "saturation number (smallest maximal matching)"),
    ):
        p = sub.add_parser(stat, help=blurb)
        p.add_argument("--in", dest="infile", required=True, help="edge-list file")
        p.add_argument(
            "--json",
            action="store_true",
            help="emit a JSON report listing the matchings as sorted edge-index arrays",
        )
        _add_common(p)
        p.set_defaults(func=_cmd_count, stat=stat)

    p = sub.add_parser("phi", help="global forcing number")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--method", choices=["exact", "greedy"], default="exact")
    p.add_argument("--json", action="store_true", help="emit the full result object")
    _add_common(p)
    p.add_argument(
        "--node-limit",
        type=_positive_int,
        default=forcing.DEFAULT_NODE_LIMIT,
        help="hitting-set node cap, summed over all rounds (default %(default)s)",
    )
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("verify-forcing", help="check whether an edge set is a global forcing set")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--edges", default="", help="comma-separated edge indices (empty for the empty set)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_forcing)

    p = sub.add_parser("export-lp", help="write the minimum forcing set ILP in LP text format")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--no-dedup", action="store_true", help="keep one constraint per row pair")
    _add_common(p)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("import-solution", help="read a solver solution back as an edge set")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--solution", required=True, help="solution file with 'x<i> <value>' lines")
    _add_common(p)
    p.set_defaults(func=_cmd_import_solution)

    p = sub.add_parser("bounds", help="verify every corona bound on one factor pair")
    p.add_argument("--g", required=True, help="edge-list file of the spine factor")
    p.add_argument("--h", required=True, help="edge-list file of the copied factor")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="verify bounds over all pairs of named families, as CSV")
    p.add_argument("--families", nargs="+", required=True, help="family names such as K1 K2 P3 C4 K2,2")
    p.add_argument("--max-n", type=_ascii_int, default=None, help="skip pairs whose corona has more vertices")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("randomly-matchable", help="definitional and structural verdicts")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    _add_common(p)
    p.set_defaults(func=_cmd_randomly_matchable)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphError, matchings.BudgetExceededError, ilp.SolutionFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
