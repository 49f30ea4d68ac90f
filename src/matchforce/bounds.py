"""Closed-form bound evaluators for corona products and a verification harness.

Every formula here is checked against exact enumeration elsewhere in the test
suite. A failed verdict is reported, not hidden: :func:`verify_bounds` finds
``upper_sum`` below the exact forcing number on the pairs listed in
``tests/test_bounds.py::UPPER_SUM_FAILURES`` (K2,2 is C4 relabelled, so each
C4 pair has a K2,2 twin). Whether the formula misses a hypothesis of the
paper's theorem or was transcribed wrongly stays open until the theorem's
text is at hand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .corona import corona_product
from .forcing import DEFAULT_MAX_EDGES, DEFAULT_NODE_LIMIT, _min_forcing_set
from .graph import Graph
from .matchings import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    MatchingSummary,
    _summarize_masks,
    maximal_matching_masks,
    summarize_matchings,
)


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    if n < 1:
        raise ValueError(f"fibonacci index must be >= 1, got {n}")
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return b


def phi_complete_even(k: int) -> int:
    """Global forcing number of the complete graph on 2k vertices: (2k-2)^2/2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (2 * k - 2) ** 2 // 2


def phi_balanced_bipartite(k: int) -> int:
    """Global forcing number of the balanced complete bipartite graph: (k-1)^2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (k - 1) ** 2


def psi_path_corona_triangle(n_edges: int) -> int:
    """Maximal matchings of (path with n edges) corona K3: 3^(n+1) * F(n+2).

    The path parameter counts edges, the convention pinned by the 2-vertex
    instance: enumeration gives 18 = 3^2 * F(3), while a vertex-count reading
    would give 81.
    """
    if n_edges < 1:
        raise ValueError(f"path edge count must be >= 1, got {n_edges}")
    return 3 ** (n_edges + 1) * fibonacci(n_edges + 2)


def corona_matching_number(nu_g: int, n_g: int, nu_h: int, h_has_perfect: bool) -> int:
    """Matching number of a corona from its factors' exact values."""
    if h_has_perfect:
        return nu_g + n_g * nu_h
    return n_g + n_g * nu_h


def corona_phi_upper_complement(m_corona: int, nu_corona: int) -> int:
    """Upper bound: corona edge count minus its matching number."""
    return m_corona - nu_corona


def corona_phi_upper_sum(phi_g: int, n_g: int, phi_h: int, n_h: int) -> int:
    """Upper bound from factor forcing numbers plus all join edges."""
    return phi_g + n_g * phi_h + n_g * n_h


def corona_phi_lower_randomly(phi_g: int, n_g: int, phi_h: int, n_h: int) -> int:
    """Lower bound valid when the second factor is randomly matchable.

    Randomly matchable graphs have even order, so the join-edge term
    n_g*n_h/2 is an exact integer.
    """
    if n_h % 2:
        raise ValueError(
            f"second factor of odd order {n_h} cannot be randomly matchable"
        )
    return phi_g + n_g * phi_h + n_g * n_h // 2


def corollary_lower_bounds(phi_g: int, n_g: int, k: int) -> tuple[int, int]:
    """Specializations of the randomly-matchable lower bound to complete and
    balanced bipartite second factors.

    Returns the bounds for H on 2k vertices: the complete graph K_{2k}
    (term 2k^2 - 3k + 2) and the balanced bipartite K_{k,k} (term k^2 - k + 1).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return (
        phi_g + n_g * (2 * k * k - 3 * k + 2),
        phi_g + n_g * (k * k - k + 1),
    )


@dataclass(frozen=True)
class BoundsReport:
    """Predicted bounds versus exact values for one corona instance.

    Gap signs are uniform: bound minus exact for upper bounds, exact minus
    bound for lower bounds, so nonnegative always means the theorem held.
    ``lower_randomly`` is present exactly when the second factor passed the
    definitional randomly-matchable check. ``exact_nu`` and ``exact_psi`` are
    None past the enumeration budget, and ``exact_phi`` also past the 40-edge
    cap or the default node limit; verdicts skip the checks that need them.
    """

    g_name: str
    h_name: str
    n_g: int
    n_h: int
    m_corona: int
    nu_g: int
    nu_h: int
    phi_g: int
    phi_h: int
    h_has_perfect: bool
    h_randomly_matchable: bool
    predicted_nu: int
    upper_complement: int
    upper_sum: int
    lower_randomly: int | None
    exact_nu: int | None
    exact_psi: int | None
    exact_phi: int | None
    verdicts: dict[str, bool]
    gaps: dict[str, int]

    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict[str, object]:
        out = {_RENAMED.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        out["verdicts"] = dict(self.verdicts)
        out["gaps"] = dict(self.gaps)
        out["all_pass"] = self.all_pass()
        return out

    def csv_row(self) -> list[str]:
        """The sweep CSV cells under :data:`CSV_COLUMNS`: blank for None and
        for a check that was not run, ``true`` or ``false`` for a bool."""
        cells = []
        for key, value in self.to_dict().items():
            cells += [value.get(c) for c in GRADED_CHECKS] if key in _PER_CHECK else [value]
        return [
            "" if v is None else str(v).lower() if isinstance(v, bool) else str(v) for v in cells
        ]


_RENAMED = {"g_name": "g", "h_name": "h"}
# The to_dict keys that hold one value per check.
_PER_CHECK = ("verdicts", "gaps")


def _exact(graph: Graph, budget: int, graded: dict) -> tuple[MatchingSummary, int | None]:
    """Enumerate ``graph`` once for its summary and the φ that the default
    exact search proves, which is None past the default node limit, or past
    ``DEFAULT_MAX_EDGES``, where the summary is counted and nothing listed.
    ``graded`` holds the answers found so far, by graph (that is, by vertex
    count and edge list); a graph found there is not enumerated again."""
    if graph not in graded:
        if graph.m > DEFAULT_MAX_EDGES:
            graded[graph] = summarize_matchings(graph, budget), None
        else:
            rows = maximal_matching_masks(graph, budget)
            summary = _summarize_masks(rows, graph.n)
            answer = _min_forcing_set(rows, graph, DEFAULT_NODE_LIMIT)[0]
            graded[graph] = summary, None if answer is None else answer.bit_count()
    return graded[graph]


def _exact_factor(graph: Graph, name: str, budget: int, graded: dict) -> tuple[MatchingSummary, int]:
    """:func:`_exact` for a factor, whose φ every bound needs proven."""
    summary, phi = _exact(graph, budget, graded)
    if phi is None:
        raise BudgetExceededError(
            f"factor {name}: phi is unproven; exact search is capped at "
            f"{DEFAULT_MAX_EDGES} edges and {DEFAULT_NODE_LIMIT} nodes"
        )
    return summary, phi


# The checks that verify_bounds grades against exact values, in column order.
# lower_le_upper compares two bounds with each other and has no column.
GRADED_CHECKS = ("nu_formula", "upper_complement", "upper_sum", "lower_randomly")

# The sweep CSV header: the to_dict keys, with verdicts and gaps expanded
# into one verdict_* and one gap_* column per graded check.
CSV_COLUMNS = tuple(
    column
    for key in [_RENAMED.get(f.name, f.name) for f in fields(BoundsReport)] + ["all_pass"]
    for column in ([f"{key[:-1]}_{c}" for c in GRADED_CHECKS] if key in _PER_CHECK else [key])
)


def verify_bounds(
    g: Graph,
    h: Graph,
    g_name: str = "G",
    h_name: str = "H",
    budget: int = DEFAULT_BUDGET,
    *,
    _graded: dict | None = None,
) -> BoundsReport:
    """Build the corona, compute everything exactly, and grade every bound.

    Each factor must fit the budget and have its φ proven. Where the corona
    does not fit, its exact fields are left unset and only internal
    consistency of the bounds is judged. Each distinct graph is graded
    once, also when the corona equals a factor; :func:`sweep_reports`
    passes ``_graded`` to share the answers across its pairs.
    """
    graded = {} if _graded is None else _graded
    sum_g, phi_g = _exact_factor(g, g_name, budget, graded)
    sum_h, phi_h = _exact_factor(h, h_name, budget, graded)
    randomly_h = 2 * sum_h.sat == h.n

    cg = corona_product(g, h)
    m_corona = cg.graph.m

    predicted_nu = corona_matching_number(sum_g.nu, g.n, sum_h.nu, sum_h.has_perfect)
    upper_complement = corona_phi_upper_complement(m_corona, predicted_nu)
    upper_sum = corona_phi_upper_sum(phi_g, g.n, phi_h, h.n)
    lower_randomly = (
        corona_phi_lower_randomly(phi_g, g.n, phi_h, h.n) if randomly_h else None
    )

    try:
        corona_summary, exact_phi = _exact(cg.graph, budget, graded)
        exact_nu, exact_psi = corona_summary.nu, corona_summary.psi
    except BudgetExceededError:
        exact_nu = exact_psi = exact_phi = None

    gaps: dict[str, int] = {}
    if exact_nu is not None:
        gaps["nu_formula"] = exact_nu - predicted_nu
    if exact_phi is not None:
        gaps["upper_complement"] = upper_complement - exact_phi
        gaps["upper_sum"] = upper_sum - exact_phi
        if lower_randomly is not None:
            gaps["lower_randomly"] = exact_phi - lower_randomly
    verdicts = {
        key: gap == 0 if key == "nu_formula" else gap >= 0 for key, gap in gaps.items()
    }
    if lower_randomly is not None:
        verdicts["lower_le_upper"] = lower_randomly <= min(upper_complement, upper_sum)

    return BoundsReport(
        g_name=g_name,
        h_name=h_name,
        n_g=g.n,
        n_h=h.n,
        m_corona=m_corona,
        nu_g=sum_g.nu,
        nu_h=sum_h.nu,
        phi_g=phi_g,
        phi_h=phi_h,
        h_has_perfect=sum_h.has_perfect,
        h_randomly_matchable=randomly_h,
        predicted_nu=predicted_nu,
        upper_complement=upper_complement,
        upper_sum=upper_sum,
        lower_randomly=lower_randomly,
        exact_nu=exact_nu,
        exact_psi=exact_psi,
        exact_phi=exact_phi,
        verdicts=verdicts,
        gaps=gaps,
    )


def sweep_reports(
    factors: list[tuple[str, Graph]],
    max_corona_order: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[BoundsReport]:
    """Verify every ordered factor pair whose corona order fits the cap.

    Each distinct edge list, factor or corona, is enumerated and graded once
    per call, and every pair it is in shares that answer.
    """
    graded: dict = {}
    reports = []
    for g_name, g in factors:
        for h_name, h in factors:
            order = g.n * (1 + h.n)
            if max_corona_order is not None and order > max_corona_order:
                continue
            reports.append(verify_bounds(g, h, g_name, h_name, budget=budget, _graded=graded))
    return reports
