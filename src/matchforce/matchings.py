"""Exhaustive maximal-matching enumeration and the counts derived from it.

Matchings are handled as integer bitmasks over edge indices, which keeps the
enumeration, the incidence matrix, and the forcing-set search on one shared
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .graph import (
    BALANCED_COMPLETE_BIPARTITE,
    COMPLETE_EVEN,
    Graph,
    recognize_structure,
)

# Enumeration hard stop: the count of maximal matchings grows exponentially,
# and downstream exact computations need the complete set, so overflowing the
# budget is an error rather than a truncation.
DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The instance is beyond the configured enumeration or search budget."""


@dataclass(frozen=True)
class Matching:
    """An edge set with the pairwise-nonadjacency invariant.

    ``mask`` has bit i set iff edge i belongs to the matching; ``edges`` is the
    same set as sorted indices. ``perfect`` is set only when the matching
    saturates every vertex of the host graph.
    """

    mask: int
    edges: tuple[int, ...]
    saturated: tuple[int, ...]
    perfect: bool


@dataclass(frozen=True)
class MatchingSummary:
    psi: int
    nu: int
    sat: int
    has_perfect: bool


class RandomlyMatchableVerdict(NamedTuple):
    definitional: bool
    structural: bool


def _edge_vertex_masks(g: Graph) -> list[int]:
    return [(1 << u) | (1 << v) for u, v in g.edges]


def _check_edge_indices(g: Graph, edges: Iterable[int]) -> list[int]:
    out = sorted(set(int(e) for e in edges))
    if out and not (0 <= out[0] and out[-1] < g.m):
        bad = out[0] if out[0] < 0 else out[-1]
        raise IndexError(f"edge index {bad} out of range for graph with {g.m} edges")
    return out


def edges_to_mask(g: Graph, edges: Iterable[int]) -> int:
    mask = 0
    for e in _check_edge_indices(g, edges):
        mask |= 1 << e
    return mask


def mask_to_edges(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def is_matching(g: Graph, edges: Iterable[int]) -> bool:
    """True iff no two of the given edges share an endpoint."""
    sat = 0
    for e in _check_edge_indices(g, edges):
        ev = (1 << g.edges[e][0]) | (1 << g.edges[e][1])
        if sat & ev:
            return False
        sat |= ev
    return True


def is_maximal_matching(g: Graph, edges: Iterable[int]) -> bool:
    """True iff the edges form a matching no edge of ``g`` can extend."""
    idx = _check_edge_indices(g, edges)
    member = set(idx)
    sat = 0
    for e in idx:
        ev = (1 << g.edges[e][0]) | (1 << g.edges[e][1])
        if sat & ev:
            return False
        sat |= ev
    for j, (u, v) in enumerate(g.edges):
        if j in member:
            continue
        if not (sat & ((1 << u) | (1 << v))):
            return False
    return True


def maximal_matching_masks(g: Graph, budget: int = DEFAULT_BUDGET) -> list[int]:
    """All maximal matchings as bitmasks, in lexicographic order.

    Order is by the sorted edge-index sequence of each matching, which the
    include-first backtracking below produces directly. Raises
    :class:`BudgetExceededError` as soon as more than ``budget`` matchings
    exist.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    m = g.m
    ev = _edge_vertex_masks(g)
    # Largest index among edges sharing a vertex with e: once the scan passes
    # it, an excluded-but-still-addable e can never be blocked again.
    adj_max = [-1] * m
    for v in range(g.n):
        inc = g.adjacency[v]
        if len(inc) < 2:
            continue
        top = max(inc)
        for e in inc:
            other = top if e != top else max(i for i in inc if i != top)
            if other > adj_max[e]:
                adj_max[e] = other
    out: list[int] = []

    def extend(i: int, mask: int, sat: int, pending: tuple[int, ...]) -> None:
        j = i
        while j < m and ev[j] & sat:
            j += 1
        for e in pending:
            if adj_max[e] < j:
                return  # an excluded edge stays addable forever: dead branch
        if j == m:
            if len(out) >= budget:
                raise BudgetExceededError(
                    f"more than {budget} maximal matchings; raise the budget to enumerate"
                )
            out.append(mask)
            return
        new_sat = sat | ev[j]
        extend(
            j + 1,
            mask | (1 << j),
            new_sat,
            tuple(e for e in pending if not (ev[e] & new_sat)),
        )
        if adj_max[j] > j:
            extend(j + 1, mask, sat, pending + (j,))

    extend(0, 0, 0, ())
    return out


def _matching_from_mask(g: Graph, mask: int) -> Matching:
    edges = mask_to_edges(mask)
    sat: list[int] = []
    for e in edges:
        sat.extend(g.edges[e])
    sat.sort()
    return Matching(
        mask=mask,
        edges=edges,
        saturated=tuple(sat),
        perfect=len(sat) == g.n,
    )


def enumerate_maximal_matchings(g: Graph, budget: int = DEFAULT_BUDGET) -> list[Matching]:
    """All maximal matchings of ``g`` in lexicographic order."""
    return [_matching_from_mask(g, mask) for mask in maximal_matching_masks(g, budget)]


def summarize_matchings(g: Graph, budget: int = DEFAULT_BUDGET) -> MatchingSummary:
    """Count maximal matchings and derive nu, the saturation number, and
    perfect-matching existence in one enumeration pass."""
    return _summarize_masks(maximal_matching_masks(g, budget), g.n)


def _summarize_masks(masks: list[int], n: int) -> MatchingSummary:
    """:func:`summarize_matchings` on the enumerated maximal matchings of an
    n-vertex graph."""
    sizes = [mask.bit_count() for mask in masks]
    nu = max(sizes)
    return MatchingSummary(
        psi=len(sizes),
        nu=nu,
        sat=min(sizes),
        has_perfect=2 * nu == n,
    )


def count_maximal_matchings(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    return summarize_matchings(g, budget).psi


def matching_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    # Every maximum matching is maximal, so the enumeration is exhaustive here.
    return summarize_matchings(g, budget).nu


def saturation_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    return summarize_matchings(g, budget).sat


def has_perfect_matching(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    return summarize_matchings(g, budget).has_perfect


def is_randomly_matchable(g: Graph, budget: int = DEFAULT_BUDGET) -> RandomlyMatchableVerdict:
    """Both views of "every maximal matching is perfect".

    The definitional verdict checks the enumerated matchings directly; the
    structural one asks every connected component to be an even complete graph
    or a balanced complete bipartite graph. The two agree on connected graphs.
    """
    definitional = _all_perfect(maximal_matching_masks(g, budget), g.n)
    allowed = {COMPLETE_EVEN, BALANCED_COMPLETE_BIPARTITE}
    structural = all(tag in allowed for tag in recognize_structure(g))
    return RandomlyMatchableVerdict(definitional=definitional, structural=structural)


def _all_perfect(masks: list[int], n: int) -> bool:
    """Whether every enumerated maximal matching of an n-vertex graph is perfect."""
    return all(2 * mask.bit_count() == n for mask in masks)
