"""Exhaustive maximal-matching enumeration and the counts derived from it.

A maximal matching is held only as an integer bitmask over edge indices: one
row of the matchings/edges incidence matrix. The enumeration, the forcing-set
search and the ILP export all work on that list of rows.
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
class MatchingSummary:
    psi: int
    nu: int
    sat: int
    has_perfect: bool


class RandomlyMatchableVerdict(NamedTuple):
    definitional: bool
    structural: bool


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


def _saturated(g: Graph, edges: Iterable[int]) -> int | None:
    """The vertices the edges cover, as a bitmask, or None when two of them
    share a vertex."""
    sat = 0
    for e in _check_edge_indices(g, edges):
        ev = (1 << g.edges[e][0]) | (1 << g.edges[e][1])
        if sat & ev:
            return None
        sat |= ev
    return sat


def is_matching(g: Graph, edges: Iterable[int]) -> bool:
    """True iff no two of the given edges share an endpoint."""
    return _saturated(g, edges) is not None


def is_maximal_matching(g: Graph, edges: Iterable[int]) -> bool:
    """True iff the edges form a matching no edge of ``g`` can extend."""
    sat = _saturated(g, edges)
    # A matched edge touches ``sat`` itself, so only unmatched edges can fail.
    return sat is not None and all(sat & ((1 << u) | (1 << v)) for u, v in g.edges)


def edge_neighbourhoods(g: Graph) -> list[int]:
    """near[e]: the edges sharing a vertex with edge e, e included, as a
    bitmask. These are the closed neighbourhoods of the line graph."""
    incident: dict[int, int] = {}
    for e, (u, v) in enumerate(g.edges):
        incident[u] = incident.get(u, 0) | 1 << e
        incident[v] = incident.get(v, 0) | 1 << e
    return [incident[u] | incident[v] for u, v in g.edges]


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
    near = edge_neighbourhoods(g)
    # dead[j]: the edges whose neighbours all lie below j. Once the scan
    # reaches j, an excluded-but-still-addable one can never be blocked again.
    dead = [0] * (m + 1)
    for e, nb in enumerate(near):
        dead[nb.bit_length()] |= 1 << e
    for j in range(1, m + 1):
        dead[j] |= dead[j - 1]
    out: list[int] = []
    # Frames: next edge to decide, matching, edges blocked by the matching,
    # and excluded edges not yet blocked. The include branch is pushed last,
    # so it is expanded first and matchings come out in lexicographic order.
    stack = [(0, 0, 0, 0)]
    while stack:
        i, mask, sat, pending = stack.pop()
        free = ~sat >> i
        j = i + (free & -free).bit_length() - 1  # first unblocked edge >= i, or m
        if pending & dead[j]:
            continue
        if j == m:
            if len(out) >= budget:
                raise BudgetExceededError(
                    f"more than {budget} maximal matchings; raise the budget to enumerate"
                )
            out.append(mask)
            continue
        if near[j] >> j > 1:
            stack.append((j + 1, mask, sat, pending | 1 << j))
        stack.append((j + 1, mask | 1 << j, sat | near[j], pending & ~near[j]))
    return out


def enumerate_maximal_matchings(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All maximal matchings of ``g`` as sorted edge-index tuples, in
    lexicographic order: :func:`maximal_matching_masks` spelled out."""
    return [mask_to_edges(mask) for mask in maximal_matching_masks(g, budget)]


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


def is_randomly_matchable(g: Graph, budget: int = DEFAULT_BUDGET) -> RandomlyMatchableVerdict:
    """Both views of "every maximal matching is perfect".

    The definitional verdict checks the enumerated matchings: all are perfect
    exactly when the smallest one is. The structural one asks every connected
    component to be an even complete graph or a balanced complete bipartite
    graph. The two agree on connected graphs.
    """
    definitional = 2 * summarize_matchings(g, budget).sat == g.n
    allowed = {COMPLETE_EVEN, BALANCED_COMPLETE_BIPARTITE}
    # A vertex with no edge is a component of neither kind, and skipping the
    # recognizer then keeps the cost independent of the declared vertex count.
    covered = len({v for edge in g.edges for v in edge})
    structural = covered == g.n and all(tag in allowed for tag in recognize_structure(g))
    return RandomlyMatchableVerdict(definitional=definitional, structural=structural)
