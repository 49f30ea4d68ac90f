"""Global forcing sets: verification, bounds, and the exact minimum search.

A set of edges is a global forcing set when no two maximal matchings have the
same intersection with it, i.e. when the chosen columns of the matchings/edges
incidence matrix keep all rows pairwise distinct. Finding a minimum one is a
minimum test cover, solved here by branch and bound over edge indices while
refining the partition of rows into classes that are still indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph
from .matchings import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    edge_neighbourhoods,
    edges_to_mask,
    mask_to_edges,
    maximal_matching_masks,
)

DEFAULT_NODE_LIMIT = 100_000_000
# Refuse instances whose search space is hopeless for an exact answer.
DEFAULT_MAX_EDGES = 40


@dataclass(frozen=True)
class ForcingResult:
    """A verified forcing set plus the bounds and search statistics behind it.

    ``optimal`` is set only when the exact search ran to completion, in which
    case ``size`` is the global forcing number and ``edges`` is the
    lexicographically smallest optimal set. ``lower_bound`` is ceil(log2 Ψ)
    from :func:`phi_greedy`; :func:`phi_exact` reports the larger of that and
    the swap-graph bound at the root.
    """

    edges: tuple[int, ...]
    size: int
    optimal: bool
    lower_bound: int
    greedy_size: int
    nodes: int

    def to_dict(self) -> dict[str, object]:
        return {
            "phi": self.size,
            "set": list(self.edges),
            "optimal": self.optimal,
            "lower": self.lower_bound,
            "greedy": self.greedy_size,
            "nodes": self.nodes,
        }


def is_global_forcing_set(g: Graph, edges: Iterable[int], budget: int = DEFAULT_BUDGET) -> bool:
    """True iff all maximal matchings intersect the edge set differently."""
    mask = edges_to_mask(g, edges)
    seen = set()
    for row in maximal_matching_masks(g, budget):
        proj = row & mask
        if proj in seen:
            return False
        seen.add(proj)
    return True


def _log2_ceil(count: int) -> int:
    return (count - 1).bit_length() if count > 1 else 0


def _column_masks(rows: list[int], m: int) -> list[int]:
    cols = [0] * m
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def _class_lower_bound(classes: list[int]) -> int:
    return _log2_ceil(max(map(int.bit_count, classes), default=0))


def _refine(classes: list[int], col: int) -> list[int]:
    out = []
    for cls in classes:
        inside = cls & col
        if inside == 0 or inside == cls:
            out.append(cls)
            continue
        rest = cls ^ inside
        if inside.bit_count() >= 2:
            out.append(inside)
        if rest.bit_count() >= 2:
            out.append(rest)
    return out


def _splits_some_class(col: int, classes: list[int]) -> bool:
    for cls in classes:
        inside = cls & col
        if inside and inside != cls:
            return True
    return False


def _swap_partners(rows: list[int], near: list[int]) -> list[int]:
    """nbr[e]: the edges f such that swapping e for f in some maximal matching
    gives another one. The two matchings differ in e and f alone, so every
    forcing set holds e or f. Only an edge sharing a vertex with e can take
    its place, so f is looked for in ``near[e]``."""
    nbr = [0] * len(near)
    present = set(rows)
    for row in rows:
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            base = row ^ low
            others = near[e] & ~row
            while others:
                f = others & -others
                others ^= f
                if base | f in present:
                    nbr[e] |= f
    return nbr


def _swap_matching_size(free: int, nbr: list[int]) -> int:
    """Size of a greedy matching of the swap graph on the ``free`` edges.
    Its swap pairs are disjoint and each needs an edge of its own."""
    size = 0
    while free:
        low = free & -free
        free ^= low
        partners = nbr[low.bit_length() - 1] & free
        if partners:
            free ^= partners & -partners
            size += 1
    return size


def _greedy_columns(cols: list[int], t: int) -> list[int]:
    """Pick the edge resolving the most still-identical row pairs until all
    t rows are distinct; ties go to the lowest edge index. A chosen edge
    splits no class afterwards, so its gain is 0 and it is never chosen
    twice."""
    # One class of all t rows, or none when a single row needs no test.
    classes = [(1 << t) - 1] if t > 1 else []
    chosen: list[int] = []
    while classes:
        best_j = -1
        best_gain = 0
        for j, col in enumerate(cols):
            gain = 0
            for cls in classes:
                a = (cls & col).bit_count()
                gain += a * (cls.bit_count() - a)
            if gain > best_gain:
                best_gain = gain
                best_j = j
        # Distinct rows always leave at least one splitting column.
        chosen.append(best_j)
        classes = _refine(classes, cols[best_j])
    return chosen


def phi_greedy(g: Graph, budget: int = DEFAULT_BUDGET) -> ForcingResult:
    """Greedy upper bound; the result is a verified forcing set, not optimal."""
    rows = maximal_matching_masks(g, budget)
    chosen = sorted(_greedy_columns(_column_masks(rows, g.m), len(rows)))
    return ForcingResult(
        edges=tuple(chosen),
        size=len(chosen),
        optimal=False,
        lower_bound=_log2_ceil(len(rows)),
        greedy_size=len(chosen),
        nodes=0,
    )


def phi_exact(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ForcingResult:
    """Exact global forcing number with the lexicographically smallest witness.

    One include-first depth-first branch and bound over edge indices, seeded
    by the greedy upper bound. A branch dies once its chosen count plus
    ceil(log2) of its largest unresolved row class exceeds the greedy size,
    or, once the search has found a set of its own, reaches the best size
    found. Include-first order visits sets of equal size in lexicographic
    order, so the first set found of the final size is the lexicographically
    smallest optimum. If the node limit is hit, the best set so far is
    returned with ``optimal=False``; it is still a verified forcing set.
    Graphs with more than ``DEFAULT_MAX_EDGES`` edges are refused before
    enumeration.

    A second bound comes from the swap graph: two maximal matchings that
    differ in exactly the edges e and f need e or f in every forcing set. An
    edge the search has passed over without choosing it is out for good, so
    its swap partners are forced; a branch that has passed over a forced
    edge dies. The rest of the swap graph adds a greedy matching, one edge
    per pair. ``lower_bound`` is the larger of ceil(log2 Ψ) and this bound
    at the root.
    """
    if node_limit < 1:
        raise ValueError(f"node_limit must be >= 1, got {node_limit}")
    if g.m > DEFAULT_MAX_EDGES:
        raise BudgetExceededError(
            f"graph has {g.m} edges; exact search is capped at {DEFAULT_MAX_EDGES}"
        )
    return _phi_exact_rows(maximal_matching_masks(g, budget), edge_neighbourhoods(g), node_limit)


def _phi_exact_rows(rows: list[int], near: list[int], node_limit: int) -> ForcingResult:
    """:func:`phi_exact` on the enumerated maximal matchings of a graph whose
    edges have the closed neighbourhoods ``near``."""
    t = len(rows)
    m = len(near)
    cols = _column_masks(rows, m)
    nbr = _swap_partners(rows, near)
    full = (1 << m) - 1
    greedy = _greedy_columns(cols, t)
    greedy_size = len(greedy)

    best_set = tuple(sorted(greedy))
    # A branch lives while its count plus lower bound stays below ``limit``.
    # Until the search finds a set itself, sets as large as the greedy one
    # stay wanted: one of them may be lexicographically smaller.
    limit = greedy_size + 1
    nodes = 0
    optimal = True
    # Frames: next edge to decide, unresolved row classes, an upper bound on
    # their class bound, the mask of chosen edges, and the swap partners of
    # the edges passed over. Bounds are tested on pop, since ``limit`` can
    # tighten while a frame waits. Refining never raises the class bound, so
    # a frame computes its own only when the inherited one could prune it.
    stack = [(0, [(1 << t) - 1] if t > 1 else [], _log2_ceil(t), 0, 0)]
    while stack:
        i, classes, class_bound, chosen, forced = stack.pop()
        size = chosen.bit_count()
        if size + class_bound >= limit:
            class_bound = _class_lower_bound(classes)
            if size + class_bound >= limit:
                continue
        if not classes:
            best_set = mask_to_edges(chosen)
            limit = size
            continue
        j = i
        while j < m and not _splits_some_class(cols[j], classes):
            forced |= nbr[j]
            j += 1
        if j == m:
            continue
        # Every edge below j that is not chosen is out for good.
        if forced & ((1 << j) - 1) & ~chosen:
            continue
        undecided = full >> j << j
        free = undecided & ~forced
        if size + (forced & undecided).bit_count() + _swap_matching_size(free, nbr) >= limit:
            continue
        nodes += 1
        if nodes > node_limit:
            optimal = False
            break
        stack.append((j + 1, classes, class_bound, chosen, forced | nbr[j]))
        refined = _refine(classes, cols[j])
        stack.append((j + 1, refined, class_bound, chosen | 1 << j, forced))
    return ForcingResult(
        edges=best_set,
        size=len(best_set),
        optimal=optimal,
        lower_bound=max(_log2_ceil(t), _swap_matching_size(full, nbr)),
        greedy_size=greedy_size,
        nodes=nodes,
    )
