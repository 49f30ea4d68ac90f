"""Global forcing sets: verification, bounds, and the exact minimum search.

A set of edges is a global forcing set when no two maximal matchings have the
same intersection with it, i.e. when it meets the support r ⊕ r′ of every
pair of maximal matchings r, r′. A minimum one is a minimum hitting set of
the supports, the paper's ILP with one covering row per pair. It is solved
as an implicit hitting set (Moreno-Centeno & Karp, Oper. Res. 2013), which
adds a row only once an answer misses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
    a greedy packing of disjoint swap pairs. ``nodes`` counts the branching
    nodes of the hitting-set searches, summed over all rounds.
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
    return next(_collisions(maximal_matching_masks(g, budget), mask), None) is None


def _collisions(rows: list[int], mask: int) -> Iterator[int]:
    """Project the distinct rows onto ``mask`` and yield r ⊕ r′ for each row
    r′ whose projection an earlier row r already has. The edge set forces
    exactly when nothing is yielded, and it misses every support yielded."""
    first: dict[int, int] = {}
    for row in rows:
        earlier = first.setdefault(row & mask, row)
        if earlier != row:
            yield earlier ^ row


def _column_masks(rows: list[int], m: int) -> list[int]:
    cols = [0] * m
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def _refine(classes: list[int], col: int) -> list[int]:
    """Split each class of rows by ``col``; keep the parts of two rows or more."""
    return [part for cls in classes for part in (cls & col, cls & ~col) if part.bit_count() > 1]


def _swap_pairs(rows: list[int], near: list[int]) -> set[int]:
    """The swap pairs {e, f} as edge masks: swapping e for f in some maximal
    matching gives another one. The two matchings differ in e and f alone,
    so every forcing set holds e or f. Only an edge sharing a vertex with e
    can take its place, so f is looked for in ``near[e]``."""
    pairs = set()
    present = set(rows)
    for row in rows:
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            others = near[low.bit_length() - 1] & ~row
            while others:
                f = others & -others
                others ^= f
                if row ^ low | f in present:
                    pairs.add(low | f)
    return pairs


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
    greedy = _greedy_set(rows, g.m)
    return ForcingResult(greedy, len(greedy), False, (len(rows) - 1).bit_length(), len(greedy), 0)


def _greedy_set(rows: list[int], m: int) -> tuple[int, ...]:
    """The sorted greedy forcing set of the Ψ >= 1 maximal matchings ``rows``."""
    return tuple(sorted(_greedy_columns(_column_masks(rows, m), len(rows))))


def phi_exact(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ForcingResult:
    """Exact global forcing number with the lexicographically smallest witness.

    Each round solves the supports known so far, at first the swap pairs,
    one connected component at a time, by an include-first search over edge
    indices that is pruned by a greedy packing of disjoint unhit supports.
    It then adds the support of every pair of matchings that the union of
    the answers leaves indistinguishable. When there is none, the union
    forces, and as each round solved a relaxation, it is the
    lexicographically smallest minimum forcing set.

    ``lower_bound`` is the larger of ceil(log2 Ψ) and the root packing. If
    the node limit, counted over all rounds, is hit, the greedy set is
    returned with ``optimal=False``. Graphs with more than
    ``DEFAULT_MAX_EDGES`` edges are refused before enumeration.
    """
    if node_limit < 1:
        raise ValueError(f"node_limit must be >= 1, got {node_limit}")
    if g.m > DEFAULT_MAX_EDGES:
        raise BudgetExceededError(
            f"graph has {g.m} edges; exact search is capped at {DEFAULT_MAX_EDGES}"
        )
    rows = maximal_matching_masks(g, budget)
    answer, packing, nodes = _min_forcing_set(rows, edge_neighbourhoods(g), node_limit)
    greedy = _greedy_set(rows, g.m)
    edges = greedy if answer is None else mask_to_edges(answer)
    lower = max((len(rows) - 1).bit_length(), packing)
    return ForcingResult(edges, len(edges), answer is not None, lower, len(greedy), nodes)


def _min_forcing_set(
    rows: list[int], near: list[int], node_limit: int
) -> tuple[int | None, int, int]:
    """For the maximal matchings ``rows`` of a graph whose edges have the
    closed neighbourhoods ``near``: their lexicographically smallest minimum
    forcing set as an edge mask, or None once ``node_limit`` nodes run out;
    the root packing of disjoint swap pairs; the nodes over all rounds."""
    supports = _swap_pairs(rows, near)
    parts = _components(supports)
    # Packings of disjoint components add up.
    packing = sum(_packing(part, 0)[0] for part in parts)
    nodes = 0
    while True:
        answer = 0
        for part in parts:
            hit, used = _min_hitting_set(part, node_limit - nodes)
            nodes += used
            if hit is None:
                return None, packing, nodes
            answer |= hit
        missed = set(_collisions(rows, answer))
        if not missed:
            return answer, packing, nodes
        supports |= missed
        parts = _components(supports)


def _components(supports: set[int]) -> list[list[int]]:
    """The components of the support family, joined by shared edges: the
    supports of each by size, then as sorted edge tuples. The packing takes
    them in that order, so swap pairs go by lowest edge, then lowest
    partner."""
    supports = sorted(supports, key=lambda s: (s.bit_count(), mask_to_edges(s)))
    spans: list[int] = []
    for s in supports:
        joined = s
        for span in [span for span in spans if span & s]:
            spans.remove(span)
            joined |= span
        spans.append(joined)
    return [[s for s in supports if s & span] for span in spans]


def _packing(supports: list[int], j: int) -> tuple[int, int]:
    """Greedily pack the supports, cut to the edges from j on, into disjoint
    sets in the given order; each packed one needs a chosen edge of its own.
    Returns the packed count, or -1 when a cut support is empty, and the
    union of the cut supports shifted down by j."""
    used = union = count = 0
    for s in supports:
        cut = s >> j
        if not cut:
            return -1, 0
        union |= cut
        if not cut & used:
            used |= cut
            count += 1
    return count, union


def _min_hitting_set(supports: list[int], node_limit: int) -> tuple[int | None, int]:
    """The lexicographically smallest minimum hitting set of ``supports``, as
    an edge mask, and the nodes spent on it; None when ``node_limit`` nodes
    run out. A branch dies once its size plus the packing reaches ``limit``,
    at first one more than a set of one edge per support, then the size of
    each set found, so include-first order finds that optimum first."""
    best = None
    nodes = 0
    limit = len(supports) + 1
    # Frames: next edge, chosen edges, unhit supports. Bounds are tested on
    # pop, since ``limit`` can tighten while a frame waits.
    stack = [(0, 0, supports)]
    while stack:
        j, chosen, unhit = stack.pop()
        size = chosen.bit_count()
        packed, union = _packing(unhit, j)
        if packed < 0 or size + packed >= limit:
            continue
        if not unhit:
            best = chosen
            limit = size
            continue
        # Pass over the edges that meet no unhit support: a set holding one
        # has a smaller subset that hits the same supports.
        j += (union & -union).bit_length() - 1
        nodes += 1
        if nodes > node_limit:
            return None, nodes
        bit = 1 << j
        stack.append((j + 1, chosen, unhit))
        stack.append((j + 1, chosen | bit, [s for s in unhit if not s & bit]))
    return best, nodes
