"""Maximal matchings by one exhaustive search in edge-index order, and by a
pass over merged search states that counts them and, past 24 edges, lists
them. :func:`_merge_states` is the one entry into that pass; a pass whose
states outgrow their limit hands the graph to the search.

A maximal matching is held only as an integer bitmask over edge indices: one
row of the matchings/edges incidence matrix. The enumeration, the forcing-set
search and the ILP export all work on that list of rows.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import (
    BALANCED_COMPLETE_BIPARTITE,
    COMPLETE_EVEN,
    Graph,
    _neighbours,
    recognize_structure,
)

# Enumeration hard stop: the count of maximal matchings grows exponentially,
# and downstream exact computations need the complete set, so overflowing the
# budget is an error rather than a truncation.
DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The instance is beyond the configured enumeration or search budget."""


def _over_budget(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"more than {budget} maximal matchings; raise the budget to enumerate")


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


def _row_bytes(rows: Iterable[int], m: int) -> tuple[bytes, int]:
    """The rows' joined little-endian bytes, and the bytes per row: edge e
    of every row is bit e & 7 of byte column e >> 3. Rows of at most 64
    edges are packed by one ``array("Q")`` at 8 bytes a row; wider rows
    are joined from one ``int.to_bytes`` each."""
    if m <= 64:
        packed = array("Q", rows)
        if sys.byteorder == "big":
            packed.byteswap()
        return packed.tobytes(), 8
    width = (m + 7) >> 3
    return b"".join(map(int.to_bytes, rows, repeat(width), repeat("little"))), width


def mask_renderer(names: list[str], sep: str) -> Callable[[Iterable[int]], Iterator[str]]:
    """A function giving, for each of a batch of masks, the ``sep``-joined
    names of its set bits, bit k named ``names[k]``. Byte column k of the
    masks' :func:`_row_bytes` is read through one table of names."""
    # Table k maps each value of byte k to ``sep`` before each name it sets;
    # a row joins its columns' texts less the first ``sep``. An edgeless
    # graph still has one table, for the zero byte 0 of each mask.
    tables = []
    for k in range(0, len(names) or 1, 8):
        table = [""]
        for name in names[k : k + 8]:
            # Values with this (highest so far) bit set end with its name.
            table += [f"{text}{sep}{name}" for text in table]
        tables.append(table)

    def render(masks: Iterable[int]) -> Iterator[str]:
        blob, width = _row_bytes(masks, len(names))
        columns = [map(table.__getitem__, blob[k::width]) for k, table in enumerate(tables)]
        return map(str.removeprefix, map("".join, zip(*columns)), repeat(sep))

    return render


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


# Up to this many edges _search lists the matchings; above it the states of
# _merge_states are expanded, unless they pass half the budget. On 90
# coronas (Python 3.11, one Xeon core) the state listing took 2.0-6.5x the
# search's time up to 18 edges, 0.7-1.5x from 19 to 24 and 0.26-0.65x from
# 25 to 34 (medians per edge count), and 5.2x in sum on 1,500 random graphs
# of at most 16 edges.
_RELABEL_ABOVE = 24


def _scan_order(g: Graph) -> list[int]:
    """The edges sorted by the Cuthill-McKee ranks of their endpoints,
    smaller rank first.

    The vertices are ranked breadth first, from each component's first
    vertex in edge-list order, and each vertex taken from the queue ranks its
    unranked neighbours by degree. Two edges that share a vertex then sit a
    few positions apart (at most 7 on every P_n o K3), where index order can
    leave them up to m positions apart.
    """
    nbrs = _neighbours(g)
    rank: dict[int, int] = {}
    for root in nbrs:
        if root in rank:
            continue
        rank[root] = len(rank)
        queue = [root]
        for u in queue:
            fresh = [w for w in nbrs[u] if w not in rank]
            fresh.sort(key=lambda w: len(nbrs[w]))
            for w in fresh:
                rank[w] = len(rank)
            queue += fresh
    ends = [sorted((rank[u], rank[v])) for u, v in g.edges]
    return sorted(range(g.m), key=ends.__getitem__)


def _scan_setup(edges: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """near[k], the positions of the edges sharing a vertex with edges[k], k
    included, as a bitmask over the sequence, and dead[j], the positions
    whose neighbours all lie below j: once a search reaches j, an excluded
    one that is still addable can never be blocked again. dead[m] holds
    every position."""
    incident: dict[int, int] = {}
    for k, (u, v) in enumerate(edges):
        incident[u] = incident.get(u, 0) | 1 << k
        incident[v] = incident.get(v, 0) | 1 << k
    near = [incident[u] | incident[v] for u, v in edges]
    dead = [0] * (len(edges) + 1)
    for k, nb in enumerate(near):
        dead[nb.bit_length()] |= 1 << k
    for j in range(1, len(dead)):
        dead[j] |= dead[j - 1]
    return near, dead


def _search(g: Graph, budget: int) -> list[int]:
    """All maximal matchings as bitmasks, in lexicographic order: each edge,
    in index order, is included before it is excluded, and a branch is
    dropped once an excluded edge can no longer be blocked."""
    near, dead = _scan_setup(g.edges)
    out: list[int] = []
    # Frames: the undecided edges no chosen edge blocks, the matching, and
    # the excluded edges not yet blocked. Each frame runs its include
    # branches in place and stacks its exclude branches.
    stack = [((1 << g.m) - 1, 0, 0)]
    while stack:
        todo, mask, pending = stack.pop()
        while True:
            low = todo & -todo
            j = low.bit_length() - 1  # -1 once todo is empty; dead[-1] holds every edge
            if pending & dead[j]:
                break
            if not todo:
                if len(out) >= budget:
                    raise _over_budget(budget)
                out.append(mask)
                break
            nb = near[j]
            # Excluding j is worth a branch only while a later edge can block it.
            if nb & todo != low:
                stack.append((todo ^ low, mask, pending | low))
            todo, mask, pending = todo & ~nb, mask | low, pending & ~nb
    return out


def maximal_matching_masks(g: Graph, budget: int = DEFAULT_BUDGET) -> list[int]:
    """All maximal matchings as bitmasks, in lexicographic order.

    Order is by the sorted edge-index sequence of each matching. Raises
    :class:`BudgetExceededError` exactly when more than ``budget`` matchings
    exist.

    Graphs of at most ``_RELABEL_ABOVE`` edges are listed by :func:`_search`.
    Larger ones are listed by expanding the kept states of
    :func:`_merge_states`, whose count checks the budget before any row
    exists; a pass whose kept states pass half the budget hands the graph to
    the search. The expansion builds each matching as a key in which edge e
    is bit e, the row itself, and bit 2m - 1 - e, its place in the order.
    Two distinct maximal matchings never contain one another, so the first
    in lexicographic order holds the lowest edge of their symmetric
    difference and has the larger key. Sorting the keys in descending order
    and clearing their top m bits gives the masks in order.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    scan = _merge_states(g, budget, keep=True) if g.m > _RELABEL_ABOVE else None
    if scan is None:
        return _search(g, budget)
    out = _expand_states(*scan)
    out.sort(reverse=True)
    # Clear the order bits 4,096 rows at a time, so one chunk is copied at once.
    row_bits = (1 << g.m) - 1
    for start in range(0, len(out), 4096):
        out[start : start + 4096] = map(row_bits.__and__, out[start : start + 4096])
    return out


def enumerate_maximal_matchings(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All maximal matchings of ``g`` as sorted edge-index tuples, in
    lexicographic order: :func:`maximal_matching_masks` spelled out."""
    return [mask_to_edges(mask) for mask in maximal_matching_masks(g, budget)]


def summarize_matchings(g: Graph, budget: int = DEFAULT_BUDGET) -> MatchingSummary:
    """Count the maximal matchings, and find nu, the saturation number and
    perfect-matching existence, without listing a matching.

    The figures come from the merged states of :func:`_merge_states`. On a
    scan that keeps neighbours close the states are few even when the count
    is exponential: 294 on P20 o K3, whose count is 38,166,342,053,346.

    Raises :class:`BudgetExceededError` exactly when more than ``budget``
    maximal matchings exist, as the listing does. A pass that reaches more
    than ``budget`` states gives up and summarizes :func:`_search` instead,
    so the budget bounds its work as it bounds the listing's.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    scan = _merge_states(g, budget, keep=False)
    if scan is None:
        return _summarize_masks(_search(g, budget), g.n)
    psi, sat, nu, _ = scan[3][g.m][0]
    return MatchingSummary(psi=psi, nu=nu, sat=sat, has_perfect=2 * nu == g.n)


def _children(state: int, j: int, near: list[int], dead: list[int]) -> list[tuple[int, int, int]]:
    """The live (level, state, 1 if j is included else 0) that deciding j leads to."""
    low = 1 << j
    nb = near[j]
    pending = state & (low - 1)
    todo = state ^ pending
    out = []
    free, waiting = todo & ~nb, pending & ~nb
    nxt = (free & -free).bit_length() - 1 if free else len(near)
    if not waiting & dead[nxt]:
        out.append((nxt, free | waiting, 1))
    # Exclude j only while a later edge can still block it.
    if nb & todo != low:
        todo, pending = todo ^ low, pending | low
        nxt = (todo & -todo).bit_length() - 1
        if not pending & dead[nxt]:
            out.append((nxt, todo | pending, 0))
    return out


def _merge_states(
    g: Graph, budget: int, keep: bool
) -> tuple[list[int], list[int], list[int], dict] | None:
    """The search of :func:`_search` on the :func:`_scan_order` of ``g``,
    with its frames merged into states, as (order, near, dead, levels) of
    :func:`_scan_setup` on that order. Raises :class:`BudgetExceededError`
    when more than ``budget`` maximal matchings exist, and gives None once
    the states outgrow their limit: ``budget``, or half of it when levels
    are kept, since a kept state weighs about two rows.

    Once position j is decided, what a frame can still become depends only
    on its undecided free positions (todo) and its excluded, still addable
    ones (pending), not on the edges it chose. levels[j] maps the states
    whose lowest undecided position is j (m once none is left), keyed by
    todo | pending, to [count, smallest size, largest size, parents]. Levels
    are dropped once expanded unless kept; every frame ends in levels[m][0].
    """
    order = _scan_order(g)
    near, dead = _scan_setup([g.edges[e] for e in order])
    m = g.m
    limit = budget // 2 if keep else budget
    levels = {0: {(1 << m) - 1: [1, 0, 0, 0]}}
    states = 1
    for j in range(m):
        for state, (count, lo, hi, _) in (levels.get(j, {}) if keep else levels.pop(j, {})).items():
            for nxt, child, took in _children(state, j, near, dead):
                into = levels.setdefault(nxt, {})
                seen = into.get(child)
                if seen is None:
                    states += 1
                    if states > limit:
                        return None
                    into[child] = [count, lo + took, hi + took, 1]
                else:
                    seen[0] += count
                    seen[1] = min(seen[1], lo + took)
                    seen[2] = max(seen[2], hi + took)
                    seen[3] += 1
    if levels[m][0][0] > budget:
        raise _over_budget(budget)
    return order, near, dead, levels


def _expand_states(order: list[int], near: list[int], dead: list[int], levels: dict) -> list[int]:
    """Every maximal matching of the kept ``levels`` as an OR of keys, edge
    e = order[j] at position j having key 2^(2m - 1 - e) + 2^e, built from
    the last position back; a list is dropped once its parents read it."""
    m = len(near)
    done = {(m, 0): [0]}
    for j in range(m - 1, -1, -1):
        key = 1 << (2 * m - 1 - order[j]) | 1 << order[j]
        for state in levels.get(j, ()):
            rows: list[int] = []
            for nxt, child, took in _children(state, j, near, dead):
                entry = levels[nxt][child]
                entry[3] -= 1
                tail = done[nxt, child] if entry[3] else done.pop((nxt, child))
                rows += [key | s for s in tail] if took else tail
            done[j, state] = rows
    return done[0, (1 << m) - 1]


def _summarize_masks(masks: list[int], n: int) -> MatchingSummary:
    """:func:`summarize_matchings` on the enumerated maximal matchings of an
    n-vertex graph."""
    nu = max(map(int.bit_count, masks))
    sat = min(map(int.bit_count, masks))
    return MatchingSummary(psi=len(masks), nu=nu, sat=sat, has_perfect=2 * nu == n)


def is_randomly_matchable(g: Graph, budget: int = DEFAULT_BUDGET) -> RandomlyMatchableVerdict:
    """Both views of "every maximal matching is perfect".

    The definitional verdict checks the maximal matchings: all are perfect
    exactly when the smallest one is, and :func:`summarize_matchings` gives
    its size without listing them. The structural one asks every connected
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
