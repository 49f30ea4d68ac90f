"""Global forcing sets: verification, bounds, and the exact minimum search.

A set of edges is a global forcing set when no two maximal matchings have the
same intersection with it, i.e. when it meets the support r ⊕ r′ of every
pair of maximal matchings r, r′. A minimum one is a minimum hitting set of
the supports, the paper's ILP with one covering row per pair. It is solved
as an implicit hitting set (Moreno-Centeno & Karp, Oper. Res. 2013), which
adds a row only once an answer misses it. Round 1 holds the swap pairs,
found by one membership scan of the rows per pair of edges that share an
end; the first answer that misses supports also adds, once, the cheap
supports of short alternating paths and cycles, so fewer rounds re-solve.
The greedy set that ``phi`` reports splits classes of identical rows until
few pairs are left, then picks edges by counting those pairs' supports.
Rows and supports are read column by column from the bytes of
:func:`matchings._row_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, groupby, repeat, starmap
from operator import or_, xor
from typing import Iterable, Iterator

from .graph import Graph
from .matchings import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    _row_bytes,
    _scan_setup,
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
    a greedy packing of disjoint swap pairs and, when the node limit cut the
    search off, the size of the last round it solved in full. ``nodes``
    counts the branching nodes of the hitting-set searches, summed over all
    rounds.
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


# _BITS[k] maps a byte to its bit k as 0 or 1, and _DIGITS[k] to b"0" or b"1".
_BITS = [bytes(v >> k & 1 for v in range(256)) for k in range(8)]
_DIGITS = [bits.translate(b"01" + bytes(254)) for bits in _BITS]


def _column_masks(rows: list[int], m: int) -> list[int]:
    """cols[e] holds bit i when rows[i] holds edge e, for Ψ >= 1 rows.
    Byte column e >> 3 of the rows' bytes, last row first, reads as column
    e's binary digits."""
    blob, width = _row_bytes(reversed(rows), m)
    return [int(blob[e >> 3 :: width].translate(_DIGITS[e & 7]), 2) for e in range(m)]


def _swap_pairs(rows: list[int], near: list[int]) -> set[int]:
    """The swap pairs {e, f}: swapping e for f in some maximal matching r
    gives another one, so every forcing set holds e or f. f is blocked in
    r, and as r − e + f is a matching, by e alone: e and f share an end,
    so f is in ``near[e]`` from :func:`_scan_setup`. A pair e < f is kept
    once some row r with e has r ⊕ {e, f} among the rows; the rows with e
    are read from byte column e >> 3 of the rows' bytes."""
    blob, width = _row_bytes(rows, len(near))
    rowset = set(rows)
    pairs: set[int] = set()
    for e, nb in enumerate(near):
        later = nb >> e + 1 << e + 1
        if not later:
            continue
        with_e = list(compress(rows, blob[e >> 3 :: width].translate(_BITS[e & 7])))
        for f in mask_to_edges(later):
            pair = 1 << e | 1 << f
            if not rowset.isdisjoint(map(xor, with_e, repeat(pair))):
                pairs.add(pair)
    return pairs


def _exchanges(rows: list[int], near: list[int]) -> set[int]:
    """The supports r ⊕ r′ of two rows that are equal once r drops an edge
    set T and r′ a set T′, which seed the hitting set once. A drop is one
    edge x, or x and a later edge y that some edge joins, end to end, to x,
    so a support is an alternating path or cycle of at most 4 edges; the
    one-edge drops alone give the :func:`_swap_pairs`. Each row goes in one
    bucket per drop, keyed by the row without it; any two drops of one
    bucket give a support. A bucket holds its drops as bits, x at bit x and
    {x, y} at (x + 1)·m + y, so buckets with the same drops are expanded
    once. Two-edge drops only of joined edges keep the buckets near the
    swap pairs' own count."""
    m = len(near)
    # joined[x]: the edges sharing an end with x or with an edge that does,
    # from the masks of _scan_setup. No row holds x and one of the former.
    joined = [reduce(or_, (near[z] for z in mask_to_edges(nb)), 0) for nb in near]
    dropped: dict[int, int] = {}
    for row in rows:
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            dropped[row ^ low] = dropped.get(row ^ low, 0) | low
            pairs = rest & joined[low.bit_length() - 1]
            while pairs:
                high = pairs & -pairs
                pairs ^= high
                key = row ^ low ^ high
                drop = 1 << low.bit_length() * m + high.bit_length() - 1
                dropped[key] = dropped.get(key, 0) | drop
    supports: set[int] = set()
    for drops in set(dropped.values()):
        if drops & drops - 1:
            # Bit i is edge i % m, plus edge i // m - 1 when i >= m.
            sets = [1 << i % m | 1 << i // m >> 1 for i in mask_to_edges(drops)]
            supports.update(a ^ b for a, b in combinations(sets, 2))
    return supports


def _greedy_columns(rows: list[int], m: int) -> list[int]:
    """Pick the edge resolving the most still-identical pairs of the Ψ >= 1
    distinct ``rows`` until all are distinct; ties go to the lowest edge
    index. The class phase holds the classes of identical rows as masks over
    the rows and splits each by each live column, and as splitting classes
    only lowers a gain, an edge whose gain is 0 is dropped for good, a
    chosen one included. Once the still-identical pairs number at most twice
    classes × live columns, the pair phase lists their supports, transposes
    them once, and counts a gain as one popcount per edge."""
    cols = _column_masks(rows, m)
    t = len(rows)
    # The classes of two rows or more, with their sizes: at first one of all
    # t rows, or none when a single row needs no test.
    classes = [((1 << t) - 1, t)] if t > 1 else []
    live = list(enumerate(cols))
    chosen: list[int] = []
    # A class-phase pick costs classes × live Ψ-bit ANDs; the pair phase
    # lists every still-identical pair once, so it waits until they are few.
    while classes and sum(size * (size - 1) >> 1 for _, size in classes) > 2 * len(classes) * len(live):
        best_j, best_gain = -1, 0
        kept = []
        for j, col in live:
            gain = 0
            for cls, size in classes:
                a = (cls & col).bit_count()
                gain += a * (size - a)
            if gain:
                kept.append((j, col))
                if gain > best_gain:
                    best_j, best_gain = j, gain
        live = kept
        # Distinct rows always leave at least one splitting column.
        chosen.append(best_j)
        col = cols[best_j]
        parts = (part for cls, _ in classes for part in (cls & col, cls & ~col))
        classes = [(part, size) for part in parts if (size := part.bit_count()) > 1]
    if classes:
        # Rows agreeing on the chosen edges, grouped; each pair's support
        # holds exactly the edges that would resolve it.
        key = sum(1 << j for j in chosen).__and__
        groups = groupby(sorted(rows, key=key), key)
        supports = list(chain.from_iterable(starmap(xor, combinations(group, 2)) for _, group in groups))
        pcol = _column_masks(supports, m)
        alive = (1 << len(supports)) - 1
        while alive:
            gains = list(map(int.bit_count, map(alive.__and__, pcol)))
            j = gains.index(max(gains))
            chosen.append(j)
            alive &= ~pcol[j]
    return chosen


def phi_greedy(g: Graph, budget: int = DEFAULT_BUDGET) -> ForcingResult:
    """Greedy upper bound; the result is a verified forcing set, not optimal."""
    rows = maximal_matching_masks(g, budget)
    greedy = _greedy_set(rows, g.m)
    return ForcingResult(greedy, len(greedy), False, (len(rows) - 1).bit_length(), len(greedy), 0)


def _greedy_set(rows: list[int], m: int) -> tuple[int, ...]:
    """The sorted greedy forcing set of the Ψ >= 1 maximal matchings ``rows``."""
    return tuple(sorted(_greedy_columns(rows, m)))


def phi_exact(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ForcingResult:
    """Exact global forcing number with the lexicographically smallest witness.

    Each round solves the supports known so far, at first the swap pairs,
    one connected component at a time, by an include-first search over edge
    indices that is pruned by a greedy packing of disjoint unhit supports,
    held as one bitmask over the supports' indices. The packing takes the
    support whose last edge comes first, as interval scheduling does.
    It then adds the support of every pair of matchings that the union of
    the answers leaves indistinguishable; the first time there is one, it
    also adds every support of an alternating path or cycle of at most 4
    edges that :func:`_exchanges` finds. When there is none, the union
    forces, and as every support added is one and so each round solved a
    relaxation, it is the lexicographically smallest minimum forcing set.

    ``lower_bound`` is the larger of ceil(log2 Ψ) and the root packing. If
    the node limit, counted over all rounds, is hit, the greedy set is
    returned with ``optimal=False``, and ``lower_bound`` is also at least
    the size of the last round's answer solved in full: a minimum hitting
    set of a relaxation is no larger than φ. Graphs with more than
    ``DEFAULT_MAX_EDGES`` edges are refused before enumeration.
    """
    if node_limit < 1:
        raise ValueError(f"node_limit must be >= 1, got {node_limit}")
    if g.m > DEFAULT_MAX_EDGES:
        raise BudgetExceededError(
            f"graph has {g.m} edges; exact search is capped at {DEFAULT_MAX_EDGES}"
        )
    rows = maximal_matching_masks(g, budget)
    answer, bound, nodes = _min_forcing_set(rows, g, node_limit)
    greedy = _greedy_set(rows, g.m)
    edges = greedy if answer is None else mask_to_edges(answer)
    lower = max((len(rows) - 1).bit_length(), bound)
    return ForcingResult(edges, len(edges), answer is not None, lower, len(greedy), nodes)


def _min_forcing_set(rows: list[int], g: Graph, node_limit: int) -> tuple[int | None, int, int]:
    """For the maximal matchings ``rows`` of ``g``: their lexicographically
    smallest minimum forcing set as an edge mask, or None once
    ``node_limit`` nodes run out; a lower bound on its size, the packing
    of disjoint swap pairs read from round 1's indexes, or once the nodes
    run out the larger of that and the size of the last round's answer
    solved in full; the nodes over all rounds. Round 1 knows the
    :func:`_swap_pairs` alone. Each answer that misses supports adds them;
    the first also adds every support :func:`_exchanges` finds from the
    swap pass's ``near`` masks. Each round indexes each component once."""
    near = _scan_setup(g.edges)[0]
    supports = _swap_pairs(rows, near)
    indexes = [_index(part) for part in _components(supports)]
    # Packings of disjoint components add up.
    packing = sum(_packing((1 << len(keeps[0])) - 1, len(keeps[0]), keeps[0]) for _, keeps in indexes)
    nodes = 0
    seed = True
    solved = 0
    while True:
        answer = 0
        for index in indexes:
            hit, used = _min_hitting_set(index, node_limit - nodes)
            nodes += used
            if hit is None:
                # Each solved round solved a relaxation exactly.
                return None, max(packing, solved), nodes
            answer |= hit
        missed = set(_collisions(rows, answer))
        if not missed:
            return answer, packing, nodes
        solved = answer.bit_count()
        if seed:
            supports |= _exchanges(rows, near)
            seed = False
        supports |= missed
        indexes = [_index(part) for part in _components(supports)]


def _components(supports: set[int]) -> list[list[int]]:
    """The components of the support family, joined by shared edges: the
    supports of each in ascending integer order, that is by last edge, then
    by the next-highest edge. The packing takes them in that order, and a
    support cut to its edges from j on keeps its last edge, so the packing
    packs the one ending first, which is a maximum packing of intervals."""
    supports = sorted(supports)
    spans: list[int] = []
    for s in supports:
        joined = s
        for span in [span for span in spans if span & s]:
            spans.remove(span)
            joined |= span
        spans.append(joined)
    return [[s for s in supports if s & span] for span in spans]


def _index(supports: list[int]) -> tuple[list[int], list[list[int]]]:
    """Number one component's supports in order. ``cols[e]`` holds, as a
    mask over their indices, those with edge e. ``keeps[j][i]`` is ~ the
    supports meeting support i's edges from j on, for j up to one past the
    last edge: the unhit ones a packing keeps once it packs support i at
    position j, or -1, all of them, once support i has no edge from j on.
    The tables are copies of one running list, so they share its Σ|s|
    masks of len(supports) bits."""
    cols = _column_masks(supports, max(s.bit_length() for s in supports))
    keep = [-1] * len(supports)
    keeps = []
    for col in reversed(cols):
        keeps.append(keep.copy())
        drop = ~col
        for i in mask_to_edges(col):
            keep[i] &= drop
    keeps.append(keep)
    keeps.reverse()
    return cols, keeps


def _packing(unhit: int, cap: int, keep: list[int]) -> int:
    """Greedily pack the ``unhit`` supports, each with an edge from some
    position j on and cut to those edges, into disjoint sets in index order,
    and stop at ``cap``; each packed one needs a chosen edge of its own.
    ``keep`` is :func:`_index`'s table for j: the lowest unhit support is
    packed, and every one its cut meets is passed over. In the order of
    :func:`_components` that is the support whose last edge, which a cut
    keeps, comes first; on supports that are edge ranges this packs as
    many as any packing can."""
    count = 0
    while unhit and count < cap:
        unhit &= keep[(unhit & -unhit).bit_length() - 1]
        count += 1
    return count


def _min_hitting_set(index: tuple, node_limit: int) -> tuple[int | None, int]:
    """The lexicographically smallest minimum hitting set of the supports
    that :func:`_index` made ``index`` of, as an edge mask, and the nodes
    spent on it; None when ``node_limit`` nodes run out. A branch dies once
    its size plus the packing, run inline on ``keeps[j]`` and so by last
    edge first, reaches ``limit``, at first one more than a set of one edge
    per support, then the size of each set found, so include-first order
    finds that optimum first. An unhit support with no edge from j on
    needs no test of its own: nothing passes it over, so the packing runs
    out of room; in the order of :func:`_components` such supports come
    first, and the lowest unhit one's -1 entry ends the branch at once."""
    cols, keeps = index
    best = None
    nodes = 0
    limit = len(keeps[0]) + 1
    # Frames: next edge, chosen edges, unhit supports as a mask over their
    # indices. Bounds are tested on pop: ``limit`` can tighten as one waits.
    stack = [(0, 0, (1 << len(keeps[0])) - 1)]
    while stack:
        j, chosen, unhit = stack.pop()
        size = chosen.bit_count()
        room = limit - size
        if unhit:
            keep = keeps[j]
            if keep[(unhit & -unhit).bit_length() - 1] == -1:
                continue
            rest = unhit
            while rest and room > 0:
                rest &= keep[(rest & -rest).bit_length() - 1]
                room -= 1
        if room <= 0:
            continue
        if not unhit:
            best, limit = chosen, size
            continue
        # Pass over the edges that meet no unhit support: a set holding one
        # has a smaller subset that hits the same supports.
        while not cols[j] & unhit:
            j += 1
        nodes += 1
        if nodes > node_limit:
            return None, nodes
        stack += (j + 1, chosen, unhit), (j + 1, chosen | 1 << j, unhit & ~cols[j])
    return best, nodes
