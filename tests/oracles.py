"""Independent brute-force reference implementations for the test suite.

Nothing here reuses the package's enumeration, search or structure code
paths: matchings are checked straight from the definition over all edge
subsets or found by branching on vertices, minimum forcing sets come from
exhaustive subset search, and component tags from testing every vertex pair
and every equal split.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations

from matchforce import Graph, complete, complete_bipartite, corona_product, cycle, empty, path, star


def brute_maximal_masks(g: Graph) -> list[int]:
    """All maximal matchings by testing every edge subset, in the canonical
    order: lexicographic by sorted edge-index sequence."""
    m = g.m
    out = []
    for mask in range(1 << m):
        sat: set[int] = set()
        ok = True
        for i in range(m):
            if mask >> i & 1:
                u, v = g.edges[i]
                if u in sat or v in sat:
                    ok = False
                    break
                sat.add(u)
                sat.add(v)
        if not ok:
            continue
        maximal = True
        for j in range(m):
            if not (mask >> j & 1):
                u, v = g.edges[j]
                if u not in sat and v not in sat:
                    maximal = False
                    break
        if maximal:
            out.append(mask)
    return sorted(out, key=lambda mask: tuple(i for i in range(m) if mask >> i & 1))


def vertex_branch_maximal_masks(g: Graph) -> list[int]:
    """All maximal matchings by branching on vertices, in the canonical order.

    The lowest vertex that is still free and has a free neighbour is either
    matched to one of those neighbours or set aside for good, which leaves
    it unmatched. A vertex set aside next to another one leaves an edge no
    matching can cover, so that branch stops. Once no free vertex has a free
    neighbour, the matching is kept if it covers an endpoint of every edge.
    Unlike :func:`brute_maximal_masks` the work follows the number of
    matchings, not 2^m, and unlike the package it never orders the edges.
    """
    index = {frozenset(edge): i for i, edge in enumerate(g.edges)}
    adjacent: dict[int, list[int]] = {}
    for u, v in g.edges:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    out = []
    stack = [(frozenset(), frozenset(), 0)]
    while stack:
        matched, aside, mask = stack.pop()
        taken = matched | aside
        v = next(
            (x for x in sorted(adjacent) if x not in taken and any(y not in taken for y in adjacent[x])),
            None,
        )
        if v is None:
            if all(u in matched or w in matched for u, w in g.edges):
                out.append(mask)
            continue
        for w in adjacent[v]:
            if w not in taken:
                stack.append((matched | {v, w}, aside, mask | 1 << index[frozenset((v, w))]))
        if not any(y in aside for y in adjacent[v]):
            stack.append((matched, aside | {v}, mask))
    return sorted(out, key=lambda mask: tuple(i for i in range(g.m) if mask >> i & 1))


def degrees(g: Graph) -> list[int]:
    """Degree of every vertex, counted from the edge list."""
    out = [0] * g.n
    for u, v in g.edges:
        out[u] += 1
        out[v] += 1
    return out


def brute_structure(g: Graph) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """Connected components ordered by smallest member, and the tag of each,
    straight from the definitions.

    Components come from the transitive closure of the adjacency relation. A
    component is ``complete_even`` when it has an even number (>= 2) of
    vertices and every pair of them is adjacent; otherwise it is
    ``balanced_complete_bipartite`` when some split into two equal halves has
    every cross pair adjacent and no pair inside a half adjacent.
    """
    adj = {frozenset(e) for e in g.edges}
    reach = [[u == v or frozenset((u, v)) in adj for v in range(g.n)] for u in range(g.n)]
    for k in range(g.n):
        for u in range(g.n):
            if reach[u][k]:
                for v in range(g.n):
                    reach[u][v] = reach[u][v] or reach[k][v]
    comps = tuple(sorted({tuple(v for v in range(g.n) if reach[u][v]) for u in range(g.n)}))

    def joined(a: int, b: int) -> bool:
        return frozenset((a, b)) in adj

    tags = []
    for comp in comps:
        k = len(comp)
        if k >= 2 and k % 2 == 0 and all(joined(a, b) for a, b in combinations(comp, 2)):
            tags.append("complete_even")
            continue
        balanced = k >= 2 and k % 2 == 0 and any(
            all(joined(a, b) != ((a in half) == (b in half)) for a, b in combinations(comp, 2))
            for half in map(set, combinations(comp, k // 2))
        )
        tags.append("balanced_complete_bipartite" if balanced else "other")
    return comps, tuple(tags)


def projections_distinct(rows: list[int], cols_mask: int) -> bool:
    return len({row & cols_mask for row in rows}) == len(rows)


def brute_swap_pairs(rows: list[int]) -> list[tuple[int, int]]:
    """Every pair (a, b), a < b, of row indices whose rows differ in exactly
    two edges, found by comparing all pairs."""
    return [
        (a, b)
        for a, b in combinations(range(len(rows)), 2)
        if (rows[a] ^ rows[b]).bit_count() == 2
    ]


def brute_greedy(rows: list[int], m: int) -> list[int]:
    """The greedy test cover of distinct ``rows`` over edges 0..m-1, as its
    picks in order. Each step counts, for every edge, the pairs of rows that
    agree on the edges picked so far and differ on that edge, by comparing
    all pairs, and picks the edge with the largest count, the lowest one on
    a tie, until no two rows agree."""
    picked: list[int] = []
    seen = 0
    while True:
        agreeing = [(a, b) for a, b in combinations(rows, 2) if a & seen == b & seen]
        if not agreeing:
            return picked
        best, best_count = None, 0
        for e in range(m):
            count = sum(1 for a, b in agreeing if (a >> e & 1) != (b >> e & 1))
            if count > best_count:
                best, best_count = e, count
        assert best is not None, "two rows are equal"
        picked.append(best)
        seen |= 1 << best


def brute_exchange_supports(g: Graph, rows: list[int]) -> set[int]:
    """Every r ⊕ r′ over all pairs of rows that become equal once r drops a
    set T of its edges and r′ a set T′. A drop is one edge, or two edges
    with an edge of ``g`` between an end of one and an end of the other."""
    adj = {frozenset(e) for e in g.edges}

    def drops(row: int) -> set[int]:
        edges = [e for e in range(g.m) if row >> e & 1]
        out = {1 << e for e in edges}
        for e, f in combinations(edges, 2):
            if any(frozenset((a, b)) in adj for a in g.edges[e] for b in g.edges[f]):
                out.add(1 << e | 1 << f)
        return out

    rests = [{row ^ t for t in drops(row)} for row in rows]
    return {
        rows[a] ^ rows[b]
        for a, b in combinations(range(len(rows)), 2)
        if rests[a] & rests[b]
    }


def min_vertex_cover(rows: list[int]) -> int:
    """Vertex cover number τ of the swap graph: the edges are the edge pairs
    (e, f) in which two rows of :func:`brute_swap_pairs` differ, and a cover
    is found by branching on the two ends of an uncovered pair."""
    pairs = {rows[a] ^ rows[b] for a, b in brute_swap_pairs(rows)}
    best = len(pairs)

    def branch(left: list[int], size: int) -> None:
        nonlocal best
        if size >= best:
            return
        if not left:
            best = size
            return
        pair = left[0]
        low = pair & -pair
        for end in (low, pair ^ low):
            branch([p for p in left if not p & end], size + 1)

    branch(sorted(pairs), 0)
    return best


def brute_min_forcing(g: Graph, rows: list[int]) -> tuple[int, tuple[int, ...]]:
    """Smallest forcing set by exhaustive search; first hit in lexicographic
    subset order, which is also the lexicographically smallest witness."""
    for k in range(g.m + 1):
        for cols in combinations(range(g.m), k):
            mask = 0
            for c in cols:
                mask |= 1 << c
            if projections_distinct(rows, mask):
                return k, cols
    raise AssertionError("rows are distinct, so the full edge set always works")


def brute_max_packing(supports: list[int]) -> int:
    """The most supports that are pairwise disjoint, by testing every subset
    from the largest size down."""
    for k in range(len(supports), 0, -1):
        for group in combinations(supports, k):
            if all(not a & b for a, b in combinations(group, 2)):
                return k
    return 0


def list_packing(supports: list[int], j: int) -> tuple[int, int]:
    """Greedily pack the supports, cut to the edges from j on, into disjoint
    sets in the given order, passing over the list of every support. Returns
    the packed count, or -1 when a cut support is empty, and the union of the
    cut supports shifted down by j."""
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


def list_min_hitting_set(supports: list[int], node_limit: int) -> tuple[int | None, int]:
    """The include-first hitting-set search with each frame's unhit supports
    held as a list, as the package ran it before its supports became bits
    of a mask: the lexicographically smallest minimum hitting set as an edge
    mask, or None once ``node_limit`` nodes run out, and the nodes spent.
    Its answers and node counts are the reference for the mask search."""
    best = None
    nodes = 0
    limit = len(supports) + 1
    stack = [(0, 0, supports)]
    while stack:
        j, chosen, unhit = stack.pop()
        size = chosen.bit_count()
        packed, union = list_packing(unhit, j)
        if packed < 0 or size + packed >= limit:
            continue
        if not unhit:
            best = chosen
            limit = size
            continue
        j += (union & -union).bit_length() - 1
        nodes += 1
        if nodes > node_limit:
            return None, nodes
        bit = 1 << j
        stack.append((j + 1, chosen, unhit))
        stack.append((j + 1, chosen | bit, [s for s in unhit if not s & bit]))
    return best, nodes


def brute_ilp_constraints(
    rows: list[int], dedup: bool
) -> list[tuple[tuple[int, int], tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """The covering constraints as ``(label, columns, pairs)``, grouped pair
    by pair: every row pair (i, j), i < j, in lexicographic order, joins the
    group of its column support (with ``dedup``) or forms its own. Groups
    come in first-seen order and are labeled by their first pair."""
    groups: dict[object, list[tuple[int, int]]] = {}
    for i, j in combinations(range(len(rows)), 2):
        key = rows[i] ^ rows[j] if dedup else (i, j)
        groups.setdefault(key, []).append((i, j))
    out = []
    for pairs in groups.values():
        i, j = pairs[0]
        diff = rows[i] ^ rows[j]
        columns = tuple(c for c in range(diff.bit_length()) if diff >> c & 1)
        out.append((pairs[0], columns, tuple(pairs)))
    return out


def reference_lp(num_edges: int, rows: list[int], dedup: bool) -> str:
    """The LP text of the covering model, written line by line from
    :func:`brute_ilp_constraints`: variables x1..x<num_edges>, one constraint
    per group, named by its 1-based label."""
    names = [f"x{k}" for k in range(1, num_edges + 1)]
    out = ["Minimize", " obj: " + " + ".join(names) if names else " obj:", "Subject To"]
    for (i, j), columns, _ in brute_ilp_constraints(rows, dedup):
        out.append(f" c{i + 1}_{j + 1}: " + " + ".join(names[e] for e in columns) + " >= 1")
    out.append("Binary")
    out.extend(" " + name for name in names)
    out.append("End")
    return "".join(line + "\n" for line in out)


def _copy_rows(h: Graph) -> tuple[list[int], list[int]]:
    """The maximal matchings of H, and those of every H − u, u over the
    vertices of H: a copy's matchings when its spine vertex is covered by a
    spine edge, and when it takes a join edge to u."""
    # H − u keeps u as an isolated vertex, which changes no matching.
    joined = [
        row
        for u in range(h.n)
        for row in brute_maximal_masks(Graph(h.n, tuple(e for e in h.edges if u not in e)))
    ]
    return brute_maximal_masks(h), joined


def _copy_counts(h: Graph) -> tuple[int, int, int]:
    """Ψ(H), a = Σ_u Ψ(H − u) and b, the perfect matchings of H: the weights
    of a covered, a joined and a free spine vertex in :func:`corona_psi`."""
    h_rows, joined = _copy_rows(h)
    b = sum(1 for row in h_rows if 2 * row.bit_count() == h.n)
    return len(h_rows), len(joined), b


def corona_psi(g: Graph, h: Graph) -> int:
    """Ψ(G∘H) from the factors, without building or enumerating the corona.

    A maximal matching of G∘H restricts to some matching M of G. Each spine
    vertex M covers needs a maximal matching of its copy of H: Ψ(H) choices.
    Each spine vertex v in the set U that M leaves free either takes a join
    edge to copy vertex u, with H − u then maximally matched (a = Σ_u Ψ(H − u)
    choices), or stays free with its copy perfectly matched (b choices, the
    perfect matchings of H). The free ones form an independent set I of G, so

        Ψ(G∘H) = Σ_M Ψ(H)^(2|M|) · Σ_{I ⊆ U independent} a^(|U|−|I|) · b^|I|.

    Factor counts come from :func:`brute_maximal_masks` and the matchings of
    G from all edge subsets, so nothing is shared with the enumerator.
    """
    psi_h, a, b = _copy_counts(h)
    adjacent = [0] * g.n
    for u, v in g.edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    total = 0
    for subset in range(1 << g.m):
        covered = 0
        for i in range(g.m):
            if subset >> i & 1:
                u, v = g.edges[i]
                if covered >> u & 1 or covered >> v & 1:
                    break
                covered |= 1 << u | 1 << v
        else:
            free = [v for v in range(g.n) if not covered >> v & 1]
            inner = 0
            for pick in range(1 << len(free)):
                chosen = [v for i, v in enumerate(free) if pick >> i & 1]
                mask = sum(1 << v for v in chosen)
                if not any(adjacent[v] & mask for v in chosen):
                    inner += a ** (len(free) - len(chosen)) * b ** len(chosen)
            total += psi_h ** (2 * subset.bit_count()) * inner
    return total


def _path_transfer(n: int, add, mul, zero, one, closed, joined, free):
    """The transfer matrix along the spine 0 − 1 − … − (n − 1), over the
    semiring (``add``, ``mul``) with identities ``zero`` and ``one``.

    After spine vertex i the partial sum is split by what i does: it opens a
    matching edge to i + 1 (``opened``), it is a free vertex of I
    (``aside``), or it is covered by the edge from i − 1 or by a join edge
    (``done``). An edge of M weighs ``closed`` when it closes, a join edge
    ``joined`` and a vertex of I ``free``; no two vertices of I are
    neighbours.
    """
    opened, aside, done = zero, zero, one
    for _ in range(n):
        opened, aside, done = (
            add(aside, done),
            mul(free, done),
            add(mul(joined, add(aside, done)), mul(closed, opened)),
        )
    return add(aside, done)


def path_corona_psi(n: int, h: Graph) -> int:
    """Ψ(P_n∘H) by a transfer matrix along the spine.

    It sums the terms of :func:`corona_psi` vertex by vertex, in n steps
    instead of 2^(n − 1) · 2^n: an edge of M weighs Ψ(H)², a join edge
    Σ_u Ψ(H − u) and a free vertex the perfect matchings of H.
    """
    psi_h, a, b = _copy_counts(h)
    return _path_transfer(n, operator.add, operator.mul, 0, 1, psi_h**2, a, b)


def path_corona_nu_sat(n: int, h: Graph) -> tuple[int, int]:
    """ν and s of P_n∘H: the transfer matrix of :func:`path_corona_psi` over
    (max, +) and over (min, +).

    An edge of M weighs 1 plus the largest (smallest) maximal matchings of
    its two copies of H, a join edge to u 1 plus that of H − u, and a free
    spine vertex the n_H / 2 edges of a perfect matching of its copy, which
    rules it out when H has none.
    """
    h_rows, joined = _copy_rows(h)
    h_sizes = [row.bit_count() for row in h_rows]
    joined_sizes = [row.bit_count() for row in joined]
    has_perfect = 2 * max(h_sizes) == h.n
    out = []
    for best, unreachable in ((max, -math.inf), (min, math.inf)):
        free = h.n // 2 if has_perfect else unreachable
        closed, join = 1 + 2 * best(h_sizes), 1 + best(joined_sizes)
        out.append(_path_transfer(n, best, operator.add, unreachable, 0, closed, join, free))
    return out[0], out[1]


def small_instances(max_edges: int = 8) -> list[tuple[str, Graph]]:
    """Generator-family graphs and small coronas with at most max_edges edges."""
    named: list[tuple[str, Graph]] = []
    named.extend((f"P{n}", path(n)) for n in range(2, 8))
    named.extend((f"C{n}", cycle(n)) for n in range(3, 9))
    named.extend((f"K{n}", complete(n)) for n in range(2, 5))
    named.append(("K2,2", complete_bipartite(2, 2)))
    named.append(("K2,3", complete_bipartite(2, 3)))
    named.extend((f"S{n}", star(n)) for n in range(3, 6))
    named.extend((f"E{n}", empty(n)) for n in (1, 2))
    if max_edges >= 9:
        named.append(("K3,3", complete_bipartite(3, 3)))
    coronas = [
        ("K2oK1", complete(2), complete(1)),
        ("K1oK2", complete(1), complete(2)),
        ("K1oK3", complete(1), complete(3)),
        ("K3oK1", complete(3), complete(1)),
        ("P3oK1", path(3), complete(1)),
        ("K1oP3", complete(1), path(3)),
        ("K2oK2", complete(2), complete(2)),
        ("C3oK1", cycle(3), complete(1)),
        ("K1oC4", complete(1), cycle(4)),
        ("P4oK1", path(4), complete(1)),
        ("P3oK2", path(3), complete(2)),
    ]
    named.extend((name, corona_product(g, h).graph) for name, g, h in coronas)
    return [(name, g) for name, g in named if g.m <= max_edges]
