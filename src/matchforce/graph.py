"""Immutable simple graphs with stable edge indexing, text I/O, and named families."""

from __future__ import annotations

import sys
from dataclasses import dataclass


class GraphError(ValueError):
    """Malformed graph data: bad edge-list text or invalid family parameters."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Edges are an ordered list of unordered pairs; the position of an edge in
    ``edges`` is its index, fixed at construction. Every other operation in
    this package identifies edges by that index, so two runs over the same
    input always talk about the same edge.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {self.n}")
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        seen: set[tuple[int, int]] = set()
        for i, (u, v) in enumerate(edges):
            if u == v:
                raise GraphError(f"edge {i} is a self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {i} has endpoint out of range: ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge {key} at index {i}")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)


def read_ascii_int(token: str) -> int | None:
    """The value of ``token`` if it is a run of ASCII digits, else None.

    ``int()`` also reads other Unicode digits, ``_`` separators, a sign and
    surrounding spaces; none of them is a numeral here. A run longer than
    ``sys.get_int_max_str_digits()`` is None too, where ``int()`` raises. An
    interpreter without that getter has no such limit in ``int()`` either.
    """
    if not (token.isascii() and token.isdigit()):
        return None
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return None if limit and len(token) > limit else int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format into a :class:`Graph`.

    Format: an optional first line ``n <count>`` declares the vertex count
    (otherwise it is one past the largest vertex index); every other line is
    ``<u> <v>`` with 0-based integers. ``#`` starts a comment and blank lines
    are ignored. Counts and vertices go through :func:`read_ascii_int`, so
    ``+0`` is no vertex; ``-`` and digits, ``-0`` too, is a negative index.
    Errors carry the offending line number.
    """
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_data and tokens[0] == "n":
            declared_n = read_ascii_int(tokens[1]) if len(tokens) == 2 else None
            if declared_n is None:
                raise GraphError(f"line {lineno}: malformed header, expected 'n <count>'")
            saw_data = True
            continue
        saw_data = True
        if len(tokens) != 2:
            raise GraphError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        u, v = map(read_ascii_int, tokens)
        if u is None or v is None:
            if None in map(read_ascii_int, (t.removeprefix("-") for t in tokens)):
                raise GraphError(f"line {lineno}: non-integer vertex in {line!r}")
            raise GraphError(f"line {lineno}: negative vertex index in ({', '.join(tokens)})")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise GraphError(
                f"line {lineno}: vertex index out of range for declared n {declared_n}"
            )
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
    if declared_n is None:
        declared_n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return Graph(n=declared_n, edges=tuple(edges))


def serialize_edge_list(g: Graph) -> str:
    """Bit-exact edge-list text: header, then edges in index order."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


FAMILY_KINDS = ("path", "cycle", "complete", "complete_bipartite", "star", "empty")


@dataclass(frozen=True)
class GraphFamily:
    """A named graph family plus its integer parameters.

    ``a`` is the vertex count for every kind except ``complete_bipartite``,
    where ``(a, b)`` are the two part sizes.
    """

    kind: str
    a: int
    b: int | None = None


def family_order(family: GraphFamily) -> int:
    """The vertex count of ``generate(family)``, after the same checks, at no cost."""
    kind, a, b = family.kind, family.a, family.b
    if kind not in FAMILY_KINDS:
        raise GraphError(f"unknown family {kind!r}")
    if kind == "complete_bipartite":
        if b is None or a < 1 or b < 1:
            raise GraphError("complete_bipartite requires part sizes a, b >= 1")
        return a + b
    if b is not None:
        raise GraphError(f"family {kind!r} takes a single parameter")
    if a < 1:
        raise GraphError(f"family {kind!r} requires n >= 1, got {a}")
    if kind == "cycle" and a < 3:
        raise GraphError(f"cycle requires n >= 3, got {a}")
    return a


def generate(family: GraphFamily) -> Graph:
    """Build the graph of a family with deterministic vertex and edge order.

    Path and cycle edges come in walk order, complete-graph edges in
    lexicographic pair order, and complete bipartite graphs use parts
    ``{0..a-1}`` and ``{a..a+b-1}`` with lexicographic edges.
    """
    family_order(family)  # raises on bad parameters
    kind, a, b = family.kind, family.a, family.b
    if kind == "complete_bipartite":
        return Graph(n=a + b, edges=tuple((i, a + j) for i in range(a) for j in range(b)))
    if kind == "path":
        return Graph(n=a, edges=tuple((i, i + 1) for i in range(a - 1)))
    if kind == "cycle":
        return Graph(n=a, edges=tuple((i, (i + 1) % a) for i in range(a)))
    if kind == "complete":
        return Graph(n=a, edges=tuple((i, j) for i in range(a) for j in range(i + 1, a)))
    if kind == "star":
        return Graph(n=a, edges=tuple((0, i) for i in range(1, a)))
    return Graph(n=a, edges=())  # empty


def path(n: int) -> Graph:
    return generate(GraphFamily("path", n))


def cycle(n: int) -> Graph:
    return generate(GraphFamily("cycle", n))


def complete(n: int) -> Graph:
    return generate(GraphFamily("complete", n))


def complete_bipartite(a: int, b: int) -> Graph:
    return generate(GraphFamily("complete_bipartite", a, b))


def star(n: int) -> Graph:
    return generate(GraphFamily("star", n))


def empty(n: int) -> Graph:
    return generate(GraphFamily("empty", n))


# Compact-name prefix of each single-parameter family; "K<a>,<b>" names
# complete_bipartite.
_FAMILY_PREFIXES = {"path": "P", "cycle": "C", "complete": "K", "star": "S", "empty": "E"}


def parse_family_name(name: str) -> GraphFamily:
    """Parse compact names: K4, K2,3, P5, C6, S4, E3."""
    name = name.strip()
    if len(name) < 2:
        raise GraphError(f"cannot parse family name {name!r}")
    prefix, rest = name[0].upper(), name[1:]
    if prefix == "K" and "," in rest:
        a, b = map(read_ascii_int, rest.split(",", 1))
        if a is None or b is None:
            raise GraphError(f"cannot parse family name {name!r}")
        return GraphFamily("complete_bipartite", a, b)
    a = read_ascii_int(rest)
    if a is None:
        raise GraphError(f"cannot parse family name {name!r}")
    kinds = {p: kind for kind, p in _FAMILY_PREFIXES.items()}
    if prefix not in kinds:
        raise GraphError(f"unknown family prefix in {name!r}")
    return GraphFamily(kinds[prefix], a)


def family_label(family: GraphFamily) -> str:
    if family.kind == "complete_bipartite":
        return f"K{family.a},{family.b}"
    return f"{_FAMILY_PREFIXES[family.kind]}{family.a}"


def _neighbours(g: Graph) -> dict[int, list[int]]:
    """Vertex -> neighbours in edge-index order, for vertices with an edge."""
    out: dict[int, list[int]] = {}
    for u, v in g.edges:
        out.setdefault(u, []).append(v)
        out.setdefault(v, []).append(u)
    return out


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, ordered by smallest member."""
    return tuple(comp for comp, _ in _components(g.n, _neighbours(g)))


def _components(n: int, nbrs: dict[int, list[int]]) -> list[tuple[tuple[int, ...], bool]]:
    """Each component's sorted vertices and whether it is bipartite, found by
    one walk that 2-colours the component as it goes."""
    side: dict[int, int] = {}
    comps: list[tuple[tuple[int, ...], bool]] = []
    for start in range(n):
        if start not in nbrs:
            comps.append(((start,), True))
            continue
        if start in side:
            continue
        stack = [start]
        side[start] = 0
        comp = [start]
        bipartite = True
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    comp.append(w)
                    stack.append(w)
                elif side[w] == side[v]:
                    bipartite = False
        comps.append((tuple(sorted(comp)), bipartite))
    return comps


COMPLETE_EVEN = "complete_even"
BALANCED_COMPLETE_BIPARTITE = "balanced_complete_bipartite"
OTHER = "other"


def recognize_structure(g: Graph) -> tuple[str, ...]:
    """Classify each connected component.

    A component is ``complete_even`` when it is a complete graph on an even
    number (>= 2) of vertices, ``balanced_complete_bipartite`` when it is a
    complete bipartite graph with equal part sizes, and ``other`` otherwise.
    K2 qualifies as both and reports ``complete_even``.
    """
    nbrs = _neighbours(g)
    return tuple(_component_tag(nbrs, comp, bip) for comp, bip in _components(g.n, nbrs))


def _component_tag(nbrs: dict[int, list[int]], comp: tuple[int, ...], bipartite: bool) -> str:
    k = len(comp)
    if k < 2:
        return OTHER
    m_c = sum(len(nbrs[v]) for v in comp) // 2
    if k % 2 == 0 and m_c == k * (k - 1) // 2:
        return COMPLETE_EVEN
    # A bipartite graph on k vertices has at most k^2/4 edges, and only
    # K_{k/2,k/2} has that many.
    if bipartite and 4 * m_c == k * k:
        return BALANCED_COMPLETE_BIPARTITE
    return OTHER
