"""Corona products with a deterministic vertex layout and labeled edge partition."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph, GraphError


@dataclass(frozen=True)
class CoronaGraph:
    """The corona of two factors together with its three-way edge partition.

    The product keeps one copy of the first factor (the spine) and attaches a
    fresh copy of the second factor to every spine vertex, joining that vertex
    to all vertices of its copy. Edge indices are grouped: the spine edges
    first, then each copy's internal edges, then each copy's join edges, so
    partition membership is reproducible across runs.

    ``part_eg`` lists the spine edges; ``part_eh[i]`` and ``part_egh[i]`` list
    the internal and join edges of copy i, counted from 0.
    """

    graph: Graph
    part_eg: tuple[int, ...]
    part_eh: tuple[tuple[int, ...], ...]
    part_egh: tuple[tuple[int, ...], ...]


def corona_product(g: Graph, h: Graph) -> CoronaGraph:
    """Build the corona of ``g`` and ``h``.

    Layout: spine vertex i keeps index i; vertex j of copy i gets index
    ``n(g) + i*n(h) + j``. Edge indices follow from the counts: copy i's
    internal edges start at ``m(g) + i*m(h)`` and its join edges at
    ``m(g) + n(g)*m(h) + i*n(h)``. The second factor may be edgeless; the
    first needs at least one vertex.
    """
    if g.n < 1:
        raise GraphError("corona product needs a first factor with at least one vertex")
    ng, nh, mg, mh = g.n, h.n, g.m, h.m
    edges = (
        *g.edges,
        *((ng + i * nh + u, ng + i * nh + v) for i in range(ng) for u, v in h.edges),
        *((i, ng + i * nh + j) for i in range(ng) for j in range(nh)),
    )
    join = mg + ng * mh
    return CoronaGraph(
        graph=Graph(n=ng * (1 + nh), edges=edges),
        part_eg=tuple(range(mg)),
        part_eh=tuple(tuple(range(mg + i * mh, mg + (i + 1) * mh)) for i in range(ng)),
        part_egh=tuple(tuple(range(join + i * nh, join + (i + 1) * nh)) for i in range(ng)),
    )


def partition_to_json(cg: CoronaGraph) -> str:
    """Serialize the edge partition as the sidecar JSON text."""
    obj = {
        "EG": list(cg.part_eg),
        "EH": [list(copy) for copy in cg.part_eh],
        "EGH": [list(copy) for copy in cg.part_egh],
    }
    return json.dumps(obj) + "\n"
