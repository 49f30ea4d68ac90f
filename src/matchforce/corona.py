"""Corona products with a deterministic vertex layout and labeled edge partition."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph, GraphError

EG = "EG"
EH = "EH"
EGH = "EGH"


@dataclass(frozen=True)
class CoronaGraph:
    """The corona of two factors together with its three-way edge partition.

    The product keeps one copy of the first factor (the spine) and attaches a
    fresh copy of the second factor to every spine vertex, joining that vertex
    to all vertices of its copy. Edge indices are grouped: the spine edges
    first, then each copy's internal edges, then each copy's join edges, so
    partition membership is reproducible across runs.

    Copy indices in ``part_eh``/``part_egh``/``copy_vertices`` are 0-based;
    :func:`partition_of_edge` reports the conventional 1-based copy number.
    """

    graph: Graph
    h_factor: Graph
    g_vertices: tuple[int, ...]
    copy_vertices: tuple[tuple[int, ...], ...]
    part_eg: tuple[int, ...]
    part_eh: tuple[tuple[int, ...], ...]
    part_egh: tuple[tuple[int, ...], ...]


def corona_product(g: Graph, h: Graph) -> CoronaGraph:
    """Build the corona of ``g`` and ``h``.

    Layout: spine vertex i keeps index i; vertex j of copy i gets index
    ``n(g) + i*n(h) + j``. The second factor may be edgeless; the first needs
    at least one vertex.
    """
    if g.n < 1:
        raise GraphError("corona product needs a first factor with at least one vertex")
    ng, nh = g.n, h.n
    spine = tuple(range(ng))
    copies = tuple(tuple(ng + i * nh + j for j in range(nh)) for i in range(ng))

    edges: list[tuple[int, int]] = list(g.edges)
    part_eg = tuple(range(len(g.edges)))
    part_eh: list[tuple[int, ...]] = []
    for i in range(ng):
        start = len(edges)
        edges.extend((copies[i][u], copies[i][v]) for u, v in h.edges)
        part_eh.append(tuple(range(start, len(edges))))
    part_egh: list[tuple[int, ...]] = []
    for i in range(ng):
        start = len(edges)
        edges.extend((i, copies[i][j]) for j in range(nh))
        part_egh.append(tuple(range(start, len(edges))))

    product = Graph(n=ng * (1 + nh), edges=tuple(edges))
    return CoronaGraph(
        graph=product,
        h_factor=h,
        g_vertices=spine,
        copy_vertices=copies,
        part_eg=part_eg,
        part_eh=tuple(part_eh),
        part_egh=tuple(part_egh),
    )


def partition_of_edge(cg: CoronaGraph, e: int) -> tuple[str, int | None]:
    """Locate edge ``e`` in the partition.

    Returns ``("EG", None)`` for spine edges, ``("EH", i)`` or ``("EGH", i)``
    with the 1-based copy number otherwise.
    """
    m = cg.graph.m
    if not 0 <= e < m:
        raise IndexError(f"edge index {e} out of range for graph with {m} edges")
    mg = len(cg.part_eg)
    mh = cg.h_factor.m
    nh = cg.h_factor.n
    if e < mg:
        return (EG, None)
    if mh and e < mg + len(cg.part_eh) * mh:
        return (EH, (e - mg) // mh + 1)
    offset = e - mg - len(cg.part_eh) * mh
    return (EGH, offset // nh + 1)


def partition_to_json(cg: CoronaGraph) -> str:
    """Serialize the edge partition as the sidecar JSON text."""
    obj = {
        "EG": list(cg.part_eg),
        "EH": [list(copy) for copy in cg.part_eh],
        "EGH": [list(copy) for copy in cg.part_egh],
    }
    return json.dumps(obj) + "\n"


def partition_from_json(text: str) -> dict[str, object]:
    """Parse a sidecar back into index tuples keyed EG, EH, EGH."""
    obj = json.loads(text)
    missing = {"EG", "EH", "EGH"} - set(obj)
    if missing:
        raise GraphError(f"partition sidecar missing keys: {sorted(missing)}")
    return {
        "EG": tuple(int(e) for e in obj["EG"]),
        "EH": tuple(tuple(int(e) for e in copy) for copy in obj["EH"]),
        "EGH": tuple(tuple(int(e) for e in copy) for copy in obj["EGH"]),
    }
