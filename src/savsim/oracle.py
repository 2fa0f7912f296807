"""Independent cross-check for stop-to-stop distances.

Builds an augmented graph in which every stop becomes a real vertex splitting
its host edge into two directed pieces, then runs a plain Dijkstra between
stop vertices.  Because the construction preserves edge direction, it
naturally reproduces both the downstream same-edge hop and the loop back for
an upstream stop, without encoding the traversal rule itself.  Deliberately
shares no routing code with :mod:`savsim.netgraph`.

The split graph is built once; then each origin stop's Dijkstra runs, and its
row of distances is compared (or stored) before the next origin's starts, so
:func:`check_table` holds one search and one row at a time: its memory grows
with the graph and the stops, not with the stop pairs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator

from .netgraph import RoadGraph, Stop, StopDistanceTable

TOL = 1e-9   # meters a table entry may differ from the oracle's


def _augmented_adjacency(graph: RoadGraph, stops: list[Stop]):
    """Adjacency of the split graph plus the node each stop maps to.

    Stops at the exact same (edge, slack) collapse onto one node, so the
    distance between them is zero in both directions.
    """
    by_edge: dict[int, list[Stop]] = {}
    for s in stops:
        by_edge.setdefault(s.edge, []).append(s)

    adj: dict[object, list[tuple[object, float]]] = {}
    node_of: dict[int, object] = {}

    def link(a: object, b: object, w: float) -> None:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, [])

    for e in graph.edges():
        src = ("v", e.source)
        dst = ("v", e.sink)
        hosted = sorted(by_edge.get(e.id, []), key=lambda s: (s.slack, s.id))
        prev, prev_pos = src, 0.0
        i = 0
        while i < len(hosted):
            j = i
            while j < len(hosted) and hosted[j].slack == hosted[i].slack:
                j += 1
            node = ("s", hosted[i].id)
            for s in hosted[i:j]:
                node_of[s.id] = node
            link(prev, node, hosted[i].slack - prev_pos)
            prev, prev_pos = node, hosted[i].slack
            i = j
        link(prev, dst, e.length - prev_pos)
    return adj, node_of


def _dijkstra(adj, source) -> dict:
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    order = 0
    done = set()
    while heap:
        d, _, v = heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, w in adj.get(v, ()):
            nd = d + w
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                order += 1
                heappush(heap, (nd, order, u))
    return dist


def _stop_rows(graph: RoadGraph, stops: list[Stop]) -> Iterator[tuple[int, list[tuple[int, float]]]]:
    """Each origin stop's id and its ``(dest id, distance)`` row to every other stop, both in ``stops`` order."""
    adj, node_of = _augmented_adjacency(graph, stops)
    for origin in stops:
        dist = _dijkstra(adj, node_of[origin.id])
        yield origin.id, [(dest.id, dist[node_of[dest.id]]) for dest in stops if dest.id != origin.id]


def split_stop_distances(graph: RoadGraph) -> dict[tuple[int, int], float]:
    """All ordered pairs of the graph's stops and their distances on the split graph."""
    return {(a, b): d for a, row in _stop_rows(graph, list(graph.stops())) for b, d in row}


def check_table(graph: RoadGraph, table: StopDistanceTable) -> list[tuple[int, int, float, float]]:
    """Compare a distance table against the split-graph distances, one origin stop at a time.

    Returns mismatching entries as (origin, dest, table_distance,
    oracle_distance), in (origin, dest) id order; empty means agreement
    within ``TOL``.  An entry is reported unless it is within ``TOL``, so a
    NaN on either side is a mismatch.
    """
    stops = [graph.stop(sid) for sid in table.stop_ids()]
    bad = []
    for a, row in _stop_rows(graph, stops):
        for b, expected in row:
            got = table.distance(a, b)
            if not abs(got - expected) <= TOL:
                bad.append((a, b, got, expected))
    return bad
