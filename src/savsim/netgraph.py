"""Road network model: a weighted directed graph with mid-edge stops.

Vertices are points in the plane, edges are one-way road segments weighted by
Euclidean length, and stops are pickup/dropoff locations pinned to an edge at a
slack distance from the edge's source vertex.  Stop-to-stop distances follow the
traversal rule: the vehicle finishes the origin stop's host edge, follows the
shortest path to the destination edge's source vertex, then drives the slack
into the destination edge.  Two stops on the same edge are a special case: the
downstream stop is reached directly, the upstream one requires looping around.

The stop table runs one reverse shortest-path search per distinct stop
host-edge source vertex.  Each search runs on dense vertex indices, settles
the vertices from buckets of distance half the shortest edge wide (Dial's
algorithm), and keeps two flat arrays: every vertex's distance to the root
and its next edge, the first exactly tight out-edge, kept as its place in
the vertex's out-list.  A distance from any position is then one lookup,
and the driven pieces of a leg are a walk along the next edges from the
vehicle to the root.  The table builds only graphs whose edge lengths are
finite, above 0 and total below 2**49 times the shortest, where the buckets
are proved correct; for any other it raises InvalidInputError naming an
edge.
Background-flow routes come from ``shortest_path`` instead, one forward
search per flow that stops at its destination.

All distances are meters, speeds meters/second.  Neither a graph nor a
``StopDistanceTable`` changes after construction.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from array import array
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from struct import pack
from typing import Iterator, Sequence

from .errors import ConfigurationError, ConsistencyError, InvalidInputError, NotFoundError
from .errors import read_section, record_dict, record_kinds

ZONES = ("peripheral_housing", "central_opportunity", "other")
_OUT_ORDER = attrgetter("sink", "id")


@dataclass(frozen=True, slots=True)
class Vertex:
    """A 2D point; intersections are vertices."""

    id: int
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class DirectedEdge:
    """A one-way road segment from ``source`` to ``sink``.

    ``length`` is stored rather than recomputed per query so non-Euclidean
    lengths could be supported later; validation checks it against the
    coordinates of its endpoints.
    """

    id: int
    source: int
    sink: int
    length: float
    free_flow_speed: float
    capacity_vehicles: int


@dataclass(frozen=True, slots=True)
class Stop:
    """A pickup/dropoff location ``slack`` meters along its host edge."""

    id: int
    edge: int
    slack: float
    zone: str


def edge_weight(source: Vertex, sink: Vertex) -> float:
    """Euclidean distance between two vertices.

    Raises InvalidInputError if either vertex has a non-finite coordinate.
    """
    for v in (source, sink):
        if not (math.isfinite(v.x) and math.isfinite(v.y)):
            raise InvalidInputError(f"vertex {v.id} has non-finite coordinates")
    return math.hypot(sink.x - source.x, sink.y - source.y)


class RoadGraph:
    """Directed road graph with a stop registry.

    ``add_*`` methods only enforce identifier uniqueness; semantic problems
    (dangling endpoints, self-loops, duplicate source/sink pairs, bad lengths,
    connectivity) are reported by :func:`validate_graph` so that loaders can
    surface every problem in a file at once.
    """

    def __init__(self) -> None:
        self._vertices: dict[int, Vertex] = {}
        self._edges: dict[int, DirectedEdge] = {}
        self._stops: dict[int, Stop] = {}
        self._out: dict[int, list[DirectedEdge]] = defaultdict(list)   # sorted by (sink, id)

    # construction -----------------------------------------------------

    def add_vertex(self, vertex_id: int, x: float, y: float) -> Vertex:
        if vertex_id in self._vertices:
            raise InvalidInputError(f"duplicate vertex id {vertex_id}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInputError(f"vertex {vertex_id} has non-finite coordinates")
        v = Vertex(vertex_id, float(x), float(y))
        self._vertices[vertex_id] = v
        return v

    def add_edge(
        self,
        edge_id: int,
        source: int,
        sink: int,
        free_flow_speed: float,
        capacity_vehicles: int,
        length: float | None = None,
    ) -> DirectedEdge:
        """Add an edge; ``length`` defaults to the Euclidean endpoint distance."""
        if edge_id in self._edges:
            raise InvalidInputError(f"duplicate edge id {edge_id}")
        if not 0 < free_flow_speed < math.inf:
            raise InvalidInputError(f"edge {edge_id}: free_flow_speed must be a finite number > 0")
        if capacity_vehicles < 1:
            raise InvalidInputError(f"edge {edge_id}: capacity_vehicles must be >= 1")
        if length is None:
            if source not in self._vertices or sink not in self._vertices:
                raise InvalidInputError(
                    f"edge {edge_id}: cannot derive length, endpoint missing"
                )
            length = edge_weight(self._vertices[source], self._vertices[sink])
        e = DirectedEdge(edge_id, source, sink, float(length), float(free_flow_speed), int(capacity_vehicles))
        self._edges[edge_id] = e
        insort(self._out[source], e, key=_OUT_ORDER)
        return e

    def place_stop(self, edge_id: int, slack: float, zone: str, stop_id: int | None = None) -> Stop:
        """Register a stop ``slack`` meters from the host edge's source vertex."""
        edge = self._edges.get(edge_id)
        if edge is None:
            raise NotFoundError(f"edge {edge_id} not in graph")
        if not 0.0 <= slack <= edge.length:
            raise InvalidInputError(
                f"slack {slack} outside [0, {edge.length}] on edge {edge_id}"
            )
        if zone not in ZONES:
            raise InvalidInputError(f"unknown zone {zone!r}")
        if stop_id is None:
            stop_id = max(self._stops, default=-1) + 1
        elif stop_id in self._stops:
            raise InvalidInputError(f"duplicate stop id {stop_id}")
        stop = Stop(int(stop_id), edge_id, float(slack), zone)
        self._stops[stop.id] = stop
        return stop

    # accessors ----------------------------------------------------------

    def vertex(self, vertex_id: int) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise NotFoundError(f"vertex {vertex_id} not in graph") from None

    def edge(self, edge_id: int) -> DirectedEdge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise NotFoundError(f"edge {edge_id} not in graph") from None

    def stop(self, stop_id: int) -> Stop:
        try:
            return self._stops[stop_id]
        except KeyError:
            raise NotFoundError(f"stop {stop_id} not in graph") from None

    def has_vertex(self, vertex_id: int) -> bool:
        return vertex_id in self._vertices

    def vertices(self) -> Iterator[Vertex]:
        for vid in sorted(self._vertices):
            yield self._vertices[vid]

    def edges(self) -> Iterator[DirectedEdge]:
        for eid in sorted(self._edges):
            yield self._edges[eid]

    def stops(self) -> Iterator[Stop]:
        for sid in sorted(self._stops):
            yield self._stops[sid]

    def out_edges(self, vertex_id: int) -> Sequence[DirectedEdge]:
        return self._out.get(vertex_id, ())

    def __len__(self) -> int:
        return len(self._vertices)


# validation -------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"{i.kind}: {i.message}" for i in self.issues)


def _reachable(adjacent: dict[int, list[int]], start: int) -> set[int]:
    """The vertices that ``start`` reaches along ``adjacent``'s lists, ``start`` included."""
    seen = {start}
    frontier = [start]
    while frontier:
        for u in adjacent.get(frontier.pop(), ()):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


_MAX_OUT_EDGES = 127   # the stop table keeps a next edge's place in its out-list as one signed byte


def _table_rule_issues(graph: RoadGraph) -> Iterator[ValidationIssue]:
    """The stop table's preconditions that ``graph`` breaks, in the order they are checked.

    Every vertex has at most 127 out-edges; every edge's length is finite
    and above 0, one issue per edge in id order, found by a scan (with a
    NaN length, ``min()`` depends on the order); and, when every length is,
    the bucket width, half the shortest, is above 0 and the lengths total
    below 2**50 widths, that is 2**49 times the shortest (see
    ``_distances_to``).  The total is summed in the table's order: by
    source vertex id, then out-list order.  ``StopDistanceTable`` raises the
    first issue's message, and ``validate_graph`` reports them all.
    """
    lengths = []
    for vid in sorted(graph._out):
        out = graph._out[vid]
        if len(out) > _MAX_OUT_EDGES:
            yield ValidationIssue("out_degree", f"vertex {vid} has {len(out)} out-edges;"
                                                f" the stop table takes at most {_MAX_OUT_EDGES}")
        lengths += [e.length for e in out]
    bad = [e for e in graph.edges() if not 0.0 < e.length < math.inf]
    for e in bad:
        yield ValidationIssue("edge_length", f"edge {e.id} has length {e.length};"
                                             " the stop table takes only finite lengths above 0")
    if lengths and not bad:
        width, total = min(lengths) / 2, sum(lengths)
        if not (0.0 < width and total < 2.0**50 * width):
            shortest = min(graph.edges(), key=attrgetter("length"))
            yield ValidationIssue("length_total", f"the edge lengths total {total}, not below 2**49 times"
                                                  f" the shortest, edge {shortest.id} of length {shortest.length}")


def validate_graph(graph: RoadGraph) -> ValidationReport:
    """Collect every structural violation in the graph.

    Checks dangling edge endpoints, self-loops, duplicate (source, sink)
    pairs, stored lengths that disagree with endpoint geometry, the stop
    table's rules (at most 127 out-edges per vertex, every length finite
    and above 0, which coincident endpoints or endpoints 2e308 apart break,
    and a total below 2**49 times the shortest edge; see
    ``_table_rule_issues``), and strong connectivity (reported once, with a
    witness unreachable pair), in that order.  A vertex with a non-finite coordinate, which only
    a vertex not added by ``add_vertex`` can have, raises InvalidInputError.

    One pass over the edges, in id order, finds the edge issues in that
    order and builds the forward and backward adjacency of the edges whose
    endpoints both exist, which the connectivity check walks.
    """
    vertices = graph._vertices
    edges = graph._edges
    issues: list[ValidationIssue] = []
    seen_pairs: dict[tuple[int, int], int] = {}
    forward: dict[int, list[int]] = defaultdict(list)
    backward: dict[int, list[int]] = defaultdict(list)
    vertex_ids = sorted(vertices)
    for vid in vertex_ids:
        v = vertices[vid]
        if not (math.isfinite(v.x) and math.isfinite(v.y)):
            raise InvalidInputError(f"vertex {v.id} has non-finite coordinates")
    for eid in sorted(edges):
        e = edges[eid]
        source = vertices.get(e.source)
        sink = vertices.get(e.sink)
        if source is None:
            issues.append(ValidationIssue(
                "dangling_endpoint", f"edge {e.id} references missing source vertex {e.source}",
            ))
        if sink is None:
            issues.append(ValidationIssue(
                "dangling_endpoint", f"edge {e.id} references missing sink vertex {e.sink}",
            ))
        if e.source == e.sink:
            issues.append(ValidationIssue(
                "self_loop", f"edge {e.id} is a self-loop at vertex {e.source}"
            ))
        pair = (e.source, e.sink)
        if pair in seen_pairs:
            issues.append(ValidationIssue(
                "duplicate_edge",
                f"edge {e.id} duplicates edge {seen_pairs[pair]} ({e.source}->{e.sink})",
            ))
        else:
            seen_pairs[pair] = e.id
        if source is not None and sink is not None:
            forward[e.source].append(e.sink)
            backward[e.sink].append(e.source)
            want = math.hypot(sink.x - source.x, sink.y - source.y)
            if not math.isclose(e.length, want, rel_tol=1e-9, abs_tol=1e-9):
                issues.append(ValidationIssue(
                    "length_mismatch",
                    f"edge {e.id} stored length {e.length} != endpoint distance {want}",
                ))
    issues += _table_rule_issues(graph)

    if len(vertex_ids) > 1:
        root = vertex_ids[0]
        fwd = _reachable(forward, root)
        witness = None
        for vid in vertex_ids:
            if vid not in fwd:
                witness = (root, vid)
                break
        if witness is None:
            bwd = _reachable(backward, root)
            for vid in vertex_ids:
                if vid not in bwd:
                    witness = (vid, root)
                    break
        if witness is not None:
            issues.append(ValidationIssue(
                "not_strongly_connected",
                f"no path from vertex {witness[0]} to vertex {witness[1]}",
            ))
    return ValidationReport(issues)


# shortest paths ----------------------------------------------------------

def shortest_path(
    graph: RoadGraph,
    from_vertex: int,
    to_vertex: int,
) -> tuple[tuple[int, ...], float]:
    """Minimum-weight edge sequence between two vertices, and its length.

    One forward Dijkstra whose heap entries are ``(distance, vertex
    sequence, edge ids)``; it returns the first entry popped at the target.
    Ties between equal-length paths go to the lexicographically smallest
    vertex-id sequence: with lengths above 0, two equal-distance sequences
    to one vertex are never prefixes of each other, so the order is stable
    under extension.  Each entry extends the one settled entry of its
    second-to-last vertex, so two entries tied on distance and sequence
    differ only in their last edge id, and the parallel edge with the
    smaller id wins.  Returns ``((), 0.0)`` when the endpoints coincide.
    """
    for vid in (from_vertex, to_vertex):
        if not graph.has_vertex(vid):
            raise NotFoundError(f"vertex {vid} not in graph")
    settled: set[int] = set()
    heap: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = [(0.0, (from_vertex,), ())]
    while heap:
        dist, seq, edges = heappop(heap)
        v = seq[-1]
        if v == to_vertex:
            return edges, dist
        if v in settled:
            continue
        settled.add(v)
        for e in graph.out_edges(v):
            if e.sink not in settled:
                heappush(heap, (dist + e.length, seq + (e.sink,), edges + (e.id,)))
    raise NotFoundError(f"vertex {to_vertex} unreachable from {from_vertex}")


# stop distances -----------------------------------------------------------

def _distances_to(incoming: list[list[tuple[int, float, int]]], root: int, width: float) -> tuple[array, array]:
    """Reverse Dijkstra to ``root`` on a bucket queue: each vertex's distance and next edge, over dense indices.

    The search runs on dense indices, as raw ids may be negative or sparse:
    ``root`` is an index, and ``incoming[i]`` lists ``(source index, length,
    place)`` of each edge entering index ``i``, where the place is the
    edge's place in its source's out-list, ``out_edges`` order (by sink,
    then id).
    A vertex ``u`` with an edge ``e`` to a settled ``w`` is offered
    ``e.length + d[w]``.  Its first offer (``dist`` is NaN until then) or
    one strictly below its best so far sets ``dist[u]`` and appends ``u``
    to the bucket of key ``offer // width`` (Dial 1969).  A heap holds only
    the keys of non-empty buckets; the bucket of the least key is settled
    next, each of its vertices once and in any order.  ``width`` is half
    the shortest edge length, and the table builds only graphs whose
    lengths are finite, above 0 and total below ``2**50 width``:

    * Buckets are final.  A vertex ``v`` settled in bucket K has ``d[v] <
      (K+1) width``.  A vertex settled after it is in bucket K or later, so
      at least ``K width`` away, and every edge is at least ``2 width``
      long: its offer to ``v`` is ``(K+2) width`` or more, less one
      rounding, so it lands in bucket K+1 or later and is above ``d[v]``.
      So ``v`` was settled at its final distance, and no bucket gains a
      vertex once it is taken; half, not all, of the shortest edge leaves
      a bucket's margin for the rounding.  This holds while keys are exact
      floors.  CPython's ``//`` rounds the quotient to an integer, which is
      the floor while it is below 2**50, and no offer exceeds the total
      edge length by more than roundings, hence the bound on the total.
    * Results do not depend on settle order.  ``dist[u]`` is the minimum of
      the same offers, each made once, from its sender's final distance.  A
      first offer or a strict improvement sets ``next[u]`` to its edge's
      place in the out-list, and an offer equal to ``dist[u]`` keeps the
      smaller of the two places, whether ``u`` is settled or not.  So
      ``next[u]`` is the least place among the offers that equal the final
      ``dist[u]``, every one of them an out-edge of ``u``, and both
      arrays are bitwise those of a binary heap of ``(distance, index)``
      entries (kept in ``tests/brute.py`` as the reference).

    Returns ``dist``, NaN for a vertex that cannot reach the root, and
    ``next``, one signed byte per vertex: the offering edge's place in the
    out-list.  The root's entry is -1, as is an unreachable vertex's.
    """
    n = len(incoming)
    dist = [math.nan] * n
    nxt = [-1] * n
    settled = [False] * n
    dist[root] = 0.0
    buckets = {0.0: [root]}
    keys = [0.0]
    while keys:
        for v in buckets.pop(heappop(keys)):
            if settled[v]:
                continue
            settled[v] = True
            d = dist[v]
            for u, length, place in incoming[v]:
                offer = length + d
                if offer > dist[u]:
                    continue
                if offer == dist[u]:
                    if place < nxt[u]:
                        nxt[u] = place
                elif not settled[u]:
                    key = offer // width
                    dist[u] = offer
                    nxt[u] = place
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [u]
                        heappush(keys, key)
                    else:
                        bucket.append(u)
    # array() over a list parses every item; packing the list first is several times faster
    return array("d", pack(f"{n}d", *dist)), array("b", pack(f"{n}b", *nxt))


Piece = tuple[int, float, float]   # (edge id, start offset, end offset) of one driven stretch


class StopDistanceTable:
    """Traversal distances to every stop, from every stop and from any mid-edge position.

    Built once and never changed: one reverse shortest-path search per
    distinct host-edge source vertex of the m stops gives, per root, flat
    arrays over a dense vertex index of every vertex's distance to the root
    (8 bytes) and next edge towards it, stored as the edge's place in the
    vertex's out-list (1 byte), so no vertex may have more than 127
    out-edges.  The searches need every edge length finite and above 0,
    and their total below 2**49 times the shortest (see
    ``_distances_to``); a graph outside these rules raises InvalidInputError
    with the first message ``_table_rule_issues`` gives, which
    ``validate_graph`` also reports.  Each stop's root is looked up in a map
    made once.  ``_traverse`` then gives one row per origin stop of its
    distances to every stop, the zero diagonal included, in stop id order;
    ``len()`` counts the m(m-1) off-diagonal pairs.  A distance from any
    position is then one lookup.
    """

    def __init__(self, graph: RoadGraph, stops: list[Stop]) -> None:
        self._graph = graph
        self._stops = {s.id: s for s in stops}
        ordered = [self._stops[sid] for sid in sorted(self._stops)]
        hosts = [graph.edge(s.edge) for s in ordered]
        broken = next(_table_rule_issues(graph), None)
        if broken is not None:
            raise InvalidInputError(broken.message)
        # every edge endpoint, present or dangling, gets a dense index in id order
        ids = sorted({end for e in graph.edges() for end in (e.source, e.sink)})
        self._index = index = {vid: i for i, vid in enumerate(ids)}
        # each dense index's out-list; a next edge is its place there
        self._out = [graph.out_edges(vid) for vid in ids]
        incoming: list[list[tuple[int, float, int]]] = [[] for _ in ids]
        for i, out in enumerate(self._out):
            for place, e in enumerate(out):
                incoming[index[e.sink]].append((i, e.length, place))
        width = min((e.length for e in graph._edges.values()), default=0.0) / 2   # the bucket width, see _distances_to
        # stop id -> its root, the host edge's source vertex
        self._root = {s.id: host.source for s, host in zip(ordered, hosts)}
        # root vertex -> (distance to the root, next edge's place in the out-list), both over the dense index
        self._dist_to: dict[int, tuple[array, array]] = {}
        for root in self._root.values():
            if root not in self._dist_to:
                self._dist_to[root] = _distances_to(incoming, index[root], width)
        # stop id -> its column in every row; origin stop id -> its row of distances to every column
        self._col = {s.id: j for j, s in enumerate(ordered)}
        self._rows = {
            origin.id: array("d", [self._traverse(host, origin.slack, dest)[0] for dest in ordered])
            for origin, host in zip(ordered, hosts)
        }

    def _check(self, stop_id: int) -> Stop:
        stop = self._stops.get(stop_id)
        if stop is None:
            raise NotFoundError(f"stop {stop_id} not in distance table")
        return stop

    def _traverse(self, edge: DirectedEdge, offset: float, dest: Stop) -> tuple[float, int | None]:
        """Apply the traversal rule from ``offset`` meters along ``edge`` to ``dest``.

        A stop downstream on the same edge is reached directly.  Otherwise
        the vehicle finishes the edge, follows a shortest path from the
        edge's sink to the destination edge's source vertex, the root, then
        drives the destination slack.  Returns the distance and the root,
        which is None for a direct hop.  ``__init__`` builds every stop
        pair's distance with it.
        """
        if not 0.0 <= offset <= edge.length:
            raise InvalidInputError(f"offset {offset} outside edge {edge.id}")
        if edge.id == dest.edge and dest.slack >= offset:
            return dest.slack - offset, None
        root = self._root[dest.id]
        rest = self._dist_to[root][0][self._index[edge.sink]]
        if rest != rest:
            raise NotFoundError(
                f"vertex {root} unreachable from {edge.sink}; graph not strongly connected"
            )
        return (edge.length - offset) + rest + dest.slack, root

    def distance(self, from_stop: int, to_stop: int) -> float:
        try:
            return self._rows[from_stop][self._col[to_stop]]
        except KeyError:
            self._check(from_stop)
            self._check(to_stop)
            raise

    def distance_from_position(self, edge_id: int, offset: float, to_stop: int) -> float:
        """Distance from a mid-edge position to a stop, same traversal rule."""
        dest = self._check(to_stop)
        return self._traverse(self._graph.edge(edge_id), offset, dest)[0]

    def position_path(self, edge_id: int, offset: float, to_stop: int) -> tuple[tuple[Piece, ...], float]:
        """Driven pieces ``(edge id, start offset, end offset)`` and distance from a mid-edge position to a stop.

        A direct hop is one piece.  Otherwise, with ``d`` the distances to
        the root, the vertex path from the edge's sink follows the search's
        next edges to the root.  At each vertex ``v`` that is the first
        out-edge ``e``, in ``out_edges`` order (by sink, then id), that is
        tight: ``e.length + d[e.sink] == d[v]`` exactly, in floating point.
        This gives the lexicographically smallest vertex sequence among the
        tight paths to the root:

        * The next edge is the first tight out-edge.  Each out-edge ``e`` of
          ``v`` whose sink reaches the root is offered to ``v`` exactly once,
          when ``e.sink`` is settled at its final distance, and the offer is
          the float sum ``e.length + d[e.sink]`` that the tightness test
          compares with ``d[v]``.  ``next[v]`` is the smallest place in the
          out-list among the offers equal to the final ``d[v]`` (see
          ``_distances_to``), that is, among the tight out-edges.
        * Every vertex ``v`` but the root that can reach it has a tight
          out-edge: the search settled ``v`` at the sum it was offered over
          an edge to a vertex settled before it.
        * Among tight paths from ``v``, those through the smallest tight
          successor are smaller than the rest at their second vertex, and
          from that successor on the same choice repeats.  A tight path
          stops at its first arrival at the root, as no cycle is tight
          (next point), so no tight path is a proper prefix of another.
        * No cycle is tight, as ``d`` falls strictly along tight edges.  The
          table takes only lengths of at least ``2 width`` (the shortest
          edge) whose total is below ``2**49`` times the shortest edge, and
          a distance is the float sum of a simple path, so about the total
          at most.  So every edge's length is about ``2**-49 d`` or more for
          every distance ``d``, far above half of ``d``'s last place (at
          most ``2**-53 d``), and ``fl(length + d) > d``: each tight edge's
          sink is strictly nearer the root than its source.

        The path's length summed from the root end is ``d`` exactly, so it
        is the distance returned.
        """
        dest = self._check(to_stop)
        edge = self._graph.edge(edge_id)
        distance, root = self._traverse(edge, offset, dest)
        if root is None:
            return ((edge.id, offset, dest.slack),), distance
        index, out = self._index, self._out
        nxt = self._dist_to[root][1]
        pieces = [(edge.id, offset, edge.length)]
        v = edge.sink
        while v != root:
            i = index[v]
            place = nxt[i]
            if place < 0:
                raise ConsistencyError(f"vertex {v} has no tight out-edge towards vertex {root}")
            e = out[i][place]
            pieces.append((e.id, 0.0, e.length))
            v = e.sink
        pieces.append((dest.edge, 0.0, dest.slack))
        return tuple(pieces), distance

    def stop_ids(self) -> list[int]:
        return sorted(self._stops)

    def __len__(self) -> int:
        m = len(self._col)
        return m * (m - 1)


def build_stop_distance_table(
    graph: RoadGraph, stops: list[Stop] | None = None
) -> StopDistanceTable:
    """Build the all-pairs stop distance table.

    Runs one reverse shortest-path search per distinct host-edge source
    vertex, then assembles every ordered pair from those distances.
    """
    if stops is None:
        stops = list(graph.stops())
    if len(stops) < 2:
        raise InvalidInputError("need at least 2 stops for a distance table")
    return StopDistanceTable(graph, stops)


# JSON network files --------------------------------------------------------

def graph_to_dict(graph: RoadGraph) -> dict:
    return {
        "vertices": [record_dict(v) for v in graph.vertices()],
        "edges": [record_dict(e) for e in graph.edges()],
        "stops": [record_dict(s) for s in graph.stops()],
    }


_NETWORK_FIELDS = {"vertices": list, "edges": list, "stops": list}
_VERTEX_FIELDS = record_kinds(Vertex)
_EDGE_FIELDS = record_kinds(DirectedEdge)
_EDGE_REQUIRED = [key for key in _EDGE_FIELDS if key != "length"]
_STOP_FIELDS = record_kinds(Stop)


def graph_from_dict(doc: dict, validate: bool = True) -> RoadGraph:
    """Build a graph from its document; a bad record is reported by path, e.g. ``edges[0].sink``."""
    doc = read_section("network", doc, _NETWORK_FIELDS)
    graph = RoadGraph()
    for i, rec in enumerate(doc.get("vertices", [])):
        v = read_section(f"vertices[{i}]", rec, _VERTEX_FIELDS, required=_VERTEX_FIELDS)
        graph.add_vertex(v["id"], v["x"], v["y"])
    for i, rec in enumerate(doc.get("edges", [])):
        e = read_section(f"edges[{i}]", rec, _EDGE_FIELDS, required=_EDGE_REQUIRED)
        graph.add_edge(e["id"], e["source"], e["sink"], e["free_flow_speed"],
                       e["capacity_vehicles"], length=e.get("length"))
    for i, rec in enumerate(doc.get("stops", [])):
        s = read_section(f"stops[{i}]", rec, _STOP_FIELDS, required=_STOP_FIELDS)
        graph.place_stop(s["edge"], s["slack"], s["zone"], stop_id=s["id"])
    if validate:
        report = validate_graph(graph)
        if not report.ok:
            raise InvalidInputError(f"network failed validation:\n{report}")
    return graph


def read_json(path: str) -> object:
    """The document in a JSON file; one not UTF-8, not JSON or nested too deep is a ConfigurationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"{path}: not a JSON document: {exc}") from None


def load_network(path: str, validate: bool = True) -> RoadGraph:
    return graph_from_dict(read_json(path), validate=validate)


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The file gets the mode a plain ``open`` would give it, ``0o666`` less the
    umask, where ``mkstemp`` alone leaves ``0o600``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)   # reading the umask means setting it; put it straight back
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_network(graph: RoadGraph, path: str) -> None:
    """Write the graph's document with sorted keys, one record per line.

    Each section is encoded by one call, in C (``indent`` would take the
    pure-Python encoder), then split into lines.  Records are flat and their
    only text is a zone from ``ZONES``, so ``}, {`` occurs only between two
    records; the count is checked.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    sections = []
    for key, records in sorted(graph_to_dict(graph).items()):
        body = encode(records)[1:-1]
        if body.count("}, {") != max(len(records) - 1, 0):
            raise ConsistencyError(f"{key}: a record holds text that looks like a record boundary")
        sections.append(f"{encode(key)}: [\n" + body.replace("}, {", "},\n{") + "\n]")
    write_atomic(path, "{\n" + ",\n".join(sections) + "\n}\n")
