import copy
import dataclasses
import hashlib
import json
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savsim import netgraph, oracle
from savsim.errors import ConsistencyError, InvalidInputError, NotFoundError
from savsim.netgraph import (
    RoadGraph,
    Stop,
    build_stop_distance_table,
    edge_weight,
    graph_from_dict,
    graph_to_dict,
    load_network,
    save_network,
    shortest_path,
    validate_graph,
)
from savsim.oracle import check_table, split_stop_distances
from savsim.scenario_gen import SyntheticSpec, default_background_flows, generate_network

from brute import heap_distances_to
from randnets import random_connected_graph, scatter_stops, star_network

CITY_400M = SyntheticSpec(grid_spacing=400.0, peripheral_stop_count=56, central_stop_count=56, seed=424242)


def two_cycle(length: float = 100.0) -> RoadGraph:
    g = RoadGraph()
    g.add_vertex(1, 0.0, 0.0)
    g.add_vertex(2, length, 0.0)
    g.add_edge(10, 1, 2, 13.4, 20)
    g.add_edge(11, 2, 1, 13.4, 20)
    return g


def triangle() -> RoadGraph:
    # A(0,0) -> B(100,0) -> C(100,100) -> A, one-way ring
    g = RoadGraph()
    g.add_vertex(1, 0.0, 0.0)
    g.add_vertex(2, 100.0, 0.0)
    g.add_vertex(3, 100.0, 100.0)
    g.add_edge(10, 1, 2, 15.0, 20)
    g.add_edge(11, 2, 3, 15.0, 20)
    g.add_edge(12, 3, 1, 15.0, 20)
    return g


def coincident_pair() -> RoadGraph:
    """Vertices 1 and 2 at one point, joined both ways by zero-length edges, and a two-way
    100 m edge from vertex 1 to vertex 3."""
    g = RoadGraph()
    g.add_vertex(1, 0.0, 0.0)
    g.add_vertex(2, 0.0, 0.0)
    g.add_vertex(3, 100.0, 0.0)
    g.add_edge(10, 1, 2, 13.4, 20)
    g.add_edge(11, 2, 1, 13.4, 20)
    g.add_edge(12, 1, 3, 13.4, 20)
    g.add_edge(13, 3, 1, 13.4, 20)
    return g


def distances_to(table) -> dict[int, dict[int, float]]:
    """The table's distances as ``{root: {vertex id: distance}}``, read through its dense index;
    a vertex that cannot reach a root is left out of that root's dict."""
    return {root: {vid: dist[i] for vid, i in table._index.items() if not math.isnan(dist[i])}
            for root, (dist, _) in table._dist_to.items()}


def not_strongly_connected() -> RoadGraph:
    """A two-cycle 1 <-> 2 with stops on both edges, and a one-way edge 20 from vertex 2 to a dead end 3."""
    doc = {
        "vertices": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 100.0, "y": 0.0},
                     {"id": 3, "x": 200.0, "y": 0.0}],
        "edges": [{"id": eid, "source": a, "sink": b, "free_flow_speed": 13.4, "capacity_vehicles": 20}
                  for eid, a, b in ((10, 1, 2), (11, 2, 1), (20, 2, 3))],
        "stops": [{"id": 0, "edge": 10, "slack": 20.0, "zone": "other"},
                  {"id": 1, "edge": 11, "slack": 20.0, "zone": "other"}],
    }
    return graph_from_dict(doc, validate=False)


class TestEdgeWeight:
    def test_three_four_five(self):
        g = RoadGraph()
        a = g.add_vertex(1, 0.0, 0.0)
        b = g.add_vertex(2, 3.0, 4.0)
        assert edge_weight(a, b) == 5.0

    def test_identical_points(self):
        g = RoadGraph()
        a = g.add_vertex(1, 7.0, -2.0)
        b = g.add_vertex(2, 7.0, -2.0)
        assert edge_weight(a, b) == 0.0

    def test_diagonal(self):
        g = RoadGraph()
        a = g.add_vertex(1, 100.0, 0.0)
        b = g.add_vertex(2, 0.0, 100.0)
        # Independent evaluation: (100^2 + 100^2) ** 0.5
        assert edge_weight(a, b) == pytest.approx((100.0 ** 2 + 100.0 ** 2) ** 0.5, abs=1e-12)

    def test_symmetric(self):
        g = RoadGraph()
        a = g.add_vertex(1, 3.0, 9.0)
        b = g.add_vertex(2, -5.0, 2.0)
        assert edge_weight(a, b) == edge_weight(b, a)

    def test_non_finite_rejected(self):
        g = RoadGraph()
        a = g.add_vertex(1, 0.0, 0.0)
        bad = type(a)(2, float("nan"), 0.0)
        with pytest.raises(InvalidInputError):
            edge_weight(a, bad)


class TestOutEdgeOrder:
    """Each out-list is ascending by (sink, id) however its edges arrive; ``position_path``'s tie rule reads it."""

    @staticmethod
    def out_lists(g: RoadGraph) -> dict[int, list[tuple[int, int]]]:
        return {v.id: [(e.sink, e.id) for e in g.out_edges(v.id)] for v in g.vertices()}

    def test_shuffled_adds_and_records_in_reverse_id_order(self):
        rng = random.Random(25)
        doc = graph_to_dict(random_connected_graph(rng, max_vertices=8, max_edges=40))
        first = doc["edges"][0]
        # two more edges from first's source to its sink, one id below all others and one above
        doc["edges"] += [dict(first, id=-1), dict(first, id=len(doc["edges"]))]
        expected = {v["id"]: sorted((e["sink"], e["id"]) for e in doc["edges"] if e["source"] == v["id"])
                    for v in doc["vertices"]}
        assert [key[0] for key in expected[first["source"]]].count(first["sink"]) == 3
        assert max(map(len, expected.values())) >= 4

        shuffled = RoadGraph()
        for v in doc["vertices"]:
            shuffled.add_vertex(v["id"], v["x"], v["y"])
        records = list(doc["edges"])
        rng.shuffle(records)
        for e in records:
            shuffled.add_edge(e["id"], e["source"], e["sink"], e["free_flow_speed"], e["capacity_vehicles"])
        assert self.out_lists(shuffled) == expected

        doc["edges"].sort(key=lambda e: e["id"], reverse=True)
        assert self.out_lists(graph_from_dict(doc, validate=False)) == expected


class TestValidateGraph:
    def test_minimal_strongly_connected(self):
        assert validate_graph(two_cycle()).ok

    def test_missing_return_path(self):
        g = RoadGraph()
        g.add_vertex(1, 0.0, 0.0)
        g.add_vertex(2, 100.0, 0.0)
        g.add_edge(10, 1, 2, 13.4, 20)
        report = validate_graph(g)
        kinds = [i.kind for i in report.issues]
        assert kinds == ["not_strongly_connected"]
        # vertex 2 cannot reach vertex 1
        assert "from vertex 2 to vertex 1" in report.issues[0].message

    def test_length_mismatch(self):
        g = RoadGraph()
        g.add_vertex(1, 0.0, 0.0)
        g.add_vertex(2, 100.0, 0.0)
        g.add_edge(10, 1, 2, 13.4, 20, length=99.0)
        g.add_edge(11, 2, 1, 13.4, 20)
        report = validate_graph(g)
        assert [i.kind for i in report.issues] == ["length_mismatch"]
        assert "edge 10" in report.issues[0].message

    def test_dangling_self_loop_duplicate(self):
        g = RoadGraph()
        g.add_vertex(1, 0.0, 0.0)
        g.add_vertex(2, 100.0, 0.0)
        g.add_edge(10, 1, 2, 13.4, 20)
        g.add_edge(11, 2, 1, 13.4, 20)
        g.add_edge(12, 1, 9, 13.4, 20, length=5.0)   # dangling sink
        g.add_edge(13, 1, 1, 13.4, 20, length=0.0)   # self-loop
        g.add_edge(14, 1, 2, 13.4, 20)               # duplicate pair
        kinds = {i.kind for i in validate_graph(g).issues}
        assert {"dangling_endpoint", "self_loop", "duplicate_edge"} <= kinds


    def test_zero_length_edges(self):
        g = coincident_pair()
        issues = validate_graph(g).issues
        assert [i.kind for i in issues] == ["edge_length", "edge_length"]
        assert "edge 10 has length 0.0" in issues[0].message

    def test_a_vertex_with_non_finite_coordinates_raises(self):
        g = two_cycle()
        g._vertices[2] = type(g.vertex(2))(2, math.inf, 0.0)   # add_vertex would refuse it
        with pytest.raises(InvalidInputError, match="vertex 2 has non-finite coordinates"):
            validate_graph(g)


class TestPlaceStop:
    def test_basic(self):
        g = two_cycle()
        s = g.place_stop(10, 20.0, "other")
        assert s.edge == 10 and s.slack == 20.0
        assert g.stop(s.id) == s

    def test_slack_zero_boundary(self):
        g = two_cycle()
        s = g.place_stop(10, 0.0, "other")
        assert s.slack == 0.0

    def test_slack_exceeds_length(self):
        g = two_cycle()
        with pytest.raises(InvalidInputError):
            g.place_stop(10, 150.0, "other")

    def test_unknown_edge(self):
        g = two_cycle()
        with pytest.raises(NotFoundError):
            g.place_stop(99, 10.0, "other")

    def test_unknown_zone(self):
        g = two_cycle()
        with pytest.raises(InvalidInputError):
            g.place_stop(10, 10.0, "downtown")


class TestShortestPath:
    def test_identity(self):
        g = triangle()
        assert shortest_path(g, 1, 1) == ((), 0.0)

    def test_triangle(self):
        # Exhaustive: the only simple route 1->3 is via vertex 2.
        g = triangle()
        edges, dist = shortest_path(g, 1, 3)
        assert edges == (10, 11)
        assert dist == pytest.approx(200.0, abs=1e-9)

    def test_square_tie_break(self):
        # Two equal-length routes 0->3; the smaller vertex sequence wins.
        g = RoadGraph()
        g.add_vertex(0, 0.0, 0.0)
        g.add_vertex(1, 100.0, 0.0)
        g.add_vertex(2, 0.0, 100.0)
        g.add_vertex(3, 100.0, 100.0)
        eid = 0
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
            g.add_edge(eid, a, b, 15.0, 20)
            g.add_edge(eid + 1, b, a, 15.0, 20)
            eid += 2
        edges, dist = shortest_path(g, 0, 3)
        assert dist == pytest.approx(200.0)
        # candidates (0,1,3) and (0,2,3); (0,1,3), along edges 0 and 4, is
        # lexicographically smaller
        assert edges == (0, 4)

    def test_unknown_vertex(self):
        with pytest.raises(NotFoundError):
            shortest_path(triangle(), 1, 99)

    def test_parallel_edges_take_the_shorter_then_the_smaller_id(self):
        # validate_graph would report these duplicate edges; shortest_path takes the graph as built
        g = triangle()
        g.add_edge(7, 1, 2, 15.0, 20)
        g.add_edge(5, 1, 2, 15.0, 20)
        assert shortest_path(g, 1, 3) == ((5, 11), 200.0)
        g.add_edge(8, 2, 3, 15.0, 20, length=99.5)
        g.add_edge(4, 2, 3, 15.0, 20, length=100.0)
        assert shortest_path(g, 1, 3) == ((5, 8), 199.5)

    def test_unreachable_target_names_both_vertices(self):
        g = triangle()
        g.add_vertex(4, 50.0, 50.0)
        g.add_edge(13, 4, 1, 15.0, 20)
        with pytest.raises(NotFoundError, match="vertex 4 unreachable from 2"):
            shortest_path(g, 2, 4)

    def test_corner_flow_routes_are_locked(self):
        # the background flows' routes on the default grid and the 400 m city:
        # edge ids and the bits of each length
        digest = hashlib.sha256()
        for spec in (SyntheticSpec(seed=424242), CITY_400M):
            graph = generate_network(spec)
            for flow in default_background_flows(spec):
                edges, dist = shortest_path(graph, flow.origin_vertex, flow.destination_vertex)
                digest.update(repr((edges, dist.hex())).encode())
        assert digest.hexdigest() == "b99a16a3b3b6a8f2feb4bbf1623f907102e77219e2f15cb81e4f944ce51a1c07"


def stop_path(g: RoadGraph, origin: Stop, dest: Stop) -> tuple[tuple[tuple[int, float, float], ...], float]:
    """Driven pieces and distance between two registered stops, checked against the table."""
    table = build_stop_distance_table(g)
    pieces, dist = table.position_path(origin.edge, origin.slack, dest.id)
    assert table.distance(origin.id, dest.id) == dist
    return pieces, dist


class TestStopDistance:
    def test_same_edge_forward(self):
        g = two_cycle()
        s1 = g.place_stop(10, 20.0, "other")
        s2 = g.place_stop(10, 70.0, "other")
        pieces, dist = stop_path(g, s1, s2)
        assert dist == pytest.approx(50.0, abs=1e-9)
        assert pieces == ((10, 20.0, 70.0),)

    def test_same_edge_loop(self):
        g = two_cycle()
        s1 = g.place_stop(10, 70.0, "other")
        s2 = g.place_stop(10, 20.0, "other")
        pieces, dist = stop_path(g, s1, s2)
        # finish edge (30), return edge (100), re-enter (20)
        assert dist == pytest.approx(150.0, abs=1e-9)
        assert pieces == ((10, 70.0, 100.0), (11, 0.0, 100.0), (10, 0.0, 20.0))

    def test_triangle_forward(self):
        g = triangle()
        b1 = g.place_stop(10, 20.0, "other")
        b2 = g.place_stop(11, 30.0, "other")
        pieces, dist = stop_path(g, b1, b2)
        assert dist == pytest.approx(110.0, abs=1e-9)
        assert pieces == ((10, 20.0, 100.0), (11, 0.0, 30.0))

    def test_triangle_reverse(self):
        g = triangle()
        b1 = g.place_stop(10, 20.0, "other")
        b2 = g.place_stop(11, 30.0, "other")
        pieces, dist = stop_path(g, b2, b1)
        assert dist == pytest.approx(70.0 + 100.0 * math.sqrt(2.0) + 20.0, abs=1e-9)
        assert pieces == ((11, 30.0, 100.0), (12, 0.0, g.edge(12).length), (10, 0.0, 20.0))

    def test_self_distance_zero(self):
        g = triangle()
        b1 = g.place_stop(10, 20.0, "other")
        g.place_stop(11, 30.0, "other")
        assert stop_path(g, b1, b1) == (((b1.edge, 20.0, 20.0),), 0.0)

    def test_unregistered_stop(self):
        g = triangle()
        b1 = g.place_stop(10, 20.0, "other")
        g.place_stop(11, 30.0, "other")
        ghost = Stop(99, 10, 5.0, "other")
        table = build_stop_distance_table(g)
        with pytest.raises(NotFoundError):
            table.position_path(b1.edge, b1.slack, ghost.id)
        with pytest.raises(NotFoundError):
            table.distance_from_position(b1.edge, b1.slack, ghost.id)


class TestStopDistanceTable:
    def test_two_stops(self):
        g = two_cycle()
        g.place_stop(10, 20.0, "other")
        g.place_stop(10, 70.0, "other")
        table = build_stop_distance_table(g)
        assert len(table) == 2

    def test_five_stops(self):
        rng = random.Random(3)
        g = random_connected_graph(rng, max_vertices=12, max_edges=30)
        scatter_stops(rng, g, 5)
        table = build_stop_distance_table(g)
        assert len(table) == 20

    def test_diagonal_absent_but_answered(self):
        g = two_cycle()
        s1 = g.place_stop(10, 20.0, "other")
        g.place_stop(10, 70.0, "other")
        table = build_stop_distance_table(g)
        assert len(table) == 2
        assert table.distance(s1.id, s1.id) == 0.0
        assert table.position_path(s1.edge, s1.slack, s1.id) == (((10, 20.0, 20.0),), 0.0)

    def test_unknown_stop_id(self):
        g = two_cycle()
        s1 = g.place_stop(10, 20.0, "other")
        g.place_stop(10, 70.0, "other")
        table = build_stop_distance_table(g)
        with pytest.raises(NotFoundError):
            table.distance(s1.id, 99)
        with pytest.raises(NotFoundError):
            table.distance(99, s1.id)

    def test_too_few_stops(self):
        g = two_cycle()
        g.place_stop(10, 20.0, "other")
        with pytest.raises(InvalidInputError):
            build_stop_distance_table(g)

    def test_position_queries(self):
        g = triangle()
        b2 = g.place_stop(11, 30.0, "other")
        g.place_stop(10, 20.0, "other")
        table = build_stop_distance_table(g)
        # From mid-edge position on edge 10 at offset 40: (100-40) + 0 + 30
        assert table.distance_from_position(10, 40.0, b2.id) == pytest.approx(90.0)
        pieces, dist = table.position_path(10, 40.0, b2.id)
        assert pieces == ((10, 40.0, 100.0), (11, 0.0, 30.0))
        assert dist == pytest.approx(90.0)

    def test_position_path_rejects_offset_beyond_edge(self):
        g = triangle()
        b2 = g.place_stop(11, 30.0, "other")
        g.place_stop(10, 20.0, "other")
        table = build_stop_distance_table(g)
        with pytest.raises(InvalidInputError):
            table.position_path(10, 100.5, b2.id)
        with pytest.raises(InvalidInputError):
            table.position_path(10, -1.0, b2.id)
        with pytest.raises(InvalidInputError):
            table.distance_from_position(10, 100.5, b2.id)
        with pytest.raises(InvalidInputError):
            table.distance_from_position(10, -1.0, b2.id)

    def test_unreachable_root_raises_not_found(self):
        g = not_strongly_connected()
        table = build_stop_distance_table(g)
        # from the dead-end edge 20, no path leads back to stop 0's host-edge source, vertex 1
        for query in (table.distance_from_position, table.position_path):
            with pytest.raises(NotFoundError, match="vertex 1 unreachable from 3"):
                query(20, 50.0, 0)
        # a stop on the dead-end edge makes the build itself fail
        g.place_stop(20, 10.0, "other")
        with pytest.raises(NotFoundError, match="vertex 1 unreachable from 3"):
            build_stop_distance_table(g)

    def test_an_edge_whose_length_overflows_is_named(self):
        # finite coordinates 2e308 apart: neither validation nor the stop table accepts the infinite lengths
        g = RoadGraph()
        for vid, x, y in ((1, -1e308, 0.0), (2, 1e308, 0.0), (3, 1e308, 1.0)):
            g.add_vertex(vid, x, y)
        for eid, a, b in ((10, 1, 2), (11, 2, 3), (12, 3, 1)):
            g.add_edge(eid, a, b, 13.4, 20)
        assert [i.message.split(";")[0] for i in validate_graph(g).issues] == [
            "edge 10 has length inf", "edge 12 has length inf"]
        g.place_stop(11, 0.5, "other")
        g.place_stop(12, 0.5, "other")
        with pytest.raises(InvalidInputError, match="edge 10 has length inf; the stop table takes only finite"):
            build_stop_distance_table(g)

    def test_tight_cycle_raises_instead_of_looping(self):
        # from vertex 1, edge 10 to vertex 2 and edge 11 back would both be tight: the build refuses them
        g = coincident_pair()
        g.place_stop(13, 10.0, "other")
        g.place_stop(12, 10.0, "other")
        with pytest.raises(InvalidInputError, match="edge 10 has length 0.0"):
            build_stop_distance_table(g)

    def test_a_vertex_with_127_out_edges_builds_and_walks_its_last_one(self):
        g = star_network(127)
        table = build_stop_distance_table(g)
        # from leaf 1 to stop 1, on leaf 127's edge to the hub: the hub's next edge is its 127th out-edge
        assert table._dist_to[127][1][table._index[1000]] == 126
        pieces, dist = table.position_path(3, 0.0, 1)
        into, out = g.edge(3).length, g.edge(254).length
        assert pieces == ((3, 0.0, into), (254, 0.0, out), (255, 0.0, 10.0))
        assert dist == into + out + 10.0 == table.distance_from_position(3, 0.0, 1)

    def test_a_vertex_with_128_out_edges_is_named(self):
        with pytest.raises(InvalidInputError, match="vertex 1000 has 128 out-edges; the stop table takes at most 127"):
            build_stop_distance_table(star_network(128))

    def test_one_400_m_city_table_holds_8_byte_distances_and_1_byte_next_edges_in_under_2_mb(self):
        spec = SyntheticSpec(grid_spacing=400.0, peripheral_stop_count=56, central_stop_count=56, seed=424242)
        g = generate_network(spec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = build_stop_distance_table(g)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the arrays: 106 roots x 1,221 vertices x 9 B, 1.2 MB; the rows: 112 x 112 x 8 B, 0.1 MB
        assert size < 2 * 2**20
        assert len(table._dist_to) == 106 and len(table) == 112 * 111
        assert {(dist.typecode, nxt.typecode) for dist, nxt in table._dist_to.values()} == {("d", "b")}


def stop_pairs(g: RoadGraph) -> list[tuple[Stop, Stop]]:
    """Every ordered pair of distinct stops."""
    return [(o, d) for o in g.stops() for d in g.stops() if o.id != d.id]


def pieces_distance(pieces: tuple[tuple[int, float, float], ...]) -> float:
    """Reference distance of a leg: the summed lengths of its driven pieces."""
    return sum(end - start for _, start, end in pieces)


def tied_grid() -> RoadGraph:
    """300 m x 400 m cells with one 500 m diagonal per cell, both ways, and a stop 100 m into
    every third edge: integer lengths, so every float sum is exact and every shortest path is
    tight; the grid ties many of them."""
    g = RoadGraph()
    for vid in range(12):
        g.add_vertex(vid, 300.0 * (vid % 4), 400.0 * (vid // 4))
    links = [(v, v + 1) for v in range(12) if v % 4 < 3] + [(v, v + 4) for v in range(8)]
    links += [(v, v + 5) for v in range(8) if v % 4 < 3 and v % 2 == 0]
    eid = 0
    for a, b in links:
        g.add_edge(eid, a, b, 15.0, 50)
        g.add_edge(eid + 1, b, a, 15.0, 50)
        eid += 2
    for e in list(g.edges())[::3]:
        g.place_stop(e.id, 100.0, "other")
    assert validate_graph(g).ok
    return g


def assert_smallest_shortest_vertex_sequences(g: RoadGraph) -> None:
    """Every position path 100 m into an edge follows the lexicographically smallest of the
    shortest simple vertex sequences, found by enumerating them all."""
    out = {v.id: [e.sink for e in g.out_edges(v.id)] for v in g.vertices()}

    def simple_paths(v, target, seen):
        if v == target:
            yield (v,)
            return
        for w in out[v]:
            if w not in seen:
                for rest in simple_paths(w, target, seen | {w}):
                    yield (v,) + rest

    def length(seq):
        return sum(edge_weight(g.vertex(a), g.vertex(b)) for a, b in zip(seq, seq[1:]))

    best = {}
    for v in out:
        for root in out:
            paths = list(simple_paths(v, root, {v}))
            shortest = min(length(p) for p in paths)
            best[v, root] = (min(p for p in paths if length(p) == shortest), shortest)

    table = build_stop_distance_table(g)
    for edge in g.edges():
        for dest in g.stops():
            if edge.id == dest.edge:
                continue
            want, shortest = best[edge.sink, g.edge(dest.edge).source]
            pieces, dist = table.position_path(edge.id, 100.0, dest.id)
            middle = [g.edge(eid) for eid, _, _ in pieces[1:-1]]
            assert tuple([edge.sink] + [m.sink for m in middle]) == want
            assert dist == edge.length - 100.0 + shortest + dest.slack


def assert_next_edges_are_first_tight_out_edges(g: RoadGraph) -> int:
    """Every vertex's next edge towards every root is its first tight out-edge in ``out_edges``
    order, found by scanning them; returns how many of those vertices have two or more."""
    table = build_stop_distance_table(g)
    index = table._index
    ties = 0
    for root, (dist, nxt) in table._dist_to.items():
        assert nxt[index[root]] == -1
        for vid, i in index.items():
            if vid == root or math.isnan(dist[i]):
                continue
            tight = [e for e in g.out_edges(vid) if e.length + dist[index[e.sink]] == dist[i]]
            assert nxt[i] >= 0 and g.out_edges(vid)[nxt[i]] == tight[0], (root, vid)
            ties += len(tight) > 1
    return ties


class TestTableProperties:
    def test_next_edges_are_the_first_tight_out_edges(self):
        for seed in range(12):
            rng = random.Random(5000 + seed)
            g = random_connected_graph(rng)
            scatter_stops(rng, g, rng.randint(2, 10))
            assert_next_edges_are_first_tight_out_edges(g)
        grid = tied_grid()
        assert assert_next_edges_are_first_tight_out_edges(grid) > 0
        scrambled_grid = relabelled(grid, scrambled(grid, random.Random(7)).__getitem__)
        assert assert_next_edges_are_first_tight_out_edges(scrambled_grid) > 0

    def test_oracle_equivalence_sample(self):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            g = random_connected_graph(rng)
            scatter_stops(rng, g, rng.randint(2, 10))
            table = build_stop_distance_table(g)
            assert check_table(g, table) == []

    def test_triangle_inequality(self):
        for seed in range(8):
            rng = random.Random(2000 + seed)
            g = random_connected_graph(rng, max_vertices=15, max_edges=40)
            scatter_stops(rng, g, 6)
            table = build_stop_distance_table(g)
            ids = table.stop_ids()
            for i in ids:
                for j in ids:
                    for k in ids:
                        assert table.distance(i, k) <= table.distance(i, j) + table.distance(j, k) + 1e-9

    def test_path_distance_consistency(self):
        rng = random.Random(77)
        g = random_connected_graph(rng)
        scatter_stops(rng, g, 8)
        table = build_stop_distance_table(g)
        for origin, dest in stop_pairs(g):
            pieces, dist = table.position_path(origin.edge, origin.slack, dest.id)
            assert dist == table.distance(origin.id, dest.id)
            assert pieces_distance(pieces) == pytest.approx(dist, abs=1e-9)

    def test_consecutive_edges_share_vertex(self):
        rng = random.Random(78)
        g = random_connected_graph(rng)
        scatter_stops(rng, g, 6)
        table = build_stop_distance_table(g)
        for origin, dest in stop_pairs(g):
            pieces, _ = table.position_path(origin.edge, origin.slack, dest.id)
            assert pieces[0][:2] == (origin.edge, origin.slack)
            assert (pieces[-1][0], pieces[-1][2]) == (dest.edge, dest.slack)
            for (a, _, a_end), (b, b_start, _) in zip(pieces, pieces[1:]):
                # a piece before another runs to its edge's sink, which the next leaves from
                assert a_end == g.edge(a).length and b_start == 0.0
                assert g.edge(a).sink == g.edge(b).source

    def test_every_stop_pair_is_the_traversal_rule_from_its_origin(self):
        spec = SyntheticSpec(grid_spacing=400.0, peripheral_stop_count=56, central_stop_count=56, seed=424242)
        graphs = [tied_grid(), generate_network(spec)]
        for seed in range(12):
            rng = random.Random(7000 + seed)
            graphs.append(random_connected_graph(rng))
            scatter_stops(rng, graphs[-1], rng.randint(2, 10))
        for g in graphs:
            # one stop at the first stop's slack on its edge, one upstream of it and one downstream
            first = next(g.stops())
            length = g.edge(first.edge).length
            for slack in (first.slack, first.slack / 2, (first.slack + length) / 2):
                g.place_stop(first.edge, slack, "other")
            table = build_stop_distance_table(g)
            for a in g.stops():
                for b in g.stops():
                    assert table.distance(a.id, b.id).hex() == table.distance_from_position(a.edge, a.slack, b.id).hex()

    def test_position_path_is_the_smallest_shortest_vertex_sequence(self):
        assert_smallest_shortest_vertex_sequences(tied_grid())

    def test_queries_leave_one_tree_per_host_edge_source(self):
        rng = random.Random(4242)
        g = random_connected_graph(rng)
        stops = scatter_stops(rng, g, 12)
        table = build_stop_distance_table(g)
        before = distances_to(table), copy.deepcopy(table._dist_to)
        assert set(before[0]) == {g.edge(s.edge).source for s in stops}
        edges = list(g.edges())
        for _ in range(2000):
            edge = rng.choice(edges)
            offset = rng.uniform(0.0, edge.length)
            dest = rng.choice(stops)
            pieces, dist = table.position_path(edge.id, offset, dest.id)
            assert table.distance_from_position(edge.id, offset, dest.id) == dist
            assert pieces_distance(pieces) == pytest.approx(dist, abs=1e-9)
        assert (distances_to(table), table._dist_to) == before

    def test_byte_identical_rebuild(self):
        rng1 = random.Random(555)
        g1 = random_connected_graph(rng1)
        scatter_stops(rng1, g1, 7)
        rng2 = random.Random(555)
        g2 = random_connected_graph(rng2)
        scatter_stops(rng2, g2, 7)
        def dump(g):
            table = build_stop_distance_table(g)
            return repr([
                (o.id, d.id, table.distance(o.id, d.id), table.position_path(o.edge, o.slack, d.id))
                for o, d in stop_pairs(g)
            ])

        assert dump(g1) == dump(g2)


def rooted_everywhere(g: RoadGraph) -> RoadGraph:
    """``g`` with a stop at the start of every vertex's first out-edge, so that every vertex is a root."""
    for v in g.vertices():
        g.place_stop(g.out_edges(v.id)[0].id, 0.0, "other")
    return g


def assert_searches_match_reference(g: RoadGraph) -> None:
    """Every root's distances are bitwise, and its next edges equal to, those of the reference heap
    search over the table's own dense index and each edge's place in its source's out-list."""
    table = build_stop_distance_table(g)
    index = table._index
    incoming = [[] for _ in index]
    for vid in index:
        for place, e in enumerate(g.out_edges(vid)):
            incoming[index[e.sink]].append((index[e.source], e.length, place))
    assert table._dist_to
    for root, (dist, nxt) in table._dist_to.items():
        want_dist, want_next = heap_distances_to(incoming, index[root])
        assert dist.tobytes() == want_dist.tobytes(), root
        assert nxt == want_next, root


def graph_with_lengths(n: int, edges: list[tuple[int, int, float]]) -> RoadGraph:
    """Vertices 0 to ``n - 1`` and, in id order from 0, edges ``(source, sink, stored length)``;
    the stored lengths ignore the coordinates."""
    g = RoadGraph()
    for vid in range(n):
        g.add_vertex(vid, float(vid), 0.0)
    for eid, (a, b, length) in enumerate(edges):
        g.add_edge(eid, a, b, 13.4, 20, length=length)
    return g


def ring_with_lengths(lengths: list[float], chords: list[tuple[int, int, float]] = ()) -> RoadGraph:
    """A one-way ring whose edge ``i`` runs from vertex ``i`` to ``i + 1`` with stored length
    ``lengths[i]``, then the chords, rooted everywhere."""
    n = len(lengths)
    ring = [(vid, (vid + 1) % n, length) for vid, length in enumerate(lengths)]
    return rooted_everywhere(graph_with_lengths(n, ring + list(chords)))


@st.composite
def graphs_with_lengths(draw) -> RoadGraph:
    """A ring through 2 to 9 vertices plus chords, rooted everywhere.  Either its lengths are
    small multiples of a base, one of them twice the base, so that the bucket width is the base,
    edges exactly twice the width long are common, and sums land exactly on bucket boundaries; or
    they spread over 6 orders of magnitude."""
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(n)))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    pairs = list(dict.fromkeys(list(zip(order, order[1:] + order[:1])) + [p for p in extra if p[0] != p[1]]))
    if draw(st.booleans()):
        base = draw(st.sampled_from([1.0, 0.5, 0.1, 1 / 3, 7.25, 1e-3]))
        multiples = [2] + draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 11]), min_size=len(pairs) - 1,
                                        max_size=len(pairs) - 1))
        lengths = [k * base for k in draw(st.permutations(multiples))]
    else:
        spread = st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 9.99), st.integers(-3, 3))
        lengths = draw(st.lists(spread, min_size=len(pairs), max_size=len(pairs)))
    return rooted_everywhere(graph_with_lengths(n, [(a, b, length) for (a, b), length in zip(pairs, lengths)]))


class TestBucketSearch:
    """The bucket-queue searches give bitwise the reference heap search's distances and next edges."""

    @settings(max_examples=300, deadline=None)
    @given(g=graphs_with_lengths())
    def test_hand_made_lengths_match_the_reference(self, g):
        assert_searches_match_reference(g)

    def test_random_graphs_and_the_tied_grid_match_the_reference(self):
        for seed in range(12):
            assert_searches_match_reference(rooted_everywhere(random_connected_graph(random.Random(6000 + seed))))
        assert_searches_match_reference(rooted_everywhere(tied_grid()))

    def test_the_400_m_city_matches_the_reference(self):
        spec = SyntheticSpec(grid_spacing=400.0, peripheral_stop_count=56, central_stop_count=56, seed=424242)
        assert_searches_match_reference(generate_network(spec))

    def test_a_comb_that_catches_any_width_over_the_shortest_edge(self):
        # root 0; vertex x_j is 1 + t_j from it, and v_j is 2 + 1.5 t_j directly or 2 + t_j over its
        # 1 m edge to x_j, the shortest edge.  A width of (1 + eps) m with t_j in [eps, 4 eps / 3),
        # which the ratio 1.2 between the t_j leaves for every eps in [1e-9, 1), would put x_j and
        # v_j in one bucket, and v_j, offered first as its id is lower, would settle at 2 + 1.5 t_j.
        ts = [1e-9 * 1.2**j for j in range(114)]
        edges = []
        for j, t in enumerate(ts):
            v, x = 1 + j, 1 + len(ts) + j
            edges += [(v, 0, 2 + 1.5 * t), (v, x, 1.0), (x, 0, 1 + t)]
        g = graph_with_lengths(1 + 2 * len(ts), edges + [(0, 1 + len(ts), 1.0)])
        g.place_stop(len(edges), 0.0, "other")   # roots: vertex 0, and x_0 below
        g.place_stop(2, 0.0, "other")
        assert_searches_match_reference(g)

    @pytest.mark.parametrize("length", [pytest.param(0.0, id="zero"), pytest.param(-1.0, id="negative"),
                                        pytest.param(math.inf, id="infinite"), pytest.param(math.nan, id="nan")])
    def test_a_length_outside_the_rule_is_named(self, length):
        # edge 4 is vertex 0's second out-edge, so min() over the lengths meets 1.0 before it
        g = ring_with_lengths([1.0, 2.0, 3.0, 4.0], [(0, 2, length), (2, 0, 4.0)])
        with pytest.raises(InvalidInputError, match=f"edge 4 has length {length}; the stop table takes only finite"):
            build_stop_distance_table(g)

    def test_a_total_length_of_2_to_the_50_widths_matches_the_reference(self):
        # shortest edge 1.0, so a width of 0.5: the total must be below 2**50 widths, 2**49 m
        assert_searches_match_reference(ring_with_lengths([1.0, 2.0**49 - 10.5, 3.0, 2.5], [(1, 3, 1.5), (3, 1, 2.0)]))
        g = ring_with_lengths([1.0, 2.0**49 - 10, 3.0, 2.5], [(1, 3, 1.5), (3, 1, 2.0)])
        with pytest.raises(InvalidInputError, match=r"total 562949953421312.0, not below 2\*\*49 times the shortest,"
                                                    " edge 0 of length 1.0"):
            build_stop_distance_table(g)


def relabelled(g: RoadGraph, new_id) -> RoadGraph:
    """``g`` with each vertex id ``v`` renamed ``new_id(v)``; coordinates, lengths, edges and stops kept."""
    doc = graph_to_dict(g)
    for v in doc["vertices"]:
        v["id"] = new_id(v["id"])
    for e in doc["edges"]:
        e["source"], e["sink"] = new_id(e["source"]), new_id(e["sink"])
    return graph_from_dict(doc)


def scrambled(g: RoadGraph, rng: random.Random) -> dict[int, int]:
    """A map of ``g``'s vertex ids onto distinct ids in [-500, 500), in no order."""
    ids = [v.id for v in g.vertices()]
    return dict(zip(ids, rng.sample(range(-500, 500), len(ids))))


class TestRelabelledVertexIds:
    """The table indexes vertices densely: sparse, negative or dangling ids give the same floats."""

    @staticmethod
    def cases(new_ids):
        """Seeded random graphs relabelled by ``new_ids(graph, rng)``, each as (relabelled graph, both
        tables, position queries), once every distance is checked bitwise equal."""
        cases = []
        for seed in range(12):
            rng = random.Random(3000 + seed)
            g = random_connected_graph(rng)
            stops = scatter_stops(rng, g, rng.randint(2, 10))
            new_id = new_ids(g, rng)
            g2 = relabelled(g, new_id)
            table, table2 = build_stop_distance_table(g), build_stop_distance_table(g2)
            assert distances_to(table2) == {new_id(root): {new_id(v): d for v, d in dists.items()}
                                            for root, dists in distances_to(table).items()}
            for origin, dest in stop_pairs(g):
                assert table2.distance(origin.id, dest.id) == table.distance(origin.id, dest.id)
            queries = [(origin.edge, origin.slack, dest.id) for origin, dest in stop_pairs(g)]
            edges = list(g.edges())
            for _ in range(300):
                edge = rng.choice(edges)
                queries.append((edge.id, rng.uniform(0.0, edge.length), rng.choice(stops).id))
            for query in queries:
                assert table2.distance_from_position(*query) == table.distance_from_position(*query)
            cases.append((g2, table, table2, queries))
        return cases

    def test_monotone_ids_with_gaps_and_negatives_give_equal_answers(self):
        for _, table, table2, queries in self.cases(lambda g, rng: lambda v: 7 * v - 50):
            for query in queries:
                assert table2.position_path(*query) == table.position_path(*query)

    def test_scrambled_ids_give_bitwise_distances_and_smallest_sequences(self):
        for g2, _, table2, queries in self.cases(lambda g, rng: scrambled(g, rng).__getitem__):
            for query in queries:
                pieces, dist = table2.position_path(*query)
                assert pieces_distance(pieces) == pytest.approx(dist, abs=1e-9)
            assert check_table(g2, table2) == []
        for seed in range(3):
            grid = tied_grid()
            new_id = scrambled(grid, random.Random(seed)).__getitem__
            assert_smallest_shortest_vertex_sequences(relabelled(grid, new_id))

    def test_edges_to_missing_vertices(self):
        # edge 20 leaves missing vertex -9 for vertex 1, edge 21 runs from vertex 2 to missing 1000
        g = two_cycle()
        g.add_edge(20, -9, 1, 13.4, 20, length=30.0)
        g.add_edge(21, 2, 1000, 13.4, 20, length=40.0)
        stop = g.place_stop(10, 20.0, "other")    # root: vertex 1
        g.place_stop(11, 20.0, "other")            # root: vertex 2
        table = build_stop_distance_table(g)
        assert distances_to(table) == {1: {1: 0.0, 2: 100.0, -9: 30.0}, 2: {2: 0.0, 1: 100.0, -9: 130.0}}
        assert table.distance_from_position(20, 10.0, stop.id) == 40.0
        assert table.position_path(20, 10.0, stop.id) == (((20, 10.0, 30.0), (10, 0.0, 20.0)), 40.0)
        with pytest.raises(NotFoundError, match="vertex 1 unreachable from 1000"):
            table.distance_from_position(21, 0.0, stop.id)
        g.place_stop(21, 5.0, "other")
        with pytest.raises(NotFoundError, match="unreachable from 1000"):
            build_stop_distance_table(g)


class TestOracleInternals:
    def test_merged_stops_at_identical_position(self):
        g = two_cycle()
        a = g.place_stop(10, 40.0, "other")
        b = g.place_stop(10, 40.0, "other")
        dists = split_stop_distances(g)
        assert dists[(a.id, b.id)] == 0.0
        assert dists[(b.id, a.id)] == 0.0

    def test_check_table_reports_a_nan_entry(self):
        g = generate_network(SyntheticSpec())
        table = build_stop_distance_table(g)
        ids = table.stop_ids()
        a, b = ids[2], ids[9]
        table._rows[a][table._col[b]] = math.nan
        [(origin, dest, got, want)] = check_table(g, table)
        assert (origin, dest) == (a, b)
        assert math.isnan(got) and want > 0.0

    def test_check_table_on_the_400_m_city_peaks_under_1_5_mb(self):
        g = generate_network(CITY_400M)
        table = build_stop_distance_table(g)
        tracemalloc.start()
        try:
            assert check_table(g, table) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 12,432 pairs held at once, in a dict and then sorted, peaked at 2.58 MB;
        # the split graph, one origin's search and its row of 111 pairs come to about 1.0 MB
        assert peak < 1.5 * 2**20

    def test_check_table_compares_each_origin_before_the_next_and_reports_pairs_in_order(self, monkeypatch):
        g = generate_network(CITY_400M)
        table = build_stop_distance_table(g)
        ids = table.stop_ids()
        want = split_stop_distances(g)
        corrupt = [(ids[70], ids[3]), (ids[5], ids[90]), (ids[70], ids[1]), (ids[111], ids[0])]
        for a, b in corrupt:
            table._rows[a][table._col[b]] += 1.0
        events = []   # None for an oracle search, the origin for a table lookup
        search, lookup = oracle._dijkstra, table.distance
        monkeypatch.setattr(oracle, "_dijkstra", lambda adj, source: events.append(None) or search(adj, source))
        monkeypatch.setattr(table, "distance", lambda a, b: events.append(a) or lookup(a, b))
        assert check_table(g, table) == [(a, b, lookup(a, b), want[a, b]) for a, b in sorted(corrupt)]
        assert events == [e for a in ids for e in [None] + [a] * (len(ids) - 1)]


class TestNetworkRecords:
    def test_records_have_slots_and_no_instance_dict(self):
        g = two_cycle()
        stop = g.place_stop(10, 40.0, "other")
        for record in (g.vertex(1), g.edge(10), stop):
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.id = 7

    @pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL], ids=["default", "highest"])
    def test_a_pickled_graph_loads_with_the_same_records_and_out_lists(self, protocol):
        g = generate_network(SyntheticSpec(seed=3))
        loaded = pickle.loads(pickle.dumps(g, protocol=protocol))
        assert graph_to_dict(loaded) == graph_to_dict(g)
        assert [loaded.out_edges(v.id) for v in loaded.vertices()] == [g.out_edges(v.id) for v in g.vertices()]
        edge = loaded.edge(0)
        assert not hasattr(edge, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            edge.length = 1.0


class TestNetworkFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(9)
        g = random_connected_graph(rng, max_vertices=10, max_edges=25)
        scatter_stops(rng, g, 4)
        path = tmp_path / "net.json"
        save_network(g, str(path))
        g2 = load_network(str(path))
        assert graph_to_dict(g) == graph_to_dict(g2)

    def test_save_deterministic(self, tmp_path):
        rng = random.Random(9)
        g = random_connected_graph(rng, max_vertices=10, max_edges=25)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_network(g, str(p1))
        save_network(g, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_record_per_line(self, tmp_path):
        rng = random.Random(9)
        g = random_connected_graph(rng, max_vertices=10, max_edges=25)
        scatter_stops(rng, g, 4)
        path = tmp_path / "net.json"
        save_network(g, str(path))
        lines = path.read_text(encoding="utf-8").split("\n")
        doc = graph_to_dict(g)
        records = [json.loads(line.rstrip(",")) for line in lines if line.startswith("{\"")]
        assert records == doc["edges"] + doc["stops"] + doc["vertices"]
        assert len(lines) == len(records) + 2 * len(doc) + 3   # braces, section brackets, final newline

    def test_text_that_looks_like_a_record_boundary_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(netgraph, "ZONES", (*netgraph.ZONES, "a}, {b"))
        g = random_connected_graph(random.Random(9), max_vertices=10, max_edges=25)
        g.place_stop(0, 0.0, "a}, {b")
        path = tmp_path / "net.json"
        with pytest.raises(ConsistencyError, match="stops"):
            save_network(g, str(path))
        assert not path.exists()

    def test_loader_rejects_invalid(self, tmp_path):
        doc = {
            "vertices": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 100.0, "y": 0.0}],
            "edges": [{"id": 10, "source": 1, "sink": 2, "free_flow_speed": 13.4, "capacity_vehicles": 20}],
            "stops": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError):
            load_network(str(path))
        g = load_network(str(path), validate=False)
        assert not validate_graph(g).ok

    def test_length_computed_when_omitted(self, tmp_path):
        doc = {
            "vertices": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 3.0, "y": 4.0}],
            "edges": [
                {"id": 10, "source": 1, "sink": 2, "free_flow_speed": 13.4, "capacity_vehicles": 20},
                {"id": 11, "source": 2, "sink": 1, "free_flow_speed": 13.4, "capacity_vehicles": 20},
            ],
            "stops": [{"id": 0, "edge": 10, "slack": 2.5, "zone": "other"}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        g = load_network(str(path))
        assert g.edge(10).length == 5.0
        assert g.stop(0).zone == "other"
