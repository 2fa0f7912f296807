"""Seeded random networks shared by unit and acceptance tests."""

from __future__ import annotations

import math
import random

from savsim.netgraph import RoadGraph, Stop

ZONE_CYCLE = ("peripheral_housing", "central_opportunity", "other")


def random_connected_graph(rng: random.Random, max_vertices: int = 30, max_edges: int = 80) -> RoadGraph:
    """Random strongly connected graph: a spanning cycle plus extra edges.

    Coordinates are distinct integers so every edge has positive length.
    """
    n = rng.randint(3, max_vertices)
    graph = RoadGraph()
    points: set[tuple[int, int]] = set()
    for vid in range(n):
        while True:
            p = (rng.randint(0, 3000), rng.randint(0, 3000))
            if p not in points:
                points.add(p)
                break
        graph.add_vertex(vid, float(p[0]), float(p[1]))
    order = list(range(n))
    rng.shuffle(order)
    pairs: set[tuple[int, int]] = set()
    eid = 0
    for a, b in zip(order, order[1:] + order[:1]):
        graph.add_edge(eid, a, b, 15.0, 50)
        pairs.add((a, b))
        eid += 1
    target = rng.randint(n, max(n, min(max_edges, n * (n - 1))))
    tries = 0
    while eid < target and tries < 4 * max_edges:
        tries += 1
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b or (a, b) in pairs:
            continue
        graph.add_edge(eid, a, b, 15.0, 50)
        pairs.add((a, b))
        eid += 1
    return graph


def ring_network(side: float = 2000.0, speed: float = 10.0) -> RoadGraph:
    """Square ring, both directions, two peripheral and two central stops."""
    g = RoadGraph()
    corners = ((0.0, 0.0), (side, 0.0), (side, side), (0.0, side))
    for vid, (x, y) in enumerate(corners):
        g.add_vertex(vid, x, y)
    eid = 0
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.add_edge(eid, a, b, speed, 50)
        g.add_edge(eid + 1, b, a, speed, 50)
        eid += 2
    g.place_stop(0, side * 0.25, "peripheral_housing")
    g.place_stop(2, side * 0.25, "central_opportunity")
    g.place_stop(4, side * 0.25, "peripheral_housing")
    g.place_stop(6, side * 0.25, "central_opportunity")
    return g


def star_network(leaves: int, hub: int = 1000) -> RoadGraph:
    """A ``hub`` vertex joined both ways to ``leaves`` vertices 1, 2, ... on a 100 m circle around
    it: edge ``2k`` runs from the hub to leaf ``k`` and edge ``2k + 1`` back.  Stop 0 is 10 m along
    the edge to leaf 1, and stop 1 is 10 m along the last leaf's edge back to the hub."""
    g = RoadGraph()
    g.add_vertex(hub, 0.0, 0.0)
    for k in range(1, leaves + 1):
        angle = 2 * math.pi * k / leaves
        g.add_vertex(k, 100.0 * math.cos(angle), 100.0 * math.sin(angle))
        g.add_edge(2 * k, hub, k, 13.4, 20)
        g.add_edge(2 * k + 1, k, hub, 13.4, 20)
    g.place_stop(2, 10.0, "other", stop_id=0)
    g.place_stop(2 * leaves + 1, 10.0, "other", stop_id=1)
    return g


def scatter_stops(rng: random.Random, graph: RoadGraph, count: int) -> list[Stop]:
    """Place ``count`` stops on random edges at random slacks."""
    edges = list(graph.edges())
    stops = []
    for k in range(count):
        e = rng.choice(edges)
        slack = rng.uniform(0.0, e.length)
        stops.append(graph.place_stop(e.id, slack, ZONE_CYCLE[k % 3]))
    return stops
