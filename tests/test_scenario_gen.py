import hashlib
import json
import math

import pytest

from savsim.demand import DemandProfile
from savsim.errors import InvalidInputError
from savsim.netgraph import graph_to_dict, shortest_path, validate_graph
from savsim.scenario_gen import (
    MAX_GRID_VERTICES,
    SyntheticSpec,
    default_background_flows,
    default_scenario,
    generate_network,
)


def test_default_passes_validation():
    graph = generate_network(SyntheticSpec())
    assert validate_graph(graph).ok


def test_bounding_box_exact():
    graph = generate_network(SyntheticSpec())
    xs = [v.x for v in graph.vertices()]
    ys = [v.y for v in graph.vertices()]
    assert max(xs) - min(xs) == 14484.0
    assert max(ys) - min(ys) == 12875.0


def test_stop_counts_and_zones():
    graph = generate_network(SyntheticSpec())
    zones = [s.zone for s in graph.stops()]
    assert zones.count("peripheral_housing") == 8
    assert zones.count("central_opportunity") == 6


def test_peripheral_farther_than_central():
    graph = generate_network(SyntheticSpec())
    cx, cy = 14484.0 / 2.0, 12875.0 / 2.0
    def gap(stop):
        edge = graph.edge(stop.edge)
        a, b = graph.vertex(edge.source), graph.vertex(edge.sink)
        f = stop.slack / edge.length
        return math.hypot(a.x + f * (b.x - a.x) - cx, a.y + f * (b.y - a.y) - cy)
    peripheral = [gap(s) for s in graph.stops() if s.zone == "peripheral_housing"]
    central = [gap(s) for s in graph.stops() if s.zone == "central_opportunity"]
    assert min(peripheral) > max(central)


def test_diameter_spans_width():
    spec = SyntheticSpec()
    graph = generate_network(spec)
    for flow in default_background_flows(spec):   # the four corner-to-opposite-corner pairs
        assert shortest_path(graph, flow.origin_vertex, flow.destination_vertex)[1] >= 14484.0


def test_deterministic_serialization():
    a = generate_network(SyntheticSpec(seed=5))
    b = generate_network(SyntheticSpec(seed=5))
    assert json.dumps(graph_to_dict(a), sort_keys=True) == json.dumps(graph_to_dict(b), sort_keys=True)
    c = generate_network(SyntheticSpec(seed=6))
    assert json.dumps(graph_to_dict(a), sort_keys=True) != json.dumps(graph_to_dict(c), sort_keys=True)


def network_digest(graph) -> str:
    """SHA-256 of the sorted-key network document, then of every vertex's out-edge ids in order."""
    digest = hashlib.sha256(json.dumps(graph_to_dict(graph), sort_keys=True).encode())
    digest.update(json.dumps([[e.id for e in graph.out_edges(v.id)] for v in graph.vertices()]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("fields, expected", [
    ({"seed": 0}, "8ff7ccffb7296dba0c350c10c4a5abbf66ba6ffa537bc595c1e59b296b4010ca"),
    ({"seed": 1}, "34f3575fe465a9e95d6bd9139e7674772b493d047c6fa4729cc68264feee7ea9"),
    ({"seed": 2}, "4532c50953b236a962d203cc0e8795ed62d8eb2b17318341c4b8a41346c2b8c4"),
    ({"seed": 3}, "69b851d79ef2dc26b32eb5cbcc62fdae13cb24dd31efc37c009836734557b5da"),
    ({"seed": 4}, "ce75d9099576192c31673b8b14845737cf0937a21da2fbbdad745f9afd8c6526"),
    ({"grid_spacing": 400.0, "peripheral_stop_count": 56, "central_stop_count": 56, "seed": 424242},
     "09f36959ecd2cf02c562320b4b310430d4d786c7db6f3ff21fc29851d6d5774f"),
    ({"width": 5000.0, "height": 4000.0, "grid_spacing": 5000.0,   # no middle third: the nearest-road fallback
      "peripheral_stop_count": 2, "central_stop_count": 1},
     "f8df2228f0892423378a38940e230913fae3ca6aa461e09b5c5df2a262600650"),
    ({"width": 3000.0, "height": 20000.0, "grid_spacing": 700.0},
     "3e7aec5a792215fb66368560bd5e9b0c6a55e585d6349cd6a30fbb3042e63629"),
    ({"grid_spacing": 100.0, "peripheral_stop_count": 200, "central_stop_count": 300},
     "28d3be961a3af2a20dd5a28fd69c10d62c7e479d41f6a74b01485960fb8eed89"),
])
def test_generated_networks_are_locked(fields, expected):
    assert network_digest(generate_network(SyntheticSpec(**fields))) == expected


def test_degenerate_grid_still_strongly_connected():
    spec = SyntheticSpec(
        width=5000.0, height=4000.0, grid_spacing=5000.0,
        peripheral_stop_count=2, central_stop_count=1,
    )
    graph = generate_network(spec)
    assert len(graph) == 4
    assert validate_graph(graph).ok


def test_too_many_stops_rejected():
    spec = SyntheticSpec(
        width=5000.0, height=4000.0, grid_spacing=5000.0,
        peripheral_stop_count=50, central_stop_count=1,
    )
    with pytest.raises(InvalidInputError):
        generate_network(spec)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        SyntheticSpec(width=0.0)
    with pytest.raises(InvalidInputError):
        SyntheticSpec(peripheral_stop_count=0)


def test_spec_rejects_grids_beyond_the_vertex_bound():
    """Only specs are built: a missing bound fails the test without allocating a grid."""
    wide = MAX_GRID_VERTICES // 2   # a strip two vertices high and `wide` long holds the bound exactly
    for fields in ({"grid_spacing": 1.0}, {"width": 1e308, "height": 1e308, "grid_spacing": 1e-300},
                   {"width": float(wide), "height": 1.0, "grid_spacing": 1.0}):
        with pytest.raises(InvalidInputError, match="width, height and grid_spacing give"):
            SyntheticSpec(**fields)
    SyntheticSpec(width=wide - 1.0, height=1.0, grid_spacing=1.0)
    SyntheticSpec(grid_spacing=400.0, peripheral_stop_count=56, central_stop_count=56)   # the 400 m city


def test_default_scenario_protocol_defaults():
    scenario = default_scenario()
    assert scenario.demand == DemandProfile(outbound_rate=9.0, inbound_rate=6.0)
    assert scenario.replications == 20
    assert scenario.policy.overdue_threshold == 1200.0
    assert scenario.fleet_size == 8
    assert scenario.horizon == 14400.0
    assert len(scenario.background_flows) == 4


def test_background_flows_reference_corners():
    spec = SyntheticSpec()
    graph = generate_network(spec)
    for flow in default_background_flows(spec):
        assert graph.has_vertex(flow.origin_vertex)
        assert graph.has_vertex(flow.destination_vertex)
