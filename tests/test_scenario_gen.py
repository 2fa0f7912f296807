import json
import math

import pytest

from savsim.demand import DemandProfile
from savsim.errors import InvalidInputError
from savsim.netgraph import _shortest_tree, graph_to_dict, validate_graph
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
    graph = generate_network(SyntheticSpec())
    diameter = 0.0
    for v in graph.vertices():
        tree = _shortest_tree(graph, v.id)
        diameter = max(diameter, max(d for d, _ in tree.values()))
    assert diameter >= 14484.0


def test_deterministic_serialization():
    a = generate_network(SyntheticSpec(seed=5))
    b = generate_network(SyntheticSpec(seed=5))
    assert json.dumps(graph_to_dict(a), sort_keys=True) == json.dumps(graph_to_dict(b), sort_keys=True)
    c = generate_network(SyntheticSpec(seed=6))
    assert json.dumps(graph_to_dict(a), sort_keys=True) != json.dumps(graph_to_dict(c), sort_keys=True)


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
