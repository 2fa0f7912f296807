import math
import statistics

import pytest

from savsim.demand import DemandProfile, generate_requests
from savsim.errors import InvalidInputError
from savsim.netgraph import RoadGraph


def stop_grid():
    """Two-vertex loop with stops in both demand zones."""
    g = RoadGraph()
    g.add_vertex(1, 0.0, 0.0)
    g.add_vertex(2, 1000.0, 0.0)
    g.add_edge(10, 1, 2, 15.0, 50)
    g.add_edge(11, 2, 1, 15.0, 50)
    g.place_stop(10, 100.0, "peripheral_housing")
    g.place_stop(10, 900.0, "central_opportunity")
    g.place_stop(11, 500.0, "peripheral_housing")
    g.place_stop(11, 800.0, "central_opportunity")
    return g


def test_zero_rates_empty():
    g = stop_grid()
    profile = DemandProfile(outbound_rate=0.0, inbound_rate=0.0)
    assert generate_requests(profile, list(g.stops()), seed=1, horizon=14400.0) == []


def test_fixed_seed_reproducible():
    g = stop_grid()
    profile = DemandProfile(outbound_rate=12.0, inbound_rate=5.0)
    a = generate_requests(profile, list(g.stops()), seed=42, horizon=7200.0)
    b = generate_requests(profile, list(g.stops()), seed=42, horizon=7200.0)
    assert a == b
    c = generate_requests(profile, list(g.stops()), seed=43, horizon=7200.0)
    assert a != c


def test_sorted_ids_sequential():
    g = stop_grid()
    profile = DemandProfile(outbound_rate=20.0, inbound_rate=20.0)
    reqs = generate_requests(profile, list(g.stops()), seed=5, horizon=3600.0)
    assert [r.id for r in reqs] == list(range(len(reqs)))
    assert all(a.request_time <= b.request_time for a, b in zip(reqs, reqs[1:]))
    assert all(r.request_time < 3600.0 for r in reqs)


def test_zone_direction_consistency():
    g = stop_grid()
    zones = {s.id: s.zone for s in g.stops()}
    profile = DemandProfile(outbound_rate=15.0, inbound_rate=15.0)
    for r in generate_requests(profile, list(g.stops()), seed=8, horizon=7200.0):
        assert {zones[r.origin], zones[r.destination]} == {
            "peripheral_housing",
            "central_opportunity",
        }
        assert r.origin != r.destination
        assert r.party_size in (1, 2, 3)


def test_single_direction_respects_rate_zones():
    g = stop_grid()
    zones = {s.id: s.zone for s in g.stops()}
    outbound_only = DemandProfile(outbound_rate=15.0, inbound_rate=0.0)
    for r in generate_requests(outbound_only, list(g.stops()), seed=8, horizon=7200.0):
        assert zones[r.origin] == "peripheral_housing"
        assert zones[r.destination] == "central_opportunity"
    inbound_only = DemandProfile(outbound_rate=0.0, inbound_rate=15.0)
    for r in generate_requests(inbound_only, list(g.stops()), seed=8, horizon=7200.0):
        assert zones[r.origin] == "central_opportunity"
        assert zones[r.destination] == "peripheral_housing"


def test_poisson_mean_matches_rate():
    # outbound 10/h over 10h: mean count over many seeds should sit near 100
    g = stop_grid()
    profile = DemandProfile(outbound_rate=10.0, inbound_rate=0.0)
    stops = list(g.stops())
    counts = [len(generate_requests(profile, stops, seed=s, horizon=36000.0)) for s in range(1500)]
    assert 95.0 <= statistics.mean(counts) <= 105.0


def test_missing_zone_rejected():
    g = RoadGraph()
    g.add_vertex(1, 0.0, 0.0)
    g.add_vertex(2, 1000.0, 0.0)
    g.add_edge(10, 1, 2, 15.0, 50)
    g.add_edge(11, 2, 1, 15.0, 50)
    g.place_stop(10, 100.0, "peripheral_housing")
    profile = DemandProfile(outbound_rate=10.0, inbound_rate=0.0)
    with pytest.raises(InvalidInputError):
        generate_requests(profile, list(g.stops()), seed=1, horizon=14400.0)


def test_profile_validation():
    with pytest.raises(InvalidInputError):
        DemandProfile(outbound_rate=-1.0)
    with pytest.raises(InvalidInputError):
        DemandProfile(party_size_weights={1: 0.5, 2: 0.3})
    for bad in (math.nan, math.inf):
        for field in ("outbound_rate", "inbound_rate"):
            with pytest.raises(InvalidInputError, match=field):
                DemandProfile(**{field: bad})
        with pytest.raises(InvalidInputError):
            DemandProfile(party_size_weights={1: bad})
    for sizes in ({-2: 1.0}, {0: 0.5, 1: 0.5}, {0: 0.0, 1: 1.0}):   # below 1 would serve negative passengers
        with pytest.raises(InvalidInputError, match="party_size_weights"):
            DemandProfile(party_size_weights=sizes)
