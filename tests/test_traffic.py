import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savsim.demand import DemandProfile
from savsim.engine import Scenario, _Runtime, background_field
from savsim.netgraph import DirectedEdge
from savsim.traffic import (
    DEFAULT_PROFILES,
    BackgroundFlow,
    BackgroundTraffic,
    BackgroundVehicle,
    BehaviorProfile,
    attainable_speed,
    count_stop_event,
    edge_speed,
    get_profile,
    profiles_from_dict,
)
from savsim.errors import InvalidInputError

from randnets import ring_network


EDGE = DirectedEdge(0, 1, 2, 1341.0, 13.41, 100)


def test_empty_road_free_flow():
    assert edge_speed(EDGE, 0) == EDGE.free_flow_speed


def test_half_capacity_half_speed():
    assert edge_speed(EDGE, 50) == pytest.approx(EDGE.free_flow_speed / 2)


def test_over_capacity_crawl_floor():
    assert edge_speed(EDGE, 200) == pytest.approx(0.05 * EDGE.free_flow_speed)


def travel_time(occupancy: int, profile: str) -> float:
    return EDGE.length / attainable_speed(EDGE, occupancy, DEFAULT_PROFILES[profile])


def test_travel_time_normal():
    assert travel_time(0, "normal") == pytest.approx(100.0)


def test_travel_time_cautious():
    assert travel_time(0, "cautious") == pytest.approx(100.0 / 0.85)


def test_travel_time_aggressive_capped():
    assert travel_time(0, "aggressive") == pytest.approx(100.0)
    assert attainable_speed(EDGE, 0, DEFAULT_PROFILES["aggressive"]) == EDGE.free_flow_speed


def test_travel_time_monotone_in_occupancy():
    prev = 0.0
    for occ in range(0, 150, 10):
        t = travel_time(occ, "normal")
        assert t >= prev
        prev = t


def test_travel_time_monotone_in_speed_factor():
    times = [travel_time(30, name) for name in ("cautious", "normal", "aggressive")]
    assert times[0] >= times[1] >= times[2]


def test_delay_nonnegative_for_slow_profiles():
    free = EDGE.length / EDGE.free_flow_speed
    for occ in (0, 20, 80, 300):
        for name in ("cautious", "normal"):
            assert travel_time(occ, name) >= free - 1e-12


def test_profile_ordering():
    c, n, a = (DEFAULT_PROFILES[k].speed_factor for k in ("cautious", "normal", "aggressive"))
    assert c < n < a


def test_stop_event_crossings():
    assert count_stop_event(5.0, 0.5) is True
    assert count_stop_event(0.5, 0.2) is False
    assert count_stop_event(0.5, 5.0) is False


def test_profile_overrides():
    table = profiles_from_dict({"normal": {"dwell_time": 30.0}})
    assert table["normal"].dwell_time == 30.0
    assert table["normal"].speed_factor == 1.0
    assert table["cautious"] == DEFAULT_PROFILES["cautious"]


def test_unknown_profile():
    with pytest.raises(InvalidInputError):
        get_profile("reckless")


def test_background_flow_validation():
    with pytest.raises(InvalidInputError):
        BackgroundFlow(1, 1, 10.0)
    with pytest.raises(InvalidInputError):
        BackgroundFlow(1, 2, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="rate"):
            BackgroundFlow(0, 1, bad)


def test_behavior_profile_validation():
    for speed_factor in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="speed_factor"):
            BehaviorProfile("p", speed_factor, 12.0)
    for dwell_time in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="dwell_time"):
            BehaviorProfile("p", 1.0, dwell_time)
    with pytest.raises(InvalidInputError, match="speed_factor"):
        profiles_from_dict({"normal": {"speed_factor": 0}})


def test_occupancy_change_at_t_is_seen_at_t():
    traffic = BackgroundTraffic([], [], 3600.0, 0, sample=True)
    t = 100.0
    first, second = BackgroundVehicle((EDGE,)), BackgroundVehicle((EDGE,))
    exit_time = traffic.advance(first, t)
    traffic.advance(second, t)   # a second change at the same instant
    assert traffic.occupancy_at(EDGE.id, t) == 2
    assert traffic.occupancy_at(EDGE.id, math.nextafter(t, 0)) == 0
    assert traffic.advance(first, exit_time) is None
    assert traffic.occupancy_at(EDGE.id, exit_time) == 1
    assert traffic.occupancy_at(EDGE.id, math.nextafter(exit_time, 0)) == 2
    assert traffic.occupancy_at(EDGE.id + 1, t) == 0   # an edge nobody entered


RING_VERTICES = st.integers(0, 3)


@settings(max_examples=40, deadline=None)
@given(
    flows=st.lists(
        st.tuples(RING_VERTICES, RING_VERTICES, st.floats(1.0, 400.0)).filter(lambda f: f[0] != f[1]),
        min_size=1, max_size=4,
    ),
    seed=st.integers(0, 10**6),
    horizon=st.floats(60.0, 3600.0),
    data=st.data(),
)
def test_occupancy_at_is_the_last_sample_at_or_before_t(flows, seed, horizon, data):
    scenario = Scenario(
        graph=ring_network(), demand=DemandProfile(outbound_rate=0.0, inbound_rate=0.0),
        background_flows=[BackgroundFlow(*f) for f in flows], fleet_size=0, horizon=horizon,
        replications=1, base_seed=seed,
    )
    traffic = background_field(scenario, _Runtime(scenario), 0, sample=True)
    sample_times = [t for t, _, _ in traffic.samples]
    times = st.floats(0.0, horizon)
    if sample_times:
        times = st.one_of(times, st.sampled_from(sample_times),
                          st.sampled_from(sample_times).map(lambda t: math.nextafter(t, 0)))
    for t in data.draw(st.lists(times, min_size=1, max_size=20)):
        for edge in scenario.graph.edges():
            seen = [occ for when, eid, occ in traffic.samples if eid == edge.id and when <= t]
            assert traffic.occupancy_at(edge.id, t) == (seen[-1] if seen else 0)
