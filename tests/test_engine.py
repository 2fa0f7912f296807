import concurrent.futures
import csv
import dataclasses
import gc
import io
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import weakref
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savsim import dispatch, engine
from savsim.demand import DemandProfile, TripRequest
from savsim.dispatch import DispatchPolicy
from savsim.engine import (
    Scenario,
    _LegPlan,
    _Replication,
    _Runtime,
    draw_index,
    load_scenario,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
)
from savsim.errors import ConfigurationError, ConsistencyError, SimulationError, record_kinds
from savsim.metrics import aggregate, events_to_csv, records_to_csv
from savsim.netgraph import RoadGraph, build_stop_distance_table, save_network, shortest_path, validate_graph
from savsim.scenario_gen import default_scenario
from savsim.traffic import (
    DEFAULT_PROFILES,
    BackgroundFlow,
    BehaviorProfile,
    attainable_speed,
    count_stop_event,
    drive,
    edge_speed,
    occupancy_rows,
)

from brute import brute_best_shared
from randnets import ZONE_CYCLE, random_connected_graph, ring_network


def quiet_demand() -> DemandProfile:
    return DemandProfile(outbound_rate=0.0, inbound_rate=0.0)


def busy_scenario(**overrides) -> Scenario:
    base = dict(
        graph=ring_network(),
        name="ring",
        demand=DemandProfile(outbound_rate=12.0, inbound_rate=8.0),
        fleet_size=2,
        horizon=7200.0,
        replications=3,
        base_seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


def new_replication(scenario: Scenario, index: int = 0, collect_log: bool = False) -> _Replication:
    """A replication set up the way ``simulate`` sets one up, for the test to run."""
    runtime = _Runtime(scenario)
    draw = draw_index(scenario, runtime, index)
    return _Replication(runtime, scenario, index, draw, collect_log)


def line_graph() -> RoadGraph:
    g = RoadGraph()
    g.add_vertex(0, 0.0, 0.0)
    g.add_vertex(1, 1000.0, 0.0)
    g.add_edge(0, 0, 1, 10.0, 50)
    g.add_edge(1, 1, 0, 10.0, 50)
    g.place_stop(0, 200.0, "peripheral_housing")   # stop 0
    g.place_stop(0, 800.0, "central_opportunity")  # stop 1
    return g


class TestEmptySimulation:
    def test_all_metrics_zero(self):
        scenario = Scenario(
            graph=ring_network(), demand=quiet_demand(), fleet_size=0, replications=1
        )
        record = simulate(scenario, 0).record
        assert record.trips_completed == 0
        assert record.total_distance_m == 0.0
        assert record.avg_wait_min == 0.0
        assert record.avg_delay_min == 0.0
        assert record.shared_miles_m == 0.0
        assert record.unserved == 0

    def test_demand_with_no_fleet_stays_unassigned(self, monkeypatch):
        # with no vehicle no request is ever offered or selected, and each
        # one seen is still waiting, unserved, at the horizon
        monkeypatch.setattr(engine, "select_next_request", None)   # a selection fails the test
        scenario = dataclasses.replace(default_scenario(), fleet_size=0, replications=2)
        for index in range(scenario.replications):
            rep = new_replication(scenario, index)
            record = rep.run().record
            seen = rep.metrics.requests_seen
            assert seen > 0 and list(rep.by_state["unassigned"]) == [r.id for r in rep.requests][:seen]
            assert {state: len(held) for state, held in rep.by_state.items()} == {
                "unassigned": seen, "assigned": 0, "onboard": 0, "completed": 0}
            assert record.unserved == seen
            assert record.trips_completed == 0
            assert record.avg_wait_min == 0.0


def waits_from_log(rows, request_times: dict[int, float], dwell: float) -> list[tuple[int, float]]:
    """Each pickup's dwell slot k and wait, in log order, from the event log alone.

    A ``pickup`` or ``dropoff`` row carries its vehicle's arrival time, and
    the k-th such row after that vehicle's ``arrive`` row ends k dwell
    periods later: the wait is row time + k x dwell - request time.
    """
    slot: dict[int, int] = {}
    out = []
    for time, sav, kind, request in rows:
        if kind == "arrive":
            slot[sav] = 0
        elif kind in ("pickup", "dropoff"):
            slot[sav] += 1
            if kind == "pickup":
                out.append((slot[sav], time + slot[sav] * dwell - request_times[request]))
    return out


class TestWaitsFromTheLog:
    @pytest.mark.parametrize("demand_factor", [1, 4])
    def test_each_wait_is_rederived_from_the_event_log(self, demand_factor):
        base = default_scenario()
        demand = dataclasses.replace(base.demand, outbound_rate=base.demand.outbound_rate * demand_factor,
                                     inbound_rate=base.demand.inbound_rate * demand_factor)
        scenario = dataclasses.replace(base, demand=demand, fleet_size=2, replications=4)
        slots = []
        for index in range(scenario.replications):
            rep = new_replication(scenario, index, collect_log=True)
            rep.run()
            times = {r.id: r.request_time for r in rep.requests}
            dwell = rep.profile.dwell_time
            derived = waits_from_log([(e.time, e.sav, e.kind, e.request) for e in rep.log], times, dwell)
            assert [wait for _, wait in derived] == rep.metrics.wait_seconds   # exactly
            slots += [k for k, _ in derived]
            # the same rule on events.csv, whose times are written in round-trip form
            rows = [(float(row["time_s"]), int(row["sav"]), row["event"],
                     int(row["request"]) if row["request"] else None)
                    for row in csv.DictReader(io.StringIO(events_to_csv([(index, rep.log)])))]
            from_file = [wait for _, wait in waits_from_log(rows, times, dwell)]
            assert from_file == rep.metrics.wait_seconds   # exactly
        assert max(slots) >= 2   # some party boards after another's slot, so k is not always 1


class TestSingleRequestClosedForm:
    def test_wait_is_travel_plus_dwell(self):
        graph = line_graph()
        scenario = Scenario(
            graph=graph, demand=quiet_demand(), fleet_size=1, horizon=7200.0, replications=1
        )
        rep = new_replication(scenario)
        # sav parks at stop 0 (edge 0, slack 200); pickup at stop 1 is 600 m ahead
        rep.requests = [TripRequest(0, 1, 0, 100.0, 2)]
        result = rep.run()
        record = result.record
        assert record.trips_completed == 1
        assert record.passengers_served == 2
        assert record.unserved == 0
        # 600 m at 10 m/s plus one 12 s dwell slot
        assert record.avg_wait_min == pytest.approx((60.0 + 12.0) / 60.0, abs=1e-9)
        # pickup leg 600 m, dropoff leg loops: 200 + 1000 + 200 = 1400 m
        assert record.sav_distance_m == pytest.approx(2000.0, abs=1e-9)


class TestDeterminism:
    def test_identical_records(self):
        scenario = busy_scenario()
        a = simulate(scenario, 1).record
        b = simulate(scenario, 1).record
        assert a == b

    def test_identical_event_logs(self):
        scenario = busy_scenario()
        a = simulate(scenario, 0, collect_log=True)
        b = simulate(scenario, 0, collect_log=True)
        assert a.log == b.log
        assert a.log  # something actually happened

    def test_different_seeds_differ(self):
        scenario = busy_scenario()
        assert simulate(scenario, 0).record != simulate(scenario, 1).record


class TestConservation:
    def test_final_counts_balance(self):
        scenario = busy_scenario(fleet_size=1)
        rep = new_replication(scenario)
        result = rep.run()
        sizes = {state: len(held) for state, held in rep.by_state.items()}
        assert sum(sizes.values()) == rep.metrics.requests_seen
        assert sizes["completed"] == result.record.trips_completed
        assert result.record.unserved == rep.metrics.requests_seen - sizes["completed"]

    def test_fleet_or_metrics_disagreeing_with_request_states_is_caught(self):
        scenario = busy_scenario(fleet_size=1)
        corruptions = (
            lambda rep: rep.savs[0].onboard.update({10**6: 1}),
            lambda rep: setattr(rep.metrics, "trips_completed", rep.metrics.trips_completed + 1),
            lambda rep: rep.metrics.wait_seconds.append(0.0),
        )
        for corrupt in corruptions:
            rep = new_replication(scenario)
            rep.run()
            rep._check_counts()
            corrupt(rep)
            with pytest.raises(ConsistencyError, match="passenger conservation broken"):
                rep._check_counts()

    def test_corruption_mid_run_is_caught_at_that_event(self):
        scenario = busy_scenario(fleet_size=1)
        corruptions = (
            lambda rep: rep.savs[0].onboard.update({10**6: 1}),
            lambda rep: setattr(rep.metrics, "trips_completed", rep.metrics.trips_completed + 1),
            lambda rep: rep.metrics.wait_seconds.append(0.0),
        )
        for corrupt in corruptions:
            rep = new_replication(scenario)
            handler = rep._on_sav_arrival
            corrupted_at = []

            def corrupting(plan):
                handler(plan)
                if not corrupted_at and rep.now > 1000.0:
                    corrupted_at.append(rep.now)
                    corrupt(rep)

            rep._on_sav_arrival = corrupting
            with pytest.raises(ConsistencyError, match="passenger conservation broken") as caught:
                rep.run()
            assert f"at t={corrupted_at[0]}:" in str(caught.value)

    def test_unassigned_request_while_a_vehicle_is_idle_is_caught(self):
        # one vehicle: the first request that arrives while it is busy waits
        # unassigned; marking the vehicle idle then breaks the invariant
        rep = new_replication(busy_scenario(fleet_size=1))
        handler = rep._on_request_arrival
        broken = []

        def idling(request):
            handler(request)
            waiting = len(rep.by_state["unassigned"])
            if not broken and waiting:
                broken.append(f"at t={rep.now} with {waiting} requests unassigned")
                rep.savs[0].status = "idle"

        rep._on_request_arrival = idling
        with pytest.raises(ConsistencyError, match="a vehicle is idle") as caught:
            rep.run()
        assert broken and broken[0] in str(caught.value)

    def test_a_vehicle_turning_idle_selects_only_while_a_request_is_unassigned(self, monkeypatch):
        # the map of unassigned requests that ``advance`` keeps owns "a
        # request waits": with none, a vehicle turning idle does not select,
        # and otherwise it is offered that map alone, not every request seen
        offered = []
        current = [None]   # the replication whose vehicle is turning idle
        dwell_end = _Replication._on_dwell_end

        def ending(rep, sav_id):
            current[0] = rep
            dwell_end(rep, sav_id)

        def select(policy, pending, sav, now, pickup_distance):
            pending = list(pending)
            assert pending and pending == list(current[0].by_state["unassigned"].values())
            offered.append(len(pending))
            return dispatch.select_next_request(policy, pending, sav, now, pickup_distance)

        monkeypatch.setattr(_Replication, "_on_dwell_end", ending)
        monkeypatch.setattr(engine, "select_next_request", select)
        run_sweep(dataclasses.replace(default_scenario(), replications=2), [2, 6, 10],
                  ["cautious", "aggressive"], jobs=1)
        assert offered

    def test_assigning_a_request_twice_is_caught(self):
        # a request leaves the unassigned map once, so one vehicle's route
        # holds its pickup; that is why no request names its vehicle
        rep = new_replication(busy_scenario(fleet_size=2))
        request = rep.requests[0]
        rep.by_state["unassigned"][request.id] = request
        rep._assign(rep.savs[0], request, dispatch.request_legs(request))
        with pytest.raises(ConsistencyError, match=f"request {request.id} is not unassigned"):
            rep._assign(rep.savs[1], request, dispatch.request_legs(request))
        assert rep.by_state["assigned"] == {request.id: request} and not rep.savs[1].route

    def test_a_finished_replication_frees_its_requests_without_the_cycle_collector(self):
        rep = new_replication(busy_scenario(fleet_size=1))
        rep.run()
        rep._check_counts()   # the state maps still serve the checks
        freed = [weakref.ref(pr) for held in rep.by_state.values() for pr in held.values()]
        assert freed
        gc.collect()
        gc.disable()
        try:
            del rep
            assert all(ref() is None for ref in freed)
            assert gc.collect() == 0   # nothing of the replication is left in a cycle
        finally:
            gc.enable()

    def test_background_conservation_and_distance(self):
        scenario = Scenario(
            graph=ring_network(),
            demand=quiet_demand(),
            background_flows=[BackgroundFlow(0, 2, 60.0), BackgroundFlow(2, 0, 60.0)],
            fleet_size=0,
            horizon=3600.0,
            replications=1,
        )
        result = simulate(scenario, 0, collect_occupancy=True)
        assert result.record.total_distance_m > 0
        assert result.record.sav_distance_m == 0.0
        assert result.record.avg_delay_min > 0   # background vehicles fill the delay population
        assert result.occupancy
        times = [t for t, _, _ in occupancy_rows(result.occupancy)]
        assert times == sorted(times)

    def test_record_reads_the_vehicle_tallies_and_the_field_distance_in_order(self):
        # the background vehicles in exit order, then the fleet in id order,
        # then the field's distance before the fleet's: the sums keep one order
        scenario = busy_scenario(
            background_flows=[BackgroundFlow(0, 2, 120.0), BackgroundFlow(2, 0, 90.0)], fleet_size=3
        )
        rep = new_replication(scenario)
        record = rep.run().record
        vehicles = rep.traffic.finished + rep.savs
        assert rep.traffic.finished and any(sav.stops for sav in rep.savs)
        delay = 0.0
        stops = 0
        for vehicle in vehicles:
            delay += vehicle.delay
            stops += vehicle.stops
        assert record.avg_delay_min.hex() == (delay / len(vehicles) / 60.0).hex()
        assert record.avg_stops.hex() == (stops / len(vehicles)).hex()
        assert record.total_distance_m.hex() == (rep.traffic.distance + rep.metrics.sav_distance).hex()
        assert record.sav_distance_m == rep.metrics.sav_distance > 0.0

    def test_edge_state_speed_bounds(self):
        scenario = busy_scenario(
            background_flows=[BackgroundFlow(0, 2, 120.0)], fleet_size=1
        )
        rep = new_replication(scenario)
        rep.run()
        profile = DEFAULT_PROFILES[scenario.profile]
        assert rep.traffic.timelines
        for eid, (_, occupancies) in rep.traffic.timelines.items():
            edge = scenario.graph.edge(eid)
            for occupancy in occupancies:   # every count the edge had, its final one last
                assert occupancy >= 0
                assert 0.05 * edge.free_flow_speed <= edge_speed(edge, occupancy) <= edge.free_flow_speed
                assert 0.0 < attainable_speed(edge, occupancy, profile) <= edge.free_flow_speed

    def test_background_traffic_is_independent_of_the_fleet(self):
        flows = [BackgroundFlow(0, 2, 120.0), BackgroundFlow(2, 0, 90.0)]
        traffic = []
        for fleet_size in (0, 10):
            scenario = busy_scenario(background_flows=flows, fleet_size=fleet_size)
            rep = new_replication(scenario, 1)
            result = rep.run()
            traffic.append(rep.traffic)
        assert result.record.sav_distance_m > 0   # the fleet of 10 did drive
        idle, busy = traffic
        assert idle.timelines and idle.finished
        assert busy.timelines == idle.timelines   # every occupancy change, edge by edge
        assert busy.distance == idle.distance
        assert [(v.delay, v.stops) for v in busy.finished] == [(v.delay, v.stops) for v in idle.finished]

    def test_background_occupancy_leak_is_caught(self):
        scenario = busy_scenario(background_flows=[BackgroundFlow(0, 2, 120.0)])
        rep = new_replication(scenario)
        rep.run()
        rep.traffic.check()
        _, occupancies = next(iter(rep.traffic.timelines.values()))
        occupancies[-1] += 1   # the edge's count now
        with pytest.raises(ConsistencyError, match="background vehicle conservation"):
            rep.traffic.check()

    def test_each_edge_count_is_the_unfinished_vehicles_on_it(self):
        # check() compares totals; here each edge's last count must be the
        # background vehicles injected, not finished, whose current edge it is
        scenario = busy_scenario(background_flows=[BackgroundFlow(0, 2, 120.0), BackgroundFlow(2, 0, 90.0),
                                                   BackgroundFlow(1, 3, 60.0)])
        traffic = new_replication(scenario).traffic
        on_edge = {}
        for _, vehicle in traffic.injections:
            if 0 <= vehicle.index < len(vehicle.route):
                eid = vehicle.route[vehicle.index].id
                on_edge[eid] = on_edge.get(eid, 0) + 1
        counts = {eid: occupancies[-1] for eid, (_, occupancies) in traffic.timelines.items()}
        assert on_edge and traffic.finished   # some vehicles are still driving at the horizon
        assert {eid: n for eid, n in counts.items() if n} == on_edge
        assert all(n >= 0 for n in counts.values())

    def test_no_starvation_with_generous_horizon(self):
        # demand stops at 3600 s, long before the horizon, so every request is served
        scenario = busy_scenario(
            fleet_size=1,
            demand=DemandProfile(outbound_rate=6.0, inbound_rate=4.0),
            horizon=999999.0,
            replications=1,
        )
        rep = new_replication(scenario)
        rep.requests = [r for r in rep.requests if r.request_time < 3600.0]
        result = rep.run()
        assert rep.metrics.requests_seen > 0
        assert result.record.unserved == 0
        assert len(rep.by_state["completed"]) == rep.metrics.requests_seen


class TestCutShortLegs:
    """A leg cut short by a reroute or by the horizon counts its delay pro rata;
    the horizon itself is the first instant not simulated.

    On ``line_graph`` in the cautious profile, with no background traffic,
    every edge is driven at 0.85 of its 10 m/s free flow, so each metre
    driven adds ``1/8.5 - 1/10`` seconds of delay: a cut that dropped its
    delay × fraction would leave the fleet's delay short of that.
    """

    DELAY_PER_METRE = 1.0 / 8.5 - 1.0 / 10.0

    def run(self, requests: list[TripRequest], horizon: float, extra_stop: bool = False) -> _Replication:
        graph = line_graph()
        if extra_stop:
            graph.place_stop(0, 500.0, "peripheral_housing")   # stop 2
        scenario = Scenario(graph=graph, demand=quiet_demand(), fleet_size=1, profile="cautious",
                            horizon=horizon, replications=1)
        rep = new_replication(scenario, collect_log=True)
        rep.requests = requests
        rep.run()
        return rep

    def test_reroute_mid_edge_counts_delay_times_fraction(self):
        # the vehicle leaves stop 0 (slack 200) for stop 1 (slack 800) at t=100;
        # at t=120, 170 m along, a pickup at stop 2 (slack 500) is inserted first
        rep = self.run([TripRequest(0, 1, 0, 100.0, 1), TripRequest(1, 2, 0, 120.0, 1)], 7200.0, True)
        reroutes = [e for e in rep.log if e.kind == "reroute"]
        assert [(e.time, e.distance) for e in reroutes] == [(120.0, pytest.approx(170.0))]
        assert len(rep.by_state["completed"]) == rep.metrics.requests_seen == 2
        assert rep.savs[0].delay == pytest.approx(rep.metrics.sav_distance * self.DELAY_PER_METRE)
        # no edge is driven at a crawl, so the only stops are coming to rest on arrival
        assert rep.savs[0].stops == sum(e.kind == "arrive" for e in rep.log) == 3

    def test_horizon_mid_edge_counts_delay_times_fraction(self):
        # the pickup leg of 600 m takes 600 / 8.5 s from t=100; the horizon cuts it at 30 s
        rep = self.run([TripRequest(0, 1, 0, 100.0, 1)], 130.0)
        assert [(e.kind, e.time) for e in rep.log] == [("assign", 100.0), ("depart", 100.0), ("horizon", 130.0)]
        leg_delay = 600.0 / 8.5 - 600.0 / 10.0
        assert rep.savs[0].delay == pytest.approx(leg_delay * 30.0 / (600.0 / 8.5))
        assert rep.savs[0].delay == pytest.approx(rep.metrics.sav_distance * self.DELAY_PER_METRE)
        assert rep.savs[0].plan is None   # the horizon ended the leg

    def test_request_at_the_horizon_is_never_seen(self):
        at = self.run([TripRequest(0, 1, 0, 130.0, 1)], 130.0)
        assert at.metrics.requests_seen == 0
        assert at.log == []
        before = self.run([TripRequest(0, 1, 0, math.nextafter(130.0, 0), 1)], 130.0)
        assert before.metrics.requests_seen == 1
        assert [e.kind for e in before.log[:2]] == ["assign", "depart"]


def with_last_bit_set(x: float) -> float:
    """``x``, or the next float up if its last mantissa bit is clear."""
    mantissa, _ = math.frexp(x)
    return x if int(mantissa * 2 ** 53) % 2 else math.nextafter(x, math.inf)


def across_a_binade(draw, start: float, wanted) -> float:
    """An end in the binade above ``start`` > 0, at least that binade's power of two past it.

    The end has half the precision of ``start``.  If ``start``'s last bit is
    set, end - start falls half way between two floats, and which way it
    rounds alternates with the end's last bit; of two adjacent ends, the
    first for which ``wanted`` holds is taken.
    """
    power = math.ldexp(1.0, math.frexp(start)[1])
    end = draw(st.floats(start + power, 2 * power))
    return end if wanted(end) else math.nextafter(end, math.inf)


def short_of_a_power_of_two(power: float, duration: float) -> float:
    """A length a few ulps short of ``power`` for which ``length * duration / duration``
    rounds up past the length: the first, counting down from two ulps short, within 1024 ulps.

    One ulp short never rounds past.  If no length within reach does, as for
    a duration whose mantissa is within about 2**-11 of 1, the length two ulps
    short is returned.
    """
    two_short = math.nextafter(math.nextafter(power, 0), 0)
    length = two_short
    for _ in range(1024):
        if length * duration / duration > length:
            return length
        length = math.nextafter(length, 0)
    return two_short


@st.composite
def leg_plans(draw) -> _LegPlan:
    """A plan built the way ``_Replication._build_plan`` builds one, from random pieces.

    Some pieces sit on the rounding edge, where the pro rata values of the
    piece being driven can round past the piece's own.  One ulp before such
    a piece's exit, the time driven rounds to its duration, so the fraction
    driven is 1; this always holds on a first piece, whose entry time is
    free, and on half the later ones.  A third of these pieces also end where
    start offset + (end offset - start offset) rounds past the end offset,
    as a piece that ends at its edge's length can round past the edge, and
    another third are a few ulps short of a power of two, at a length that
    length * duration / duration rounds past.  Every rounding-edge piece's
    delay is drawn that way too, capped at its duration, so that
    delay * duration / duration can round past the delay.
    """
    t = start = draw(st.floats(0.0, 1e5))
    pieces, exits, delays, stops = [], [], [], []
    for edge in range(draw(st.integers(1, 6))):
        a = draw(st.floats(0.0, 1000.0))
        b = draw(st.one_of(st.just(a), st.floats(a, a + 2000.0)))   # zero-length pieces too
        leave, seg_delay, stopped = t, 0.0, False
        if b - a > 0:
            if min(a, t) > 0 and draw(st.booleans()):   # on the rounding edge
                if not pieces:
                    t = start = with_last_bit_set(t)
                leave = across_a_binade(draw, t, lambda leave: math.nextafter(leave, 0) - t == leave - t)
                shape = draw(st.sampled_from(["free", "offset", "length"]))
                if shape == "offset":
                    a = with_last_bit_set(a)
                    b = across_a_binade(draw, a, lambda b: a + (b - a) > b)
                elif shape == "length":
                    length = short_of_a_power_of_two(math.ldexp(1.0, draw(st.integers(0, 11))), leave - t)
                    b = draw(st.floats(length, 2 * length))
                    a = b - length   # exact, as b is within a factor of 2 of length, so b - a == length
                power = math.ldexp(1.0, draw(st.integers(0, 11)))
                seg_delay = min(short_of_a_power_of_two(power, leave - t), leave - t)
            else:
                leave = t + draw(st.floats(0.0, 3600.0))
                seg_delay = draw(st.floats(0.0, leave - t))
            stopped = draw(st.booleans())
        pieces.append((edge, a, b))
        exits.append(leave)
        delays.append(seg_delay)
        stops.append(stopped)
        t = leave
    # the last draw is whether coming to rest is a stop
    return _LegPlan(0, start, t, draw(st.booleans()), tuple(pieces), exits, delays, stops)


class Piece(NamedTuple):
    """One piece of a flat plan, with the times it is entered and left."""

    edge: int
    start_offset: float
    end_offset: float
    enter: float
    exit: float
    delay: float
    stopped: bool


def plan_pieces(plan: _LegPlan) -> list[Piece]:
    """A plan's pieces from its flat lists: each is entered at the previous one's exit."""
    enters = [plan.start, *plan.exits[:-1]]
    return [Piece(*piece, enter, leave, delay, stopped) for piece, enter, leave, delay, stopped
            in zip(plan.pieces, enters, plan.exits, plan.delays, plan.stopped, strict=True)]


def position_at(plan: _LegPlan, now: float) -> tuple[int, float]:
    """Reference: the position walk that ``progress`` replaced."""
    last = plan_pieces(plan)[-1]
    if now >= plan.arrive:
        return (last.edge, last.end_offset)
    for seg in plan_pieces(plan):
        if now < seg.exit:
            if seg.exit <= seg.enter:
                return (seg.edge, seg.start_offset)
            frac = max(0.0, (now - seg.enter) / (seg.exit - seg.enter))
            return (seg.edge, min(seg.start_offset + frac * (seg.end_offset - seg.start_offset),
                                  seg.end_offset))
    return (last.edge, last.end_offset)


def distance_until(plan: _LegPlan, now: float) -> float:
    """Reference: the distance walk that ``progress`` replaced."""
    total = 0.0
    for seg in plan_pieces(plan):
        distance = seg.end_offset - seg.start_offset
        if now >= seg.exit:
            total += distance
        elif now > seg.enter and seg.exit > seg.enter:
            total += min(distance * (now - seg.enter) / (seg.exit - seg.enter), distance)
    return total


def delay_and_stops_until(plan: _LegPlan, now: float) -> tuple[float, int]:
    """Reference: pieces left count in full, the piece being driven its delay
    pro rata, at most its own, and its entry stop; on arrival every piece has
    been left, and coming to rest at the stop counts too."""
    delay, stops = 0.0, 0
    for seg in plan_pieces(plan):
        if now >= seg.exit:
            delay += seg.delay
            stops += seg.stopped
        elif now >= seg.enter:
            delay += min(seg.delay * (now - seg.enter) / (seg.exit - seg.enter), seg.delay)
            stops += seg.stopped
    if now >= plan.arrive:
        stops += plan.rest_stop
    return delay, stops


def reference_progress(plan: _LegPlan, now: float) -> tuple[tuple[int, float], float, float, int]:
    """Reference: what ``progress`` returns, from the walks above."""
    return (position_at(plan, now), distance_until(plan, now), *delay_and_stops_until(plan, now))


def ulp_before_exits(plan: _LegPlan) -> list[float]:
    """The last time on each piece, where the fraction driven can round to 1."""
    return [now for now in (math.nextafter(leave, 0) for leave in plan.exits) if now >= plan.start]


def times_in(plan: _LegPlan):
    """Times from the leg's start to past its arrival; segment exits and the ulp before them included."""
    boundaries = plan.exits + ulp_before_exits(plan)
    return st.one_of(st.floats(plan.start, plan.arrive + 60.0), st.sampled_from(boundaries))


class TestLegProgress:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_progress_matches_the_reference_walks_and_never_goes_back(self, data):
        plan = data.draw(leg_plans())
        early, late = sorted((data.draw(times_in(plan)), data.draw(times_in(plan))))
        before = plan.progress(early)
        after = plan.progress(late)
        assert before == reference_progress(plan, early)
        assert after == reference_progress(plan, late)
        for now in ulp_before_exits(plan):
            assert plan.progress(now) == reference_progress(plan, now)
        for earlier, later in zip(before[1:], after[1:]):
            assert earlier <= later
        if before[0][0] == after[0][0]:
            assert before[0][1] <= after[0][1]

    def test_the_piece_being_driven_ends_at_its_end(self):
        # one ulp before a piece's exit, start + frac * length, the pro rata
        # delay and the pro rata distance can each round past the whole
        # piece's; a position past the edge's end makes the stop table raise
        g = RoadGraph()
        g.add_vertex(0, 0.0, 0.0)
        g.add_vertex(1, 892.9313592549657, 0.0)
        g.add_edge(0, 0, 1, 10.0, 50)
        g.add_edge(1, 1, 0, 10.0, 50)
        g.place_stop(0, 100.0, "peripheral_housing")
        g.place_stop(1, 100.0, "central_opportunity")
        table = build_stop_distance_table(g, list(g.stops()))
        first_exit, first_delay = 212.18343607176502, 90.11853098624158
        plan = _LegPlan(0, 30.285679263277743, first_exit + 10.0, False,
                        ((0, 286.10101169720286, 892.9313592549657), (1, 0.0, 100.0)),
                        [first_exit, first_exit + 10.0], [first_delay, 0.0], [False, False])
        position, distance, delay, _ = plan.progress(math.nextafter(first_exit, 0))
        assert position == (0, 892.9313592549657) and delay == first_delay
        assert table.distance_from_position(*position, 1) == 100.0
        long_exit = 118055.62653510747
        long = _LegPlan(0, 936.7090513495132, long_exit, False, ((0, 0.0, 1015.1979641436611),),
                        [long_exit], [0.0], [False])
        distance = long.progress(math.nextafter(long_exit, 0))[1]
        assert distance == 1015.1979641436611

    @given(leg_plans())
    def test_at_arrival_progress_is_the_plan_totals(self, plan):
        last = plan_pieces(plan)[-1]
        delay = 0.0
        for seg in plan_pieces(plan):   # in order: ``sum`` compensates rounding from Python 3.12 on
            delay += seg.delay
        stops = sum(seg.stopped for seg in plan_pieces(plan)) + plan.rest_stop
        totals = ((last.edge, last.end_offset), distance_until(plan, plan.arrive), delay, stops)
        assert plan.progress(plan.arrive) == totals


def reference_plan(rep: _Replication, sav: dispatch.Sav, target_stop: int, now: float):
    """Reference: the leg loop before the drive table, which calls
    ``occupancy_at``, ``attainable_speed`` and ``drive`` for every piece.

    Returns the plan's (exits, delays, stop flags, arrive, rest stop) and
    the (edge id, occupancy) of each whole edge driven.
    """
    pieces, _ = rep.table.position_path(*sav.position, target_stop)
    exits, delays, stopped, whole = [], [], [], set()
    t = now
    prev_speed = 0.0
    for eid, a, b in pieces:
        length = b - a
        dt = edge_delay = 0.0
        stop = False
        if length > 0:
            edge = rep.graph.edge(eid)
            occupancy = rep.traffic.occupancy_at(eid, now)
            v = attainable_speed(edge, occupancy, rep.profile)
            dt, edge_delay = drive(edge, length, v)
            stop = count_stop_event(prev_speed, v)
            prev_speed = v
            if a == 0.0 and b == edge.length:
                whole.add((eid, occupancy))
        exits.append(t + dt)
        delays.append(edge_delay)
        stopped.append(stop)
        t += dt
    return (exits, delays, stopped, t, count_stop_event(prev_speed, 0.0)), whole


def as_hex(plan: tuple) -> tuple:
    exits, delays, stopped, arrive, rest_stop = plan
    return [x.hex() for x in exits], [x.hex() for x in delays], stopped, arrive.hex(), rest_stop


class TestDriveTable:
    @staticmethod
    def chunk(seed: int):
        """Cells of one run on a ``randnets`` graph with one stop inside every edge and
        busy background flows, built as ``_run_cells`` builds them; returns the
        replications at index 0 and the first runtime's drive tables."""
        rng = random.Random(seed)
        graph = random_connected_graph(rng, max_vertices=12, max_edges=30)
        edges = list(graph.edges())
        for k, e in enumerate(edges):
            graph.place_stop(e.id, e.length * rng.uniform(0.1, 0.9), ZONE_CYCLE[k % 3])
        vertices = [v.id for v in graph.vertices()]
        flows = [BackgroundFlow(*rng.sample(vertices, 2), 1500.0) for _ in range(3)]
        base = Scenario(graph=graph, demand=quiet_demand(), background_flows=flows,
                        fleet_size=1, horizon=1200.0, replications=1, base_seed=seed)
        cells = [dataclasses.replace(base, fleet_size=fleet, profile=profile)
                 for fleet, profile in ((1, "cautious"), (2, "cautious"), (1, "aggressive"))]
        first = _Runtime(cells[0])
        runtimes = [first] + [_Runtime(cell, first) for cell in cells[1:]]
        draw = draw_index(base, first, 0)
        reps = [_Replication(rt, cell, 0, draw) for rt, cell in zip(runtimes, cells)]
        return rng, graph, edges, reps, first.drive_tables

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_plans_match_the_per_piece_loop_and_the_table_holds_only_whole_edges(self, seed):
        rng, graph, edges, reps, drives = self.chunk(seed)
        # two profiles in one run: one table each, shared by the cells of a profile
        assert set(drives) == {rep.profile for rep in reps} and len(drives) == 2
        assert all(drives[rep.profile] is rep.drives for rep in reps)
        assert reps[0].drives is reps[1].drives is not reps[2].drives
        stop_on = {stop.edge: stop.id for stop in graph.stops()}
        # an edge seen at two occupancies: a flow's first edge is empty at
        # time 0 and loaded at the flow's first injection, which counts then
        when, vehicle = reps[0].traffic.injections[0]
        busy = vehicle.route[0]
        loaded = reps[0].traffic.occupancy_at(busy.id, when)
        assert reps[0].traffic.occupancy_at(busy.id, 0.0) == 0 < loaded
        other = next(e for e in edges if e.id != busy.id)
        legs = [((busy.id, 0.0), stop_on[other.id], 0.0), ((busy.id, 0.0), stop_on[other.id], when),
                # a partial first, then last, piece on an edge that has a
                # whole-edge entry at the same occupancy
                ((busy.id, busy.length / 2), stop_on[other.id], when),
                ((other.id, 0.0), stop_on[busy.id], when)]
        for _ in range(12):
            e = rng.choice(edges)
            legs.append(((e.id, rng.choice([0.0, e.length * rng.random()])),
                         rng.choice(list(stop_on.values())), rng.uniform(0.0, 1200.0)))
        whole = {id(rep.drives): set() for rep in reps}
        for rep in reps:
            sav = rep.savs[0]
            for k, (position, target, now) in enumerate(legs):
                sav.position = position
                expected, driven = reference_plan(rep, sav, target, now)
                plan = rep._build_plan(sav, target, now)
                assert as_hex((plan.exits, plan.delays, plan.stopped, plan.arrive, plan.rest_stop)) \
                    == as_hex(expected)
                assert plan.start == now and len(plan.pieces) == len(plan.exits)
                whole[id(rep.drives)] |= driven
                if k == 1:
                    assert {(busy.id, 0), (busy.id, loaded)} <= set(rep.drives)
                if k in (2, 3):
                    eid, a, b = plan.pieces[0 if k == 2 else -1]
                    assert eid == busy.id and b - a < busy.length and (busy.id, loaded) in rep.drives
        for rep in reps:
            table = rep.drives
            # the table never holds a partial piece: every key is a whole edge
            # that some leg drove, and every entry is that whole edge's drive
            assert set(table) <= whole[id(table)]
            for (eid, occupancy), entry in table.items():
                edge = graph.edge(eid)
                speed = attainable_speed(edge, occupancy, rep.profile)
                seconds, delay = drive(edge, edge.length, speed)
                assert [x.hex() for x in entry] == [speed.hex(), seconds.hex(), delay.hex()]
            edges_driven = {eid for eid, _ in whole[id(table)]}
            occupancies = {occupancy for _, occupancy in whole[id(table)]}
            assert len(table) <= len(edges_driven) * len(occupancies)


class _InlinePool:
    """Stands in for the process pool: records its size, calls its initializer
    as a worker would, and runs tasks in this process."""

    def __init__(self, made: list, max_workers: int, initializer=None, initargs=()) -> None:
        made.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def record_executor(monkeypatch) -> list:
    """Replace the engine's executor; returns the sizes of the pools made."""
    made: list = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, **kwargs: _InlinePool(made, max_workers, **kwargs))
    return made


def record_pools(monkeypatch, cpus: int) -> list:
    """Replace the engine's executor and usable CPU count; returns the sizes of the pools made."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
    return record_executor(monkeypatch)


class TestRunScenario:
    def test_single_replication_mean_equals_record(self):
        scenario = busy_scenario(replications=1)
        res = run_scenario(scenario)
        assert len(res.records) == 1
        mean, std, lo, hi = res.aggregates["trips_completed"]
        assert mean == res.records[0].trips_completed
        assert std == 0.0

    def test_forced_identical_seeds_zero_deviation(self):
        scenario = busy_scenario()
        stats = aggregate([simulate(scenario, 2).record for _ in range(4)])
        for name, (mean, std, lo, hi) in stats.items():
            assert std == 0.0
            assert lo == hi

    def test_default_seeds_disperse_waits(self):
        scenario = busy_scenario(replications=6, fleet_size=1)
        res = run_scenario(scenario)
        assert res.aggregates["avg_wait_min"][1] > 0.0

    def test_parallel_matches_sequential(self):
        scenario = busy_scenario(replications=4)
        seq = run_scenario(scenario, jobs=1)
        par = run_scenario(scenario, jobs=2)
        assert seq.records == par.records

    def test_pool_size_is_capped(self, monkeypatch):
        made = record_pools(monkeypatch, cpus=3)
        scenario = busy_scenario(replications=5)
        assert run_scenario(scenario, jobs=8).records == run_scenario(scenario).records
        run_scenario(busy_scenario(replications=2), jobs=8)
        assert made == [3, 2]

    def test_pool_is_capped_at_the_cpus_this_process_may_use(self, monkeypatch):
        # the host may have more CPUs than the process's affinity set allows
        made = record_executor(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        scenario = busy_scenario(replications=4)
        for affinity in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
            assert run_scenario(scenario, jobs=4).records == run_scenario(scenario).records
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        run_scenario(scenario, jobs=4)
        assert made == [2, 4]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_scenario(busy_scenario(), jobs=0)

    def test_a_failed_check_stops_a_pooled_run_before_any_pool_is_made(self, monkeypatch):
        # every runtime is built in this process before the pool, so each
        # check fails once, with the text a serial run gives
        made = record_pools(monkeypatch, cpus=2)
        monkeypatch.setattr(engine, "simulate", None)   # a replication that starts fails the test
        one_way, no_stops = RoadGraph(), RoadGraph()
        for g in (one_way, no_stops):
            g.add_vertex(0, 0.0, 0.0)
            g.add_vertex(1, 100.0, 0.0)
            g.add_edge(0, 0, 1, 10.0, 50)
        no_stops.add_edge(1, 1, 0, 10.0, 50)
        runs = (
            lambda jobs: run_scenario(busy_scenario(graph=one_way), jobs=jobs),
            lambda jobs: run_scenario(busy_scenario(graph=no_stops), jobs=jobs),
            lambda jobs: run_scenario(busy_scenario(replications=10**400), jobs=jobs),
            lambda jobs: run_sweep(busy_scenario(), [2, 10**18], ["normal"], jobs=jobs),
        )
        for run, expected in zip(runs, ("network failed validation", "a nonzero fleet needs stops",
                                        "estimated to need more", "fleet_size 1000000000000000000")):
            texts = []
            for jobs in (1, 2):
                with pytest.raises(ConfigurationError, match=expected) as exc:
                    run(jobs)
                texts.append(str(exc.value))
            assert texts[0] == texts[1]
        assert made == []

    def test_replication_error_names_index(self):
        scenario = busy_scenario()
        bad = dataclasses.replace(scenario, profile="warp")
        with pytest.raises((SimulationError, ConfigurationError)):
            run_scenario(bad)


class TestRunSweep:
    def test_cells_and_seed_sharing(self):
        scenario = busy_scenario(replications=2)
        sweep = run_sweep(scenario, [1, 2], ["cautious", "aggressive"])
        assert set(sweep.cells) == {(1, "cautious"), (1, "aggressive"), (2, "cautious"), (2, "aggressive")}
        cell_a = dataclasses.replace(scenario, fleet_size=1, profile="cautious")
        cell_b = dataclasses.replace(scenario, fleet_size=1, profile="aggressive")
        assert (draw_index(cell_a, _Runtime(cell_a), 0).requests
                == draw_index(cell_b, _Runtime(cell_b), 0).requests)

    def test_single_cell_equals_run_scenario(self):
        scenario = busy_scenario(replications=2)
        sweep = run_sweep(scenario, [2], ["normal"])
        direct = run_scenario(dataclasses.replace(scenario, fleet_size=2, profile="normal"))
        assert sweep.cells[(2, "normal")].records == direct.records

    def test_one_pool_per_sweep(self, monkeypatch):
        made = record_pools(monkeypatch, cpus=2)
        scenario = busy_scenario(replications=2)
        pooled = run_sweep(scenario, [1, 2], ["cautious", "aggressive"], jobs=2)
        assert made == [2]
        serial = run_sweep(scenario, [1, 2], ["cautious", "aggressive"])
        assert pooled.all_records() == serial.all_records()

    def test_cells_sharing_a_field_and_table_match_lone_replications(self, monkeypatch):
        # a run builds one stop table and one route per flow for every cell,
        # and each task runs every cell on one draw per index; each cell must
        # still get what it gets alone
        scenario = busy_scenario(replications=2,
                                 background_flows=[BackgroundFlow(0, 2, 120.0), BackgroundFlow(3, 1, 90.0)])
        cells = ([1, 2], ["cautious", "aggressive"])

        def counted_sweep(jobs: int):
            draws, routed, validated = [], [], []
            monkeypatch.setattr(engine, "draw_index",
                                lambda *args: draws.append(args[2]) or draw_index(*args))
            monkeypatch.setattr(engine, "shortest_path",
                                lambda *args: routed.append(args[1:]) or shortest_path(*args))
            monkeypatch.setattr(engine, "validate_graph",
                                lambda graph: validated.append(graph) or validate_graph(graph))
            sweep = run_sweep(scenario, *cells, jobs=jobs)
            assert draws == [0, 1]   # one draw per index, read by all four cells
            assert routed == [(0, 2), (3, 1)]   # each flow routed once for all four cells
            assert validated == [scenario.graph] * 4   # and every cell still checked
            return sweep

        serial = counted_sweep(jobs=1)
        # pooled, the runtimes are still built once, before the pool, not once per worker
        made = record_pools(monkeypatch, cpus=2)
        assert counted_sweep(jobs=2).all_records() == serial.all_records()
        assert made == [2]
        monkeypatch.undo()
        assert all(r.total_distance_m > r.sav_distance_m for r in serial.all_records())
        for (fleet, profile), result in serial.cells.items():
            cell = dataclasses.replace(scenario, fleet_size=fleet, profile=profile)
            assert result.records == [simulate(cell, i).record for i in range(2)]
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        pooled = run_sweep(scenario, *cells, jobs=2)
        assert pooled.all_records() == serial.all_records()

    def test_a_chunk_holds_one_draw_at_a_time(self, monkeypatch):
        # index i's field is released before index i + 1 is drawn, by
        # reference counts alone: the collector is off for the sweep
        scenario = busy_scenario(replications=4, background_flows=[BackgroundFlow(0, 2, 120.0)])
        fields, alive_at_draw = [], []

        def tracked(*args):
            alive_at_draw.append([ref() is not None for ref in fields])
            draw = draw_index(*args)
            fields.append(weakref.ref(draw.traffic))
            return draw

        monkeypatch.setattr(engine, "draw_index", tracked)
        gc.collect()
        gc.disable()
        try:
            run_sweep(scenario, [1, 2], ["cautious", "aggressive"])
        finally:
            gc.enable()
        assert alive_at_draw == [[], [False], [False] * 2, [False] * 3]
        assert fields[-1]() is None

    def test_pool_has_no_more_workers_than_indices(self, monkeypatch):
        # each task is one index, run over every cell, so no worker waits
        # without one; (replications, cpus, jobs) -> pools made
        cells = ([1, 2], ["cautious", "aggressive"])
        for replications, cpus, jobs, pools in ((1, 4, 4, []), (2, 4, 4, [2]), (3, 2, 4, [2])):
            scenario = busy_scenario(replications=replications,
                                     background_flows=[BackgroundFlow(0, 2, 120.0)])
            serial = run_sweep(scenario, *cells)
            made = record_pools(monkeypatch, cpus=cpus)
            assert run_sweep(scenario, *cells, jobs=jobs).all_records() == serial.all_records()
            assert made == pools
            monkeypatch.undo()

    def test_each_index_draws_its_requests_once_for_every_cell(self, monkeypatch):
        # serially, and one index per task on two workers and on three
        # workers for four indices, where one worker runs two tasks
        generate, run = engine.generate_requests, engine.simulate
        for jobs, replications in ((1, 2), (2, 2), (3, 4)):
            scenario = busy_scenario(replications=replications)
            record_pools(monkeypatch, cpus=jobs)
            drawn, read = [], []

            def counted(demand, stops, seed, horizon):
                drawn.append((seed, generate(demand, stops, seed, horizon)))
                return drawn[-1][1]

            def reading(cell, index, *args, draw, **kwargs):
                read.append((cell.base_seed + index, draw.requests))
                return run(cell, index, *args, draw=draw, **kwargs)

            monkeypatch.setattr(engine, "generate_requests", counted)
            monkeypatch.setattr(engine, "simulate", reading)
            run_sweep(scenario, [1, 2], ["cautious", "aggressive"], jobs=jobs)
            by_seed = dict(drawn)
            assert len(drawn) == len(by_seed) == replications
            assert len(read) == 4 * replications
            assert all(requests is by_seed[seed] for seed, requests in read)

    @pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                        reason="no forkserver start method on this platform")
    def test_a_forkserver_pool_gives_the_serial_records(self):
        # workers that are not forked get the run pickled through the pool's
        # initializer; a subprocess keeps the start method from the other tests
        script = """if True:
            import concurrent.futures, dataclasses, multiprocessing
            from savsim import engine
            from savsim.metrics import records_to_csv
            from savsim.scenario_gen import default_scenario
            multiprocessing.set_start_method("forkserver")
            engine.usable_cpus = lambda: 2
            made = []

            class Pool(concurrent.futures.ProcessPoolExecutor):
                def __init__(self, **kwargs):
                    super().__init__(**kwargs)
                    made.append(self._mp_context.get_start_method())

            concurrent.futures.ProcessPoolExecutor = Pool
            scenario = dataclasses.replace(default_scenario(), replications=2)
            sweep = engine.run_sweep(scenario, [2, 4], ["cautious", "aggressive"], jobs=2)
            print(made)
            print(records_to_csv(sweep.all_records()), end="")
        """
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, *(f"-W{w}" for w in sys.warnoptions), "-c", script],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        made, records = done.stdout.split("\n", 1)
        assert made == "['forkserver']"
        scenario = dataclasses.replace(default_scenario(), replications=2)
        serial = run_sweep(scenario, [2, 4], ["cautious", "aggressive"])
        assert records == records_to_csv(serial.all_records())

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(busy_scenario(), [], ["normal"])

    def test_repeated_fleet_size_or_profile_rejected_before_it_runs(self, monkeypatch):
        monkeypatch.setattr(engine, "simulate", None)   # a replication that starts fails the test
        for sizes, profiles, repeated in (([2, 2], ["normal"], "fleet size 2"),
                                          ([1, 2], ["normal", "cautious", "normal"], "profile 'normal'")):
            with pytest.raises(ConfigurationError, match=repeated):
                run_sweep(busy_scenario(replications=2), sizes, profiles)


class TestTryShare:
    def test_each_active_vehicle_is_offered_each_request_once(self, monkeypatch):
        # offer each request to every active vehicle, and compare with
        # _try_share: it offers the same vehicles, and its winner is the first
        # vehicle with the strictly largest brute-force shared distance
        offered = []
        monkeypatch.setattr(engine, "try_insert_shared",
                            lambda *args: offered.append(1) or dispatch.try_insert_shared(*args))
        share = _Replication._try_share
        exhaustive = []

        def checked(rep, request, now):
            best = best_sav = None
            brute = brute_sav = None
            # by the idle-vehicle invariant, only a busy fleet shares
            assert all(sav.status != "idle" for sav in rep.savs)
            for sav in rep.savs:
                if not sav.route:
                    continue
                if sav.status == "en_route":
                    sav.position = sav.plan.progress(now)[0]
                res = dispatch.try_insert_shared(rep.policy, sav, request, rep.table)
                if res is not None and (best is None or res.shared_miles > best.shared_miles):
                    best, best_sav = res, sav
                shared = brute_best_shared(rep.policy, sav, request, rep.table)
                if shared is not None and (brute is None or shared > brute):
                    brute, brute_sav = shared, sav
                exhaustive.append(1)
            share(rep, request, now)
            # the vehicle whose route holds the request's pickup is the one it is assigned to
            holders = [sav.id for sav in rep.savs if any(leg.request == request.id for leg in sav.route)]
            assert holders == ([] if best is None else [best_sav.id])
            assert holders == ([] if brute is None else [brute_sav.id])
            assert (request.id in rep.by_state["assigned"]) == (best is not None)
            if best is not None:
                assert tuple(best_sav.route) == best.route

        monkeypatch.setattr(_Replication, "_try_share", checked)
        scenario = dataclasses.replace(default_scenario(), fleet_size=8, replications=2)
        run_scenario(scenario)
        assert len(offered) == len(exhaustive)


class TestValidationErrors:
    def test_invalid_graph(self):
        g = RoadGraph()
        g.add_vertex(0, 0.0, 0.0)
        g.add_vertex(1, 100.0, 0.0)
        g.add_edge(0, 0, 1, 10.0, 50)  # no return edge
        with pytest.raises(ConfigurationError):
            simulate(Scenario(graph=g, demand=quiet_demand(), fleet_size=0), 0)

    def test_fleet_without_stops(self):
        g = RoadGraph()
        g.add_vertex(0, 0.0, 0.0)
        g.add_vertex(1, 100.0, 0.0)
        g.add_edge(0, 0, 1, 10.0, 50)
        g.add_edge(1, 1, 0, 10.0, 50)
        with pytest.raises(ConfigurationError):
            simulate(Scenario(graph=g, demand=quiet_demand(), fleet_size=2), 0)

    def test_demand_without_zones(self):
        g = line_graph()
        doomed = Scenario(
            graph=g,
            demand=DemandProfile(outbound_rate=5.0, inbound_rate=0.0),
            fleet_size=1,
        )
        # line_graph has both zones; strip one by rebuilding with a single zone
        g2 = RoadGraph()
        g2.add_vertex(0, 0.0, 0.0)
        g2.add_vertex(1, 1000.0, 0.0)
        g2.add_edge(0, 0, 1, 10.0, 50)
        g2.add_edge(1, 1, 0, 10.0, 50)
        g2.place_stop(0, 200.0, "peripheral_housing")
        g2.place_stop(0, 800.0, "peripheral_housing")
        with pytest.raises(ConfigurationError):
            simulate(dataclasses.replace(doomed, graph=g2), 0)

    def test_scenario_field_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(graph=ring_network(), fleet_size=-1)
        with pytest.raises(ConfigurationError):
            Scenario(graph=ring_network(), horizon=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="horizon"):
                Scenario(graph=ring_network(), horizon=bad)
        with pytest.raises(ConfigurationError):
            Scenario(graph=ring_network(), replications=0)

    def test_huge_scenarios_rejected_before_running(self):
        for overrides in (
            dict(fleet_size=10**18),
            dict(replications=10**400),
            dict(horizon=1e300, background_flows=[BackgroundFlow(0, 2, 60.0)]),
            dict(horizon=1e300),    # demand and no background flows
        ):
            with pytest.raises(ConfigurationError, match="estimated to need more than 10000000 events") as exc:
                _Runtime(busy_scenario(**overrides))
            for field in ("replications", "fleet_size", "demand", "background_flows", "horizon"):
                assert field in str(exc.value)
        _Runtime(busy_scenario(fleet_size=10**5, horizon=1e5,
                               background_flows=[BackgroundFlow(0, 2, 60.0)]))

    def test_capacity_below_largest_party_rejected(self):
        with pytest.raises(ConfigurationError, match="policy.capacity 2 is below the largest party size 3"):
            Scenario(graph=ring_network(), policy=DispatchPolicy(capacity=2))
        # a party size with zero weight is never drawn, so it does not count
        pairs = DemandProfile(party_size_weights={1: 0.5, 2: 0.5, 3: 0.0})
        Scenario(graph=ring_network(), demand=pairs, policy=DispatchPolicy(capacity=2))


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        graph = ring_network()
        scenario = Scenario(
            graph=graph,
            name="files",
            demand=DemandProfile(outbound_rate=4.0, inbound_rate=2.0),
            background_flows=[BackgroundFlow(0, 2, 30.0)],
            fleet_size=3,
            profile="cautious",
            policy=DispatchPolicy(overdue_threshold=900.0),
            horizon=3600.0,
            replications=5,
            base_seed=11,
            network_path="network.json",
        )
        save_network(graph, str(tmp_path / "network.json"))
        (tmp_path / "scenario.json").write_text(json.dumps(scenario_to_dict(scenario)))
        loaded = load_scenario(str(tmp_path / "scenario.json"))
        assert scenario_to_dict(loaded) == scenario_to_dict(scenario)
        assert simulate(loaded, 0).record == simulate(scenario, 0).record

    def test_round_trip_of_every_record_field(self, tmp_path):
        """Profiles, every policy field and a two-digit party size survive a save and a load."""
        graph = ring_network()
        profiles = {**DEFAULT_PROFILES, "cautious": BehaviorProfile("cautious", 0.8, 20.0),
                    "careful": BehaviorProfile("careful", 1.0, 30.0)}
        scenario = Scenario(
            graph=graph,
            name="records",
            demand=DemandProfile(outbound_rate=4.0, inbound_rate=2.0,
                                 party_size_weights={1: 0.5, 2: 0.3, 10: 0.2}),
            profile="careful",
            policy=DispatchPolicy(overdue_threshold=900.0, priority_radius=2000.0,
                                  detour_budget_factor=1.6, capacity=12),
            behavior_profiles=profiles,
            network_path="network.json",
        )
        assert all(getattr(scenario.policy, f.name) != f.default for f in dataclasses.fields(DispatchPolicy))
        doc = scenario_to_dict(scenario)
        # party sizes are string keys, so "10" sorts before "2" as in every file written so far
        assert json.dumps(doc["demand"]["party_size_weights"], sort_keys=True) == '{"1": 0.5, "10": 0.2, "2": 0.3}'
        save_network(graph, str(tmp_path / "network.json"))
        (tmp_path / "scenario.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
        loaded = load_scenario(str(tmp_path / "scenario.json"))
        assert scenario_to_dict(loaded) == doc
        assert dataclasses.replace(loaded, graph=graph) == scenario
        # one field overrides a default profile; a new name starts from normal's fields
        doc["behavior_profiles"] = {"cautious": {"speed_factor": 0.8}, "careful": {"dwell_time": 30.0}}
        assert scenario_from_dict(doc, graph).behavior_profiles == profiles

    def test_record_kinds_come_from_annotations(self):
        @dataclasses.dataclass
        class Record:
            count: int
            share: float
            label: "str"
            items: list[int]

        assert record_kinds(Record, skip=("items",)) == {"count": int, "share": float, "label": str}
        assert record_kinds(Record, items=list)["items"] is list
        with pytest.raises(TypeError, match="Record.items"):
            record_kinds(Record)

    def test_bad_document(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"demand": {"outbound_rate": "lots"}}, ring_network())
        for path, value in (
            (("fleet_size",), 2.9),
            (("fleet_size",), "4"),
            (("replications",), True),
            (("base_seed",), 0.5),
            (("policy", "capacity"), 2.5),
            (("background_flows", 0, "origin_vertex"), False),
        ):
            with pytest.raises(ConfigurationError, match=f"{path[-1]}: expected an integer"):
                scenario_from_dict(self.document_with(path, value), ring_network())
        assert scenario_from_dict(self.document_with(("fleet_size",), 4.0), ring_network()).fleet_size == 4
        for path in (
            ("horizon",),
            ("policy", "priority_radius"),
            ("demand", "outbound_rate"),
            ("background_flows", 0, "rate"),
            ("behavior_profiles", "normal", "dwell_time"),
        ):
            for value in (True, "4"):
                with pytest.raises(ConfigurationError, match=f"{path[-1]}: expected a number, got {value!r}"):
                    scenario_from_dict(self.document_with(path, value), ring_network())
        for path in (("name",), ("profile",)):
            for value, got in (([1, 2], "list"), (123, "123"), (None, "None")):
                with pytest.raises(ConfigurationError, match=f"{path[-1]}: expected a string, got {got}"):
                    scenario_from_dict(self.document_with(path, value), ring_network())

    @staticmethod
    def document_with(path: tuple, value) -> dict:
        """A valid scenario document with the field at ``path`` set to ``value``."""
        doc = scenario_to_dict(Scenario(
            graph=ring_network(),
            background_flows=[BackgroundFlow(0, 2, 30.0)],
            behavior_profiles=dict(DEFAULT_PROFILES),
        ))
        node = doc
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        return doc

    def test_unknown_keys_rejected(self):
        for path in (
            ("fleet_szie",),
            ("demand", "outbound_rat"),
            ("demand", "horizon"),
            ("policy", "capacty"),
            ("background_flows", 0, "rte"),
            ("behavior_profiles", "normal", "dwell"),
        ):
            with pytest.raises(ConfigurationError, match=f"{path[-1]}: no such field"):
                scenario_from_dict(self.document_with(path, 1), ring_network())

    def test_non_finite_fields_rejected(self):
        for path in (
            ("horizon",),
            ("fleet_size",),
            ("replications",),
            ("base_seed",),
            ("demand", "outbound_rate"),
            ("policy", "priority_radius"),
            ("policy", "capacity"),
            ("background_flows", 0, "rate"),
            ("background_flows", 0, "origin_vertex"),
            ("behavior_profiles", "normal", "speed_factor"),
        ):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigurationError, match=path[-1]):
                    scenario_from_dict(self.document_with(path, value), ring_network())
