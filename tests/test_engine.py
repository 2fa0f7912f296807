import concurrent.futures
import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savsim import engine
from savsim.demand import DemandProfile, TripRequest
from savsim.dispatch import DispatchPolicy
from savsim.engine import (
    Scenario,
    _LegPlan,
    _Replication,
    _Runtime,
    _Segment,
    background_field,
    load_scenario,
    replication_requests,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
)
from savsim.errors import ConfigurationError, ConsistencyError, SimulationError
from savsim.metrics import aggregate
from savsim.netgraph import RoadGraph, save_network
from savsim.traffic import DEFAULT_PROFILES, BackgroundFlow, attainable_speed, edge_speed

from randnets import ring_network


def quiet_demand() -> DemandProfile:
    return DemandProfile(outbound_rate=0.0, inbound_rate=0.0)


def busy_scenario(**overrides) -> Scenario:
    base = dict(
        graph=ring_network(),
        name="ring",
        demand=DemandProfile(outbound_rate=12.0, inbound_rate=8.0, horizon=7200.0),
        fleet_size=2,
        horizon=7200.0,
        replications=3,
        base_seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


def new_replication(scenario: Scenario, index: int = 0, collect_log: bool = False,
                    sample: bool = False) -> _Replication:
    """A replication set up the way ``simulate`` sets one up, for the test to run."""
    runtime = _Runtime(scenario)
    traffic = background_field(scenario, runtime, index, sample)
    return _Replication(runtime, scenario, index, traffic, collect_log)


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
        assert record.empty_vehicle_population
        assert record.empty_wait_population


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
        states = {"unassigned": 0, "assigned": 0, "onboard": 0, "completed": 0}
        for p in rep.pending.values():
            states[p.state] += 1
        assert sum(states.values()) == rep.metrics.requests_seen
        assert states["completed"] == result.record.trips_completed
        assert result.record.unserved == rep.metrics.requests_seen - states["completed"]

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
            rep._check_conservation()
            corrupt(rep)
            with pytest.raises(ConsistencyError, match="passenger conservation broken"):
                rep._check_conservation()

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
        assert not result.record.empty_vehicle_population
        assert result.occupancy
        times = [t for t, _, _ in result.occupancy]
        assert times == sorted(times)

    def test_edge_state_speed_bounds(self):
        scenario = busy_scenario(
            background_flows=[BackgroundFlow(0, 2, 120.0)], fleet_size=1
        )
        rep = new_replication(scenario)
        rep.run()
        profile = DEFAULT_PROFILES[scenario.profile]
        assert rep.traffic.occupancy
        for eid, occupancy in rep.traffic.occupancy.items():
            edge = scenario.graph.edge(eid)
            assert occupancy >= 0
            assert 0.05 * edge.free_flow_speed <= edge_speed(edge, occupancy) <= edge.free_flow_speed
            assert 0.0 < attainable_speed(edge, occupancy, profile) <= edge.free_flow_speed

    def test_background_traffic_is_independent_of_the_fleet(self):
        flows = [BackgroundFlow(0, 2, 120.0), BackgroundFlow(2, 0, 90.0)]
        traffic = []
        for fleet_size in (0, 10):
            scenario = busy_scenario(background_flows=flows, fleet_size=fleet_size)
            rep = new_replication(scenario, 1, sample=True)
            result = rep.run()
            traffic.append(rep.traffic)
        assert result.record.sav_distance_m > 0   # the fleet of 10 did drive
        idle, busy = traffic
        assert idle.samples and idle.finished
        assert busy.samples == idle.samples
        assert busy.distance == idle.distance
        assert busy.finished == idle.finished

    def test_background_occupancy_leak_is_caught(self):
        scenario = busy_scenario(background_flows=[BackgroundFlow(0, 2, 120.0)])
        rep = new_replication(scenario)
        rep.run()
        rep.traffic.check()
        edge = next(iter(rep.traffic.occupancy))
        rep.traffic.occupancy[edge] += 1
        with pytest.raises(ConsistencyError, match="background vehicle conservation"):
            rep.traffic.check()

    def test_no_starvation_with_generous_horizon(self):
        scenario = busy_scenario(
            fleet_size=1,
            demand=DemandProfile(outbound_rate=6.0, inbound_rate=4.0, horizon=3600.0),
            horizon=999999.0,
            replications=1,
        )
        rep = new_replication(scenario)
        result = rep.run()
        assert rep.metrics.requests_seen > 0
        assert result.record.unserved == 0
        assert all(p.state == "completed" for p in rep.pending.values())


class TestCutShortLegs:
    """A leg cut short by a reroute or by the horizon counts its delay pro rata.

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
        assert all(p.state == "completed" for p in rep.pending.values())
        assert rep.sav_delay[0] == pytest.approx(rep.metrics.sav_distance * self.DELAY_PER_METRE)
        # no edge is driven at a crawl, so the only stops are coming to rest on arrival
        assert rep.sav_stops[0] == sum(e.kind == "arrive" for e in rep.log) == 3

    def test_horizon_mid_edge_counts_delay_times_fraction(self):
        # the pickup leg of 600 m takes 600 / 8.5 s from t=100; the horizon cuts it at 30 s
        rep = self.run([TripRequest(0, 1, 0, 100.0, 1)], 130.0)
        assert [(e.kind, e.time) for e in rep.log] == [("assign", 100.0), ("depart", 100.0), ("reroute", 130.0)]
        leg_delay = 600.0 / 8.5 - 600.0 / 10.0
        assert rep.sav_delay[0] == pytest.approx(leg_delay * 30.0 / (600.0 / 8.5))
        assert rep.sav_delay[0] == pytest.approx(rep.metrics.sav_distance * self.DELAY_PER_METRE)


@st.composite
def leg_plans(draw) -> _LegPlan:
    """A plan built the way ``_Replication._build_plan`` builds one, from random pieces."""
    t = draw(st.floats(0.0, 1e5))
    segments = []
    distance = delay = 0.0
    stops = 0
    for edge in range(draw(st.integers(1, 6))):
        a = draw(st.floats(0.0, 1000.0))
        b = draw(st.one_of(st.just(a), st.floats(a, a + 2000.0)))   # zero-length pieces too
        dt = seg_delay = 0.0
        stopped = False
        if b - a > 0:
            dt = draw(st.floats(0.0, 3600.0))
            seg_delay = draw(st.floats(0.0, dt))
            stopped = draw(st.booleans())
        segments.append(_Segment(edge, a, b, t, t + dt, seg_delay, stopped))
        distance += b - a
        delay += seg_delay
        stops += stopped
        t += dt
    stops += draw(st.booleans())   # coming to rest at the stop
    return _LegPlan(0, t, distance, delay, stops, segments)


def position_at(plan: _LegPlan, now: float) -> tuple[int, float]:
    """Reference: the position walk that ``progress`` replaced."""
    last = plan.segments[-1]
    if now >= plan.arrive:
        return (last.edge, last.end_offset)
    for seg in plan.segments:
        if now < seg.exit:
            if seg.exit <= seg.enter:
                return (seg.edge, seg.start_offset)
            frac = max(0.0, (now - seg.enter) / (seg.exit - seg.enter))
            return (seg.edge, seg.start_offset + frac * (seg.end_offset - seg.start_offset))
    return (last.edge, last.end_offset)


def distance_until(plan: _LegPlan, now: float) -> float:
    """Reference: the distance walk that ``progress`` replaced."""
    total = 0.0
    for seg in plan.segments:
        distance = seg.end_offset - seg.start_offset
        if now >= seg.exit:
            total += distance
        elif now > seg.enter and seg.exit > seg.enter:
            total += distance * (now - seg.enter) / (seg.exit - seg.enter)
    return total


def delay_and_stops_until(plan: _LegPlan, now: float) -> tuple[float, int]:
    """Reference for a leg cut short: pieces left count in full, the piece
    being driven its delay pro rata and its entry stop; coming to rest at
    the stop counts only on arrival."""
    if now >= plan.arrive:
        return plan.delay, plan.stop_events
    delay, stops = 0.0, 0
    for seg in plan.segments:
        if now >= seg.exit:
            delay += seg.delay
            stops += seg.stopped
        elif now >= seg.enter:
            delay += seg.delay * (now - seg.enter) / (seg.exit - seg.enter)
            stops += seg.stopped
    return delay, stops


def times_in(plan: _LegPlan):
    """Times from the leg's start to past its arrival, segment boundaries included."""
    boundaries = [seg.exit for seg in plan.segments]
    return st.one_of(st.floats(plan.segments[0].enter, plan.arrive + 60.0), st.sampled_from(boundaries))


class TestLegProgress:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_progress_matches_the_reference_walks_and_never_goes_back(self, data):
        plan = data.draw(leg_plans())
        early, late = sorted((data.draw(times_in(plan)), data.draw(times_in(plan))))
        before = plan.progress(early)
        after = plan.progress(late)
        for now, (position, distance, delay, stops) in ((early, before), (late, after)):
            assert position == position_at(plan, now)
            assert distance == distance_until(plan, now)
            assert (delay, stops) == delay_and_stops_until(plan, now)
        # length * (now - enter) / (exit - enter) rounds twice, so just before
        # a piece's exit it can exceed the whole piece by an ulp (enter
        # 936.7090513495132, exit 118055.62653510747, length 1015.1979641436611
        # does): distance and delay may step back by that rounding, no more
        for earlier, later in zip(before[1:3], after[1:3]):
            assert earlier <= later + 4 * math.ulp(later)
        assert before[3] <= after[3]

    @given(leg_plans())
    def test_at_arrival_progress_is_the_plan_totals(self, plan):
        last = plan.segments[-1]
        totals = ((last.edge, last.end_offset), plan.distance, plan.delay, plan.stop_events)
        assert plan.progress(plan.arrive) == totals
        assert plan.distance == distance_until(plan, plan.arrive)


class _InlinePool:
    """Stands in for the process pool: records its size and runs tasks in this process."""

    def __init__(self, made: list, max_workers: int) -> None:
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def record_pools(monkeypatch, cpus: int) -> list:
    """Replace the engine's executor and CPU count; returns the sizes of the pools made."""
    made: list = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InlinePool(made, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return made


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

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_scenario(busy_scenario(), jobs=0)

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
        assert replication_requests(cell_a, 0) == replication_requests(cell_b, 0)

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
        # a task runs every cell on one background field per index and one
        # stop table; each cell must still get what it gets alone
        scenario = busy_scenario(replications=2,
                                 background_flows=[BackgroundFlow(0, 2, 120.0), BackgroundFlow(3, 1, 90.0)])
        fields = []
        monkeypatch.setattr(engine, "background_field",
                            lambda *args: fields.append(args[2]) or background_field(*args))
        serial = run_sweep(scenario, [1, 2], ["cautious", "aggressive"])
        assert fields == [0, 1]   # one field per index, read by all four cells
        monkeypatch.undo()
        assert all(r.total_distance_m > r.sav_distance_m for r in serial.all_records())
        for (fleet, profile), result in serial.cells.items():
            cell = dataclasses.replace(scenario, fleet_size=fleet, profile=profile)
            assert result.records == [simulate(cell, i).record for i in range(2)]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = run_sweep(scenario, [1, 2], ["cautious", "aggressive"], jobs=2)
        assert pooled.all_records() == serial.all_records()

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(busy_scenario(), [], ["normal"])


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
            dict(demand=DemandProfile(outbound_rate=9.0, inbound_rate=6.0, horizon=1e300)),
        ):
            with pytest.raises(ConfigurationError, match="estimated to need more than 10000000 events") as exc:
                _Runtime(busy_scenario(**overrides))
            for field in ("replications", "fleet_size", "demand.horizon", "background_flows", "horizon"):
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
            demand=DemandProfile(outbound_rate=4.0, inbound_rate=2.0, horizon=3600.0),
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

    def test_bad_document(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"demand": {"outbound_rate": "lots"}}, ring_network())
        for path, value in (
            (("fleet_size",), 2.9),
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
            with pytest.raises(ConfigurationError, match=f"{path[-1]}: expected a number, got True"):
                scenario_from_dict(self.document_with(path, True), ring_network())

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
            ("demand", "horizon"),
            ("policy", "priority_radius"),
            ("policy", "capacity"),
            ("background_flows", 0, "rate"),
            ("background_flows", 0, "origin_vertex"),
            ("behavior_profiles", "normal", "speed_factor"),
        ):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigurationError, match=path[-1]):
                    scenario_from_dict(self.document_with(path, value), ring_network())
