import concurrent.futures
import dataclasses
import json
import math
import os

import pytest

from savsim.demand import DemandProfile, TripRequest
from savsim.dispatch import DispatchPolicy
from savsim.engine import (
    Scenario,
    _Replication,
    _Runtime,
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
        runtime = _Runtime(scenario)
        rep = _Replication(runtime, scenario, 0)
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
        runtime = _Runtime(scenario)
        rep = _Replication(runtime, scenario, 0)
        result = rep.run()
        states = {"unassigned": 0, "assigned": 0, "onboard": 0, "completed": 0}
        for p in rep.pending.values():
            states[p.state] += 1
        assert sum(states.values()) == rep.metrics.requests_seen
        assert states["completed"] == result.record.trips_completed
        assert result.record.unserved == rep.metrics.requests_seen - states["completed"]

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
        runtime = _Runtime(scenario)
        rep = _Replication(runtime, scenario, 0)
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
            rep = _Replication(_Runtime(scenario), scenario, 1, collect_occupancy=True)
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
        rep = _Replication(_Runtime(scenario), scenario, 0)
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
        runtime = _Runtime(scenario)
        rep = _Replication(runtime, scenario, 0)
        result = rep.run()
        assert rep.metrics.requests_seen > 0
        assert result.record.unserved == 0
        assert all(p.state == "completed" for p in rep.pending.values())


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
