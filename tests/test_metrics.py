import pytest

from savsim.demand import DemandProfile, TripRequest
from savsim.engine import Scenario, _Replication, _Runtime, background_field, simulate
from savsim.metrics import (
    LogEntry,
    MetricsState,
    aggregate,
    finalize,
    records_to_csv,
    replay_shared_miles,
)

from savsim.netgraph import write_atomic

from randnets import ring_network


def make_state(**overrides) -> MetricsState:
    state = MetricsState(scenario="s", fleet_size=2, profile="normal", replication=0)
    for key, value in overrides.items():
        setattr(state, key, value)
    return state


class TestFinalize:
    def test_zero_vehicles_flagged(self):
        record = finalize(make_state(fleet_size=0), horizon=3600.0)
        assert record.avg_delay_min == 0.0
        assert record.avg_stops == 0.0
        assert record.empty_vehicle_population

    def test_wait_average(self):
        state = make_state(wait_seconds=[600.0, 1200.0])
        record = finalize(state, horizon=3600.0)
        assert record.avg_wait_min == pytest.approx(15.0)
        assert not record.empty_wait_population

    def test_unserved_accounting(self):
        state = make_state(requests_seen=5, trips_completed=3, passengers_served=4)
        record = finalize(state, horizon=3600.0)
        assert record.unserved == 2
        assert record.passengers_served == 4


class TestCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_atomic(str(path), records_to_csv([]))
        assert path.read_text().strip().count("\n") == 0
        assert path.read_text().startswith("scenario,fleet_size,profile,replication,")

    def test_one_record_two_lines(self, tmp_path):
        record = finalize(make_state(), horizon=3600.0)
        path = tmp_path / "out.csv"
        write_atomic(str(path), records_to_csv([record]))
        assert len(path.read_text().splitlines()) == 2

    def test_byte_identical(self, tmp_path):
        records = [finalize(make_state(replication=i), 3600.0) for i in range(3)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_atomic(str(a), records_to_csv(records))
        write_atomic(str(b), records_to_csv(list(reversed(records))))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_destination(self, tmp_path):
        record = finalize(make_state(), horizon=3600.0)
        with pytest.raises(OSError):
            write_atomic(str(tmp_path / "missing" / "out.csv"), records_to_csv([record]))

    def test_fixed_decimals(self):
        record = finalize(make_state(wait_seconds=[90.0]), horizon=3600.0)
        line = records_to_csv([record]).splitlines()[1]
        assert ",1.500000," in line


class TestAggregate:
    def test_mean_std_min_max(self):
        records = [
            finalize(make_state(replication=i, trips_completed=n), 3600.0)
            for i, n in enumerate((2, 4, 6))
        ]
        stats = aggregate(records)["trips_completed"]
        assert stats[0] == pytest.approx(4.0)
        assert stats[1] == pytest.approx((8.0 / 3.0) ** 0.5)
        assert stats[2:] == (2.0, 6.0)


class TestSharedMilesReplay:
    def test_hand_built_log(self):
        # one vehicle rides A alone, then A+B for 1000 m, then A alone again
        entries = [
            LogEntry(0.0, 0, "pickup", 1, 10),
            LogEntry(10.0, 0, "depart", 1, 11, 500.0),
            LogEntry(60.0, 0, "arrive", 1, 11, 500.0),
            LogEntry(60.0, 0, "pickup", 2, 11),
            LogEntry(72.0, 0, "depart", 2, 12, 1000.0),
            LogEntry(172.0, 0, "arrive", 2, 12, 1000.0),
            LogEntry(172.0, 0, "dropoff", 2, 12),
            LogEntry(184.0, 0, "depart", 1, 13, 400.0),
            LogEntry(284.0, 0, "arrive", 1, 13, 400.0),
            LogEntry(284.0, 0, "dropoff", 1, 13),
        ]
        assert replay_shared_miles(entries) == 1000.0

    def test_matches_online_accumulator(self):
        # force sharing: single sav, two overlapping requests down a line
        graph = ring_network()
        scenario = Scenario(
            graph=graph,
            demand=DemandProfile(outbound_rate=0.0, inbound_rate=0.0),
            fleet_size=1,
            horizon=7200.0,
            replications=1,
        )
        runtime = _Runtime(scenario)
        rep = _Replication(runtime, scenario, 0, background_field(scenario, runtime, 0), collect_log=True)
        stops = [s.id for s in graph.stops()]
        rep.requests = [
            TripRequest(0, stops[0], stops[1], 0.0, 1),
            TripRequest(1, stops[0], stops[1], 5.0, 1),
            TripRequest(2, stops[2], stops[3], 9.0, 2),
        ]
        result = rep.run()
        assert result.record.shared_miles_m > 0.0
        assert replay_shared_miles(result.log) == result.record.shared_miles_m

    def test_replay_on_generated_traffic(self):
        scenario = Scenario(
            graph=ring_network(),
            demand=DemandProfile(outbound_rate=20.0, inbound_rate=10.0, horizon=5400.0),
            fleet_size=2,
            horizon=5400.0,
            replications=1,
            base_seed=3,
        )
        result = simulate(scenario, 0, collect_log=True)
        assert replay_shared_miles(result.log) == result.record.shared_miles_m
