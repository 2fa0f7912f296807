"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The fleet experiments reuse one 300-replication sweep fixture
(5 fleet sizes x 3 behavior profiles x 20 seeded replications).
"""

import dataclasses
import random
import statistics
import time

import pytest

from savsim.demand import TripRequest
from savsim.dispatch import DispatchPolicy, Sav, select_next_request, try_insert_shared
from savsim.engine import Scenario, _Replication, _Runtime, draw_index, run_scenario, run_sweep
from savsim.errors import ConsistencyError
from savsim.metrics import records_to_csv
from savsim.netgraph import build_stop_distance_table
from savsim.oracle import check_table
from savsim.scenario_gen import SyntheticSpec, default_scenario, generate_network

from brute import brute_best_shared, brute_select, random_pending, random_policy, random_sav_state
from randnets import random_connected_graph, scatter_stops

FLEET_SIZES = (2, 4, 6, 8, 10)
PROFILES = ("cautious", "normal", "aggressive")


def report(number: int, description: str, passed: bool) -> bool:
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    return passed


@pytest.fixture(scope="module")
def sweep():
    scenario = default_scenario()
    return run_sweep(scenario, list(FLEET_SIZES), list(PROFILES))


def cell_mean(sweep, fleet: int, profile: str, field: str) -> float:
    records = sweep.cells[(fleet, profile)].records
    return statistics.mean(getattr(r, field) for r in records)


def test_criterion_1_and_2_routing_oracle_and_cardinality():
    started = time.time()
    mismatches = 0
    cardinality_ok = True
    for seed in range(100):
        rng = random.Random(31_000 + seed)
        graph = random_connected_graph(rng, max_vertices=30, max_edges=80)
        stops = scatter_stops(rng, graph, rng.randint(2, 10))
        table = build_stop_distance_table(graph, stops)
        mismatches += len(check_table(graph, table))
        if len(table) != len(stops) * (len(stops) - 1):
            cardinality_ok = False
    elapsed = time.time() - started
    ok1 = mismatches == 0 and elapsed < 10.0
    assert report(1, f"routing matches split-graph oracle on 100 graphs ({elapsed:.1f}s)", ok1)
    assert report(2, "distance tables hold exactly m(m-1) entries", cardinality_ok)


def test_criterion_3_dispatcher_rule_equivalence():
    failures = 0
    for seed in range(1000):
        rng = random.Random(43_000 + seed)
        policy = random_policy(rng)
        pending = random_pending(rng, rng.randint(0, 20))
        now = rng.uniform(0.0, 4000.0)
        gaps = {r.id: rng.uniform(0.0, 9000.0) for r in pending}
        fn = lambda r: gaps[r.id]
        sav = Sav(0, policy.capacity, "normal", (0, 0.0))
        got = select_next_request(policy, pending, sav, now, fn)
        want = brute_select(policy, pending, now, fn)
        if got != want:
            failures += 1
    assert report(3, "selection equals brute-force two-tier rule on 1000 states", failures == 0)


def test_criterion_4_sharing_optimality():
    rng = random.Random(57_000)
    graph = random_connected_graph(rng, max_vertices=14, max_edges=36)
    stops = scatter_stops(rng, graph, 7)
    table = build_stop_distance_table(graph, stops)
    stop_ids = [s.id for s in stops]
    positions = [(s.edge, s.slack) for s in stops]
    rid = 1
    failures = 0
    for _ in range(500):
        policy = random_policy(rng)
        sav, rid = random_sav_state(rng, stop_ids, positions, policy.capacity, rid)
        origin, dest = rng.sample(stop_ids, 2)
        candidate = TripRequest(rid, origin, dest, 0.0, rng.randint(1, 3))
        rid += 1
        got = try_insert_shared(policy, sav, candidate, table)
        want = brute_best_shared(policy, sav, candidate, table)
        if want is None:
            if got is not None:
                failures += 1
        elif got is None or got.shared_miles != want:
            failures += 1
    assert report(4, "insertions reach the exhaustive shared-distance maximum on 500 instances", failures == 0)


def test_criterion_5_capacity_and_conservation():
    # stress run: the engine asserts conservation and capacity after every
    # passenger-touching event and raises ConsistencyError on violation
    scenario = dataclasses.replace(default_scenario(), fleet_size=3, replications=1)
    runtime = _Runtime(scenario)
    balanced = True
    for index in range(3):
        rep = _Replication(runtime, scenario, index, draw_index(scenario, runtime, index))
        rep.run()
        if sum(len(held) for held in rep.by_state.values()) != rep.metrics.requests_seen:
            balanced = False
        if any(s.onboard_total > s.capacity for s in rep.savs):
            balanced = False
    # the guards must actually fire on corrupted state
    guards_live = False
    probe = _Replication(runtime, scenario, 0, draw_index(scenario, runtime, 0))
    probe.metrics.requests_seen = 5
    try:
        probe._check_counts()
    except ConsistencyError:
        guards_live = True
    sav = Sav(0, 2, "normal", (0, 0.0), onboard={1: 3})
    try:
        sav.assert_capacity()
        guards_live = False
    except ConsistencyError:
        pass
    assert report(5, "capacity and passenger conservation hold and guards fire", balanced and guards_live)


def test_criterion_6_fleet_saturation(sweep):
    trips = {f: cell_mean(sweep, f, "normal", "trips_completed") for f in FLEET_SIZES}
    monotone = all(trips[a] <= trips[b] for a, b in zip(FLEET_SIZES, FLEET_SIZES[1:]))
    tail_gain = trips[10] - trips[8]
    early_gain = (trips[8] - trips[2]) / 3.0
    ok = monotone and tail_gain < early_gain
    assert report(
        6,
        f"trips non-decreasing and gain 8->10 ({tail_gain:.2f}) < mean 2->8 step ({early_gain:.2f})",
        ok,
    )


def test_criterion_7_wait_band(sweep):
    waits = [
        cell_mean(sweep, fleet, profile, "avg_wait_min")
        for fleet in FLEET_SIZES
        for profile in PROFILES
    ]
    grand = statistics.mean(waits)
    ok = 20.0 <= grand <= 120.0
    assert report(7, f"mean wait over sweep cells = {grand:.1f} min, inside [20, 120]", ok)


def test_criterion_8_behavior_ordering(sweep):
    trips = {p: cell_mean(sweep, 8, p, "trips_completed") for p in PROFILES}
    ok = trips["cautious"] <= trips["normal"] <= trips["aggressive"]
    assert report(
        8,
        "fleet-8 mean trips ordered cautious <= normal <= aggressive "
        f"({trips['cautious']:.2f} <= {trips['normal']:.2f} <= {trips['aggressive']:.2f})",
        ok,
    )


def test_criterion_9_determinism():
    scenario = dataclasses.replace(default_scenario(), replications=2)
    a = records_to_csv(run_scenario(scenario).records)
    b = records_to_csv(run_scenario(scenario).records)
    ok = a == b and len(a.splitlines()) == 3
    assert report(9, "equal seeds give byte-identical CSV output", ok)


def test_criterion_10_protocol_defaults():
    scenario = default_scenario()
    graph = generate_network(SyntheticSpec())
    xs = [v.x for v in graph.vertices()]
    ys = [v.y for v in graph.vertices()]
    ok = (
        scenario.replications == 20
        and Scenario(graph=scenario.graph).replications == 20
        and scenario.policy.overdue_threshold == 1200.0
        and DispatchPolicy().overdue_threshold == 1200.0
        and max(xs) - min(xs) == 14484.0
        and max(ys) - min(ys) == 12875.0
    )
    assert report(10, "defaults: 20 replications, 1200 s threshold, 14484 x 12875 m box", ok)
