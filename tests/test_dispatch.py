import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savsim import dispatch
from savsim.demand import TripRequest
from savsim.dispatch import (
    ASSIGNED,
    COMPLETED,
    DROPOFF,
    ONBOARD,
    PICKUP,
    REQUEST_STATES,
    UNASSIGNED,
    DispatchPolicy,
    RouteLeg,
    Sav,
    advance,
    on_arrival,
    request_legs,
    resume_walk,
    route_prefix,
    select_next_request,
    try_insert_shared,
)
from savsim.errors import ConsistencyError, InvalidInputError
from savsim.netgraph import RoadGraph, build_stop_distance_table

from brute import (
    brute_best_insertion,
    brute_select,
    random_pending,
    random_policy,
    random_sav_state,
    walk_capacity_ok,
    walk_length,
    walk_shared,
)
from randnets import random_connected_graph, scatter_stops


def line_network():
    """Four vertices in a row, both directions, one stop mid each forward edge."""
    g = RoadGraph()
    for vid, x in enumerate((0.0, 1000.0, 2000.0, 3000.0)):
        g.add_vertex(vid, x, 0.0)
    eid = 0
    for a, b in ((0, 1), (1, 2), (2, 3)):
        g.add_edge(eid, a, b, 15.0, 50)
        g.add_edge(eid + 1, b, a, 15.0, 50)
        eid += 2
    s1 = g.place_stop(0, 500.0, "peripheral_housing")
    s2 = g.place_stop(2, 500.0, "other")
    s3 = g.place_stop(4, 500.0, "central_opportunity")
    return g, build_stop_distance_table(g), (s1, s2, s3)


def as_tuple(res):
    """An insertion in the shape ``brute_best_insertion`` returns."""
    return None if res is None else (res.route, res.shared_miles, res.length, res.pickup_index)


def pair_route(route, cand: TripRequest, i: int, m: int) -> list[RouteLeg]:
    """The route with the candidate's pickup before base leg i and its dropoff before base leg m."""
    pickup = RouteLeg(cand.origin, PICKUP, cand.id, cand.party_size)
    dropoff = RouteLeg(cand.destination, DROPOFF, cand.id, cand.party_size)
    return route[:i] + [pickup] + route[i:m] + [dropoff] + route[m:]


def observe_walks(monkeypatch, sav: Sav, cand: TripRequest) -> list[bool]:
    """Record, for each pair ``try_insert_shared`` walks exactly, whether its
    materialised route keeps capacity at every leg."""
    walked = []

    def checked(prefix, i, m, *distances):
        legs = pair_route(sav.route, cand, i, m)
        walked.append(walk_capacity_ok(sav.onboard_total, sav.capacity, legs))
        return resume_walk(prefix, i, m, *distances)

    monkeypatch.setattr(dispatch, "resume_walk", checked)
    return walked


class TestSelectNextRequest:
    def test_empty(self):
        policy = DispatchPolicy()
        sav = Sav(0, 5, "normal", (0, 0.0))
        assert select_next_request(policy, [], sav, 0.0, lambda p: 0.0) is None

    def test_overdue_in_radius_beats_fcfs(self):
        policy = DispatchPolicy(overdue_threshold=1200.0, priority_radius=3218.0)
        r1 = TripRequest(1, 0, 1, 0.0, 1)
        r2 = TripRequest(2, 0, 1, 600.0, 1)
        dist = {1: 5000.0, 2: 1000.0}
        sav = Sav(0, 5, "normal", (0, 0.0))
        got = select_next_request(
            policy, [r1, r2], sav, 1900.0, lambda r: dist[r.id]
        )
        # r1 is overdue but out of radius; r2 overdue (1300 s) and in radius
        assert got == 2

    def test_fcfs_when_none_overdue(self):
        policy = DispatchPolicy()
        r1 = TripRequest(1, 0, 1, 0.0, 1)
        r2 = TripRequest(2, 0, 1, 10.0, 1)
        sav = Sav(0, 5, "normal", (0, 0.0))
        got = select_next_request(policy, [r1, r2], sav, 500.0, lambda r: 0.0)
        assert got == 1

    def test_overdue_ties_break_by_id(self):
        policy = DispatchPolicy(overdue_threshold=100.0, priority_radius=1000.0)
        r1 = TripRequest(5, 0, 1, 50.0, 1)
        r2 = TripRequest(3, 0, 1, 50.0, 1)
        sav = Sav(0, 5, "normal", (0, 0.0))
        got = select_next_request(policy, [r1, r2], sav, 500.0, lambda r: 0.0)
        assert got == 3

    def test_matches_brute_force(self):
        for seed in range(300):
            rng = random.Random(10_000 + seed)
            policy = random_policy(rng)
            pending = random_pending(rng, rng.randint(0, 20))
            now = rng.uniform(0.0, 4000.0)
            dist = {r.id: rng.uniform(0.0, 9000.0) for r in pending}
            asked, brute_asked = [], []
            sav = Sav(0, policy.capacity, "normal", (0, 0.0))
            got = select_next_request(policy, pending, sav, now,
                                      lambda r: asked.append(r.id) or dist[r.id])
            assert got == brute_select(policy, pending, now,
                                       lambda r: brute_asked.append(r.id) or dist[r.id])
            # only an overdue request can have priority, so only its distance is looked up
            assert asked == brute_asked


class TestInsertion:
    def test_enroute_pickup_accepted(self):
        g, table, (s1, s2, s3) = line_network()
        sav = Sav(0, 5, "normal", (s1.edge, s1.slack))
        sav.onboard = {100: 1}
        sav.route = [RouteLeg(s3.id, DROPOFF, 100, 1)]
        cand = TripRequest(200, s2.id, s3.id, 0.0, 1)
        res = try_insert_shared(DispatchPolicy(), sav, cand, table)
        assert res is not None
        assert [(l.stop, l.action) for l in res.route] == [
            (s2.id, PICKUP),
            (s3.id, DROPOFF),
            (s3.id, DROPOFF),
        ]
        assert res.shared_miles == pytest.approx(table.distance(s2.id, s3.id))
        assert res.shared_miles > 0

    def test_capacity_rejection(self):
        g, table, (s1, s2, s3) = line_network()
        sav = Sav(0, 5, "normal", (s1.edge, s1.slack))
        sav.onboard = {100: 1}
        sav.route = [RouteLeg(s3.id, DROPOFF, 100, 1)]
        cand = TripRequest(200, s2.id, s3.id, 0.0, 5)
        # 6 > 5 while request 100 rides; post-dropoff positions blow the budget
        assert try_insert_shared(DispatchPolicy(), sav, cand, table) is None

    def test_zero_added_distance_accepted_at_tight_budget(self):
        g, table, (s1, s2, s3) = line_network()
        sav = Sav(0, 5, "normal", (s1.edge, s1.slack))
        sav.onboard = {100: 1}
        sav.route = [RouteLeg(s3.id, DROPOFF, 100, 1)]
        cand = TripRequest(200, s1.id, s3.id, 0.0, 1)
        res = try_insert_shared(
            DispatchPolicy(detour_budget_factor=1.0), sav, cand, table
        )
        assert res is not None
        assert res.length == pytest.approx(walk_length(sav.position, sav.route, table))

    def test_capacity_scan_stops_at_first_overfull_dropoff(self, monkeypatch):
        g, table, (s1, s2, s3) = line_network()
        sav = Sav(0, 2, "normal", (s1.edge, s1.slack))
        sav.onboard = {100: 2}
        sav.route = [
            RouteLeg(s2.id, DROPOFF, 100, 2),
            RouteLeg(s2.id, PICKUP, 101, 2),
            RouteLeg(s3.id, DROPOFF, 101, 2),
        ]
        cand = TripRequest(200, s1.id, s3.id, 0.0, 1)
        policy = DispatchPolicy(detour_budget_factor=10.0)   # only capacity binds
        walked = observe_walks(monkeypatch, sav, cand)
        res = try_insert_shared(policy, sav, cand, table)
        assert as_tuple(res) == brute_best_insertion(policy, sav, cand, table)
        assert res is not None and walked and all(walked)

    def test_candidate_already_on_the_vehicle_is_consistency_error(self):
        g, table, (s1, s2, s3) = line_network()
        sav = Sav(0, 5, "normal", (s1.edge, s1.slack))
        sav.onboard = {100: 1}
        sav.route = [RouteLeg(s2.id, PICKUP, 101, 1), RouteLeg(s3.id, DROPOFF, 101, 1),
                     RouteLeg(s3.id, DROPOFF, 100, 1)]
        for rid in (100, 101):
            cand = TripRequest(rid, s1.id, s3.id, 0.0, 1)
            with pytest.raises(ConsistencyError, match=str(rid)):
                try_insert_shared(DispatchPolicy(), sav, cand, table)

    def test_route_never_mutated(self):
        g, table, (s1, s2, s3) = line_network()
        sav = Sav(0, 5, "normal", (s1.edge, s1.slack))
        sav.onboard = {100: 1}
        original = [RouteLeg(s3.id, DROPOFF, 100, 1)]
        sav.route = list(original)
        try_insert_shared(DispatchPolicy(), sav, TripRequest(200, s2.id, s3.id, 0.0, 5), table)
        try_insert_shared(DispatchPolicy(), sav, TripRequest(201, s2.id, s3.id, 0.0, 1), table)
        assert sav.route == original

    def test_accepted_insertions_respect_budget(self):
        rng = random.Random(91)
        g = random_connected_graph(rng, max_vertices=12, max_edges=30)
        stops = scatter_stops(rng, g, 6)
        table = build_stop_distance_table(g)
        stop_ids = [s.id for s in stops]
        positions = [(s.edge, s.slack) for s in stops]
        rid = 1000
        for trial in range(150):
            policy = random_policy(rng)
            sav, rid = random_sav_state(rng, stop_ids, positions, policy.capacity, rid)
            origin, dest = rng.sample(stop_ids, 2)
            cand = TripRequest(rid, origin, dest, 0.0, rng.randint(1, 3))
            rid += 1
            res = try_insert_shared(policy, sav, cand, table)
            if res is not None:
                budget = policy.detour_budget_factor * walk_length(sav.position, sav.route, table)
                assert res.length <= budget

    def test_matches_exhaustive_maximum(self):
        rng = random.Random(92)
        g = random_connected_graph(rng, max_vertices=12, max_edges=30)
        stops = scatter_stops(rng, g, 6)
        table = build_stop_distance_table(g)
        stop_ids = [s.id for s in stops]
        positions = [(s.edge, s.slack) for s in stops]
        rid = 1000
        for trial in range(150):
            policy = random_policy(rng)
            sav, rid = random_sav_state(rng, stop_ids, positions, policy.capacity, rid)
            origin, dest = rng.sample(stop_ids, 2)
            cand = TripRequest(rid, origin, dest, 0.0, rng.randint(1, 3))
            rid += 1
            res = try_insert_shared(policy, sav, cand, table)
            assert as_tuple(res) == brute_best_insertion(policy, sav, cand, table)

    def test_matches_brute_force_on_long_chained_routes(self):
        # routes of 13 to 89 legs, grown by applying accepted insertions; the
        # sweep's longest offered routes reach 89 legs.  The first offer at
        # every other length (they grow by two) is checked, and offered again
        # under a capacity that the candidate's party can just break.
        rng = random.Random(94)
        g = random_connected_graph(rng, max_vertices=12, max_edges=30)
        stops = scatter_stops(rng, g, 8)
        table = build_stop_distance_table(g)
        stop_ids = [s.id for s in stops]
        grow = DispatchPolicy(capacity=40, detour_budget_factor=2.0)
        home = stops[0]
        sav = Sav(0, grow.capacity, "normal", (home.edge, home.slack), onboard={0: 1},
                  route=[RouteLeg(stop_ids[1], DROPOFF, 0, 1)], status="en_route")
        rid = 1
        lengths = []
        while len(sav.route) < 90:
            origin, dest = rng.sample(stop_ids, 2)
            cand = TripRequest(rid, origin, dest, 0.0, rng.randint(1, 3))
            rid += 1
            res = try_insert_shared(grow, sav, cand, table)
            if len(sav.route) >= 10 and len(sav.route) % 4 == 1 and len(sav.route) not in lengths:
                assert as_tuple(res) == brute_best_insertion(grow, sav, cand, table)
                peak = max(itertools.accumulate(
                    (l.party_size if l.action == PICKUP else -l.party_size for l in sav.route),
                    initial=sav.onboard_total,
                ))
                tight = DispatchPolicy(capacity=peak + rng.randint(0, 2),
                                       detour_budget_factor=rng.uniform(1.0, 1.6))
                tight_sav = dataclasses.replace(sav, capacity=tight.capacity)
                assert as_tuple(try_insert_shared(tight, tight_sav, cand, table)) == (
                    brute_best_insertion(tight, tight_sav, cand, table)
                )
                lengths.append(len(sav.route))
            if res is not None:
                sav.route = list(res.route)
        assert lengths[0] == 13 and lengths[-1] == 89

    def test_exact_shared_ties_keep_the_first_pair(self):
        # both onboard riders alight at s3, so the candidate's dropoff at s3
        # may precede either of them, or both, with the same shared distance
        g, table, (s1, s2, s3) = line_network()
        sav = Sav(0, 5, "normal", (s1.edge, s1.slack))
        sav.onboard = {100: 1, 101: 1}
        sav.route = [RouteLeg(s3.id, DROPOFF, 100, 1), RouteLeg(s3.id, DROPOFF, 101, 1)]
        cand = TripRequest(200, s2.id, s3.id, 0.0, 1)
        res = try_insert_shared(DispatchPolicy(), sav, cand, table)
        assert as_tuple(res) == brute_best_insertion(DispatchPolicy(), sav, cand, table)
        assert [(l.stop, l.request) for l in res.route] == [
            (s2.id, 200), (s3.id, 200), (s3.id, 100), (s3.id, 101)
        ]

    def test_exact_shared_ties_on_repeated_stops(self):
        rng = random.Random(96)
        g = random_connected_graph(rng, max_vertices=10, max_edges=25)
        stops = scatter_stops(rng, g, 3)
        table = build_stop_distance_table(g)
        a, b, c = (s.id for s in stops)
        for trial in range(40):
            sav = Sav(0, 6, "normal", (stops[0].edge, stops[0].slack))
            sav.onboard = {1: 1, 2: 1}
            sav.route = [RouteLeg(rng.choice((a, b, c)), DROPOFF, 1, 1)]
            for rid in range(3, 3 + rng.randint(2, 6)):
                stop = rng.choice((a, b))
                sav.route += [RouteLeg(stop, PICKUP, rid, 1), RouteLeg(stop, DROPOFF, rid, 1)]
            sav.route.append(RouteLeg(rng.choice((a, b, c)), DROPOFF, 2, 1))
            origin, dest = rng.sample((a, b, c), 2)
            cand = TripRequest(99, origin, dest, 0.0, 1)
            policy = DispatchPolicy(detour_budget_factor=rng.choice((1.0, 1.2, 2.0)))
            assert as_tuple(try_insert_shared(policy, sav, cand, table)) == (
                brute_best_insertion(policy, sav, cand, table)
            )

    def test_length_exactly_at_budget_is_accepted(self):
        # the candidate rides from where the vehicle stands to its last stop:
        # with the pickup first and the dropoff last it adds no distance
        rng = random.Random(97)
        g = random_connected_graph(rng, max_vertices=12, max_edges=30)
        stops = scatter_stops(rng, g, 6)
        table = build_stop_distance_table(g)
        sav = Sav(0, 5, "normal", (stops[0].edge, stops[0].slack))
        sav.onboard = {rid: 1 for rid in range(1, 5)}
        sav.route = [RouteLeg(s.id, DROPOFF, rid, 1) for rid, s in enumerate(stops[1:5], 1)]
        cand = TripRequest(9, stops[0].id, stops[4].id, 0.0, 1)
        policy = DispatchPolicy(detour_budget_factor=1.0, capacity=5)
        res = try_insert_shared(policy, sav, cand, table)
        assert res is not None
        assert res.length == walk_length(sav.position, sav.route, table)
        assert as_tuple(res) == brute_best_insertion(policy, sav, cand, table)

    def test_walks_only_pairs_that_can_change_the_decision(self, monkeypatch):
        # 20 back-to-back single-passenger rides: every one of the 861 pairs
        # fits capacity 5, and an exhaustive search walks each of them
        rng = random.Random(95)
        g = random_connected_graph(rng, max_vertices=12, max_edges=30)
        stops = scatter_stops(rng, g, 8)
        table = build_stop_distance_table(g)
        stop_ids = [s.id for s in stops]
        route = []
        for rid in range(20):
            a, b = rng.sample(stop_ids, 2)
            route += [RouteLeg(a, PICKUP, rid, 1), RouteLeg(b, DROPOFF, rid, 1)]
        home = g.stop(route[0].stop)
        sav = Sav(0, 5, "normal", (home.edge, home.slack), route=route, status="en_route")
        cand = TripRequest(100, *rng.sample(stop_ids, 2), 0.0, 1)
        walked = observe_walks(monkeypatch, sav, cand)
        res = try_insert_shared(DispatchPolicy(), sav, cand, table)
        assert as_tuple(res) == brute_best_insertion(DispatchPolicy(), sav, cand, table)
        # only pairs that beat or nearly tie the best so far are walked: 34 here,
        # where an exhaustive scan walks all 861
        assert walked and all(walked)
        assert len(walked) <= len(route) + 1

    def test_reach_and_direct_bound_fires_only_when_no_pair_is_feasible(self):
        # the lower bound try_insert_shared rejects by, restated: every pair
        # drives from the vehicle to the origin and from there to the destination
        rng = random.Random(98)
        fired = 0
        for _ in range(6):
            g = random_connected_graph(rng, max_vertices=12, max_edges=30)
            stops = scatter_stops(rng, g, 6)
            table = build_stop_distance_table(g)
            stop_ids = [s.id for s in stops]
            positions = [(s.edge, s.slack) for s in stops]
            rid = 1000
            for _ in range(100):
                policy = random_policy(rng)
                sav, rid = random_sav_state(rng, stop_ids, positions, policy.capacity, rid)
                cand = TripRequest(rid, *rng.sample(stop_ids, 2), 0.0, rng.randint(1, 3))
                rid += 1
                budget = policy.detour_budget_factor * walk_length(sav.position, sav.route, table)
                tol = 1e-9 * (budget + 1.0) * (len(sav.route) + 4)
                reach = table.distance_from_position(*sav.position, cand.origin)
                if reach + table.distance(cand.origin, cand.destination) > budget + tol:
                    fired += 1
                    assert brute_best_insertion(policy, sav, cand, table) is None
                    assert try_insert_shared(policy, sav, cand, table) is None
        assert fired >= 100

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rides=st.integers(0, 8))
    def test_resumed_walk_is_the_brute_walks_of_the_built_route_bit_for_bit(self, seed, rides):
        # every pair of a random vehicle state, its route lengthened by
        # random rides so that up to a dozen requests share it
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=10, max_edges=25)
        stops = scatter_stops(rng, g, 5)
        table = build_stop_distance_table(g)
        stop_ids = [s.id for s in stops]
        sav, rid = random_sav_state(rng, stop_ids, positions=[(s.edge, s.slack) for s in stops],
                                    capacity=5, next_rid=0)
        for _ in range(rides):
            ride = TripRequest(rid, *rng.sample(stop_ids, 2), 0.0, 1)
            i = rng.randint(0, len(sav.route))
            sav.route = pair_route(sav.route, ride, i, rng.randint(i, len(sav.route)))
            rid += 1
        cand = TripRequest(rid, *rng.sample(stop_ids, 2), 0.0, 1)
        base, n = sav.route, len(sav.route)
        prefix = route_prefix(sav, table)
        for i in range(n + 1):
            into_pickup = (table.distance_from_position(*sav.position, cand.origin) if i == 0
                           else table.distance(base[i - 1].stop, cand.origin))
            from_pickup = table.distance(cand.origin, base[i].stop) if i < n else math.nan
            for m in range(i, n + 1):
                into_dropoff = table.distance(cand.origin if m == i else base[m - 1].stop,
                                              cand.destination)
                from_dropoff = table.distance(cand.destination, base[m].stop) if m < n else math.nan
                got = resume_walk(prefix, i, m, into_pickup, from_pickup, into_dropoff, from_dropoff)
                route = pair_route(base, cand, i, m)
                want = (walk_length(sav.position, route, table),
                        walk_shared(sav.onboard, sav.position, route, table))
                assert [x.hex() for x in got] == [x.hex() for x in want], (i, m)


def empty_maps() -> dict[str, dict[int, TripRequest]]:
    return {state: {} for state in REQUEST_STATES}


class TestOnArrival:
    def make_state(self):
        g, table, (s1, s2, s3) = line_network()
        req = TripRequest(7, s1.id, s3.id, 0.0, 2)
        by_state = empty_maps()
        by_state[ASSIGNED][7] = req
        sav = Sav(0, 5, "normal", (s1.edge, s1.slack))
        sav.onboard = {99: 1}
        sav.route = request_legs(req)
        return sav, req, by_state

    def test_pickup_boards_party(self):
        sav, req, by_state = self.make_state()
        assert on_arrival(sav, sav.route[0], by_state) is req
        assert sav.onboard_total == 3
        assert by_state == {**empty_maps(), ONBOARD: {7: req}}

    def test_dropoff_completes(self):
        sav, req, by_state = self.make_state()
        on_arrival(sav, sav.route[0], by_state)
        assert on_arrival(sav, sav.route[1], by_state) is req
        assert sav.onboard_total == 1
        assert by_state == {**empty_maps(), COMPLETED: {7: req}}

    def test_double_pickup_is_consistency_error(self):
        sav, req, by_state = self.make_state()
        on_arrival(sav, sav.route[0], by_state)
        with pytest.raises(ConsistencyError):
            on_arrival(sav, sav.route[0], by_state)

    def test_dropoff_of_a_request_still_assigned_is_consistency_error(self):
        sav, req, by_state = self.make_state()
        with pytest.raises(ConsistencyError, match="dropoff for request 7"):
            on_arrival(sav, sav.route[1], by_state)
        assert by_state == {**empty_maps(), ASSIGNED: {7: req}} and sav.onboard == {99: 1}

    def test_capacity_violation_detected(self):
        sav, req, by_state = self.make_state()
        sav.onboard = {99: 4}
        with pytest.raises(ConsistencyError):
            on_arrival(sav, sav.route[0], by_state)


class TestAdvance:
    def test_moves_the_request_between_the_state_maps(self):
        req = TripRequest(7, 0, 1, 0.0, 1)
        by_state = empty_maps()
        by_state[UNASSIGNED][7] = req
        assert advance(by_state, 7, ASSIGNED) is req
        assert by_state == {**empty_maps(), ASSIGNED: {7: req}}
        with pytest.raises(ConsistencyError, match="request 7 is not onboard, so it cannot become completed"):
            advance(by_state, 7, COMPLETED)
        assert by_state == {**empty_maps(), ASSIGNED: {7: req}}

    def test_a_skipped_step_is_a_named_error(self):
        # the request sits in the unassigned map, so it cannot board
        by_state = empty_maps()
        by_state[UNASSIGNED][7] = req = TripRequest(7, 0, 1, 0.0, 1)
        with pytest.raises(ConsistencyError, match="request 7 is not assigned, so it cannot become onboard"):
            advance(by_state, 7, ONBOARD)
        assert by_state == {**empty_maps(), UNASSIGNED: {7: req}}

    def test_only_an_arrival_enters_unassigned(self):
        by_state = empty_maps()
        by_state[COMPLETED][7] = req = TripRequest(7, 0, 1, 0.0, 1)
        with pytest.raises(ConsistencyError, match="request 7: only its arrival"):
            advance(by_state, 7, UNASSIGNED)
        assert by_state == {**empty_maps(), COMPLETED: {7: req}}

    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 6),
           moves=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(REQUEST_STATES)), max_size=40))
    def test_each_request_stays_in_exactly_one_map(self, count, moves):
        # ids past ``count`` were never seen: every move of one must fail too
        by_state = empty_maps()
        requests = [TripRequest(rid, 0, 1, float(rid), 1) for rid in range(count)]
        by_state[UNASSIGNED] = {r.id: r for r in requests}
        state = {r.id: 0 for r in requests}   # index into REQUEST_STATES, kept apart from the maps
        for rid, new_state in moves:
            before = {s: dict(held) for s, held in by_state.items()}
            k = REQUEST_STATES.index(new_state)
            if rid in state and k == state[rid] + 1:
                assert advance(by_state, rid, new_state) is requests[rid]
                state[rid] = k
            else:
                with pytest.raises(ConsistencyError, match=f"request {rid}"):
                    advance(by_state, rid, new_state)
                assert by_state == before
            assert sum(map(len, by_state.values())) == count
            for r in requests:
                assert [s for s, held in by_state.items() if r.id in held] == [REQUEST_STATES[state[r.id]]]
                assert by_state[REQUEST_STATES[state[r.id]]][r.id] is r


class TestPolicyValidation:
    def test_bad_values(self):
        with pytest.raises(InvalidInputError):
            DispatchPolicy(overdue_threshold=0.0)
        with pytest.raises(InvalidInputError):
            DispatchPolicy(detour_budget_factor=0.9)
        with pytest.raises(InvalidInputError):
            DispatchPolicy(capacity=0)
        for field in ("overdue_threshold", "priority_radius", "detour_budget_factor", "capacity"):
            for bad in (math.nan, math.inf):
                with pytest.raises(InvalidInputError, match=field):
                    DispatchPolicy(**{field: bad})

    def test_defaults(self):
        p = DispatchPolicy()
        assert p.overdue_threshold == 1200.0
        assert p.priority_radius == 3218.0
        assert p.detour_budget_factor == 1.4
        assert p.capacity == 5


def test_shared_distance_walk_agrees_with_reference():
    rng = random.Random(93)
    g = random_connected_graph(rng, max_vertices=10, max_edges=25)
    stops = scatter_stops(rng, g, 5)
    table = build_stop_distance_table(g)
    stop_ids = [s.id for s in stops]
    positions = [(s.edge, s.slack) for s in stops]
    rid = 0
    for _ in range(50):
        sav, rid = random_sav_state(rng, stop_ids, positions, 5, rid)
        prefix = route_prefix(sav, table)
        length, shared = prefix.length[-1], prefix.shared[-1]
        assert length.hex() == walk_length(sav.position, sav.route, table).hex()
        assert shared.hex() == walk_shared(sav.onboard, sav.position, sav.route, table).hex()
        assert shared >= 0.0
