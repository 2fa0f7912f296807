"""Brute-force reference evaluations of the dispatch rules and the stop
table's reverse search, plus random dispatcher-state generators.  Written as
flat loops, independent of the implementations they check."""

from __future__ import annotations

import math
import random
from array import array
from heapq import heappop, heappush

from savsim.demand import TripRequest
from savsim.dispatch import (
    DROPOFF,
    PICKUP,
    DispatchPolicy,
    RouteLeg,
    Sav,
)


def brute_select(policy, pending, now, pickup_distance):
    """Literal restatement of the two-tier selection rule over the unassigned requests."""
    tier1 = []
    for r in pending:
        waited = now - r.request_time
        if waited > policy.overdue_threshold:
            if pickup_distance(r) <= policy.priority_radius:
                tier1.append(r)
    pool = tier1 if tier1 else pending
    winner = None
    for r in pool:
        key = (r.request_time, r.id)
        if winner is None or key < winner[0]:
            winner = (key, r)
    return None if winner is None else winner[1].id


def walk_length(position, legs, table):
    if not legs:
        return 0.0
    total = table.distance_from_position(position[0], position[1], legs[0].stop)
    k = 1
    while k < len(legs):
        total += table.distance(legs[k - 1].stop, legs[k].stop)
        k += 1
    return total


def walk_shared(onboard_ids, position, legs, table):
    aboard = set(onboard_ids)
    shared = 0.0
    prev_stop = None
    for idx, leg in enumerate(legs):
        if idx == 0:
            seg = table.distance_from_position(position[0], position[1], leg.stop)
        else:
            seg = table.distance(prev_stop, leg.stop)
        if len(aboard) >= 2:
            shared += seg
        if leg.action == PICKUP:
            aboard.add(leg.request)
        else:
            aboard.discard(leg.request)
        prev_stop = leg.stop
    return shared


def walk_capacity_ok(start_load, capacity, legs):
    load = start_load
    for leg in legs:
        if leg.action == PICKUP:
            load += leg.party_size
            if load > capacity:
                return False
        else:
            load -= leg.party_size
    return True


def brute_best_insertion(policy, sav, candidate, table):
    """First maximal feasible insertion as (route, shared, length, pickup
    index), walking every pair in full; None if no pair is feasible."""
    base = list(sav.route)
    pickup = RouteLeg(candidate.origin, PICKUP, candidate.id, candidate.party_size)
    dropoff = RouteLeg(candidate.destination, DROPOFF, candidate.id, candidate.party_size)
    budget = policy.detour_budget_factor * walk_length(sav.position, base, table)
    best = None
    for i in range(len(base) + 1):
        for j in range(i + 1, len(base) + 2):
            legs = base.copy()
            legs.insert(i, pickup)
            legs.insert(j, dropoff)
            if not walk_capacity_ok(sav.onboard_total, sav.capacity, legs):
                continue
            length = walk_length(sav.position, legs, table)
            if length > budget:
                continue
            shared = walk_shared(sav.onboard, sav.position, legs, table)
            if best is None or shared > best[1]:
                best = (tuple(legs), shared, length, i)
    return best


def brute_best_shared(policy, sav, candidate, table):
    """Max shared distance over every feasible insertion; None if none is."""
    best = brute_best_insertion(policy, sav, candidate, table)
    return None if best is None else best[1]


def heap_distances_to(incoming, root):
    """Reverse Dijkstra on a binary heap of ``(distance, index)`` entries: the reference for
    ``netgraph._distances_to``, with its inputs and outputs.

    A vertex is pushed on its first offer (``dist`` is NaN until then) or one strictly below
    its best so far, and settled at its first pop.  An offer equal to ``dist[u]`` keeps the
    smaller of the two next-edge ranks, settled or not.
    """
    n = len(incoming)
    dist = [math.nan] * n
    nxt = [-1] * n
    settled = [False] * n
    dist[root] = 0.0
    heap = [(0.0, root)]
    while heap:
        d, v = heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        for u, length, rank in incoming[v]:
            offer = length + d
            if offer > dist[u]:
                continue
            if offer == dist[u]:
                if rank < nxt[u]:
                    nxt[u] = rank
            elif not settled[u]:
                dist[u] = offer
                nxt[u] = rank
                heappush(heap, (offer, u))
    return array("d", dist), array("l", nxt)


def random_pending(rng: random.Random, count: int) -> list[TripRequest]:
    """Unassigned requests with random timings."""
    return [TripRequest(rid, 0, 1, rng.uniform(0.0, 3000.0), rng.randint(1, 3)) for rid in range(count)]


def random_policy(rng: random.Random) -> DispatchPolicy:
    return DispatchPolicy(
        overdue_threshold=rng.uniform(300.0, 2400.0),
        priority_radius=rng.uniform(500.0, 8000.0),
        detour_budget_factor=rng.uniform(1.0, 2.0),
        capacity=rng.randint(2, 6),
    )


def random_sav_state(rng: random.Random, stop_ids, positions, capacity: int, next_rid: int):
    """A vehicle state with a route of at most 4 legs.

    Onboard requests contribute one dropoff leg each; one optional
    assigned-but-unpicked request contributes an ordered pickup/dropoff pair.
    Returns (sav, next_request_id).

    The route is not always within capacity: the pickup's party is not
    checked against the load, so onboard ``{174: 1, 175: 2}`` plus a
    2-person pickup at capacity 4 can come out (7 of criterion 4's 500
    states are like this).  Such states are kept on purpose: they catch an
    insertion that forgets to check the base route's own capacity.
    """
    sav = Sav(id=0, capacity=capacity, profile="normal", position=rng.choice(positions))
    legs: list[RouteLeg] = []
    for _ in range(rng.randint(0, 2)):
        party = rng.randint(1, 2)
        if sav.onboard_total + party > capacity - 1:
            continue
        rid = next_rid
        next_rid += 1
        sav.onboard[rid] = party
        legs.insert(rng.randint(0, len(legs)), RouteLeg(rng.choice(stop_ids), DROPOFF, rid, party))
    if rng.random() < 0.6 and len(legs) <= 2:
        rid = next_rid
        next_rid += 1
        party = rng.randint(1, 2)
        i = rng.randint(0, len(legs))
        j = rng.randint(i + 1, len(legs) + 1)
        legs.insert(i, RouteLeg(rng.choice(stop_ids), PICKUP, rid, party))
        legs.insert(j, RouteLeg(rng.choice(stop_ids), DROPOFF, rid, party))
    if not legs:
        rid = next_rid
        next_rid += 1
        sav.onboard[rid] = 1
        legs.append(RouteLeg(rng.choice(stop_ids), DROPOFF, rid, 1))
    sav.route = legs
    sav.status = "en_route"
    return sav, next_rid
