"""Fleet dispatch policy: overdue-first selection and shared-ride insertion.

Selection is two-tier: requests that have waited past the overdue threshold
and whose pickup lies within the priority radius of the vehicle are served
first (longest wait wins), otherwise strict first-come-first-serve.  Ride
sharing inserts a pickup/dropoff pair into an existing route at the position
pair that maximizes shared distance (meters driven with two or more distinct
requests onboard), subject to capacity at every leg and a detour budget on
total route length.  Each pair is scored in O(1) from prefix sums over the
route, and only pairs whose score could beat the best so far, within a
rounding tolerance, are walked exactly by ``route_cost``, whose totals alone
decide; the result is the pair an exhaustive walk would pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .demand import TripRequest
from .errors import ConsistencyError, InvalidInputError, check_finite

PICKUP = "pickup"
DROPOFF = "dropoff"

IDLE = "idle"
EN_ROUTE = "en_route"
DWELLING = "dwelling"

UNASSIGNED = "unassigned"
ASSIGNED = "assigned"
ONBOARD = "onboard"
COMPLETED = "completed"

_STATE_ORDER = (UNASSIGNED, ASSIGNED, ONBOARD, COMPLETED)


@dataclass(frozen=True)
class DispatchPolicy:
    overdue_threshold: float = 1200.0      # seconds
    priority_radius: float = 3218.0        # meters (about 2 miles)
    detour_budget_factor: float = 1.4
    capacity: int = 5

    def __post_init__(self) -> None:
        check_finite("policy", overdue_threshold=self.overdue_threshold,
                     priority_radius=self.priority_radius,
                     detour_budget_factor=self.detour_budget_factor, capacity=self.capacity)
        if self.overdue_threshold <= 0 or self.priority_radius <= 0:
            raise InvalidInputError("threshold and radius must be > 0")
        if self.detour_budget_factor < 1.0:
            raise InvalidInputError("detour_budget_factor must be >= 1")
        if self.capacity < 1:
            raise InvalidInputError("capacity must be >= 1")


@dataclass(frozen=True)
class RouteLeg:
    """One scheduled visit: pick up or drop off one request at one stop."""

    stop: int
    action: str
    request: int
    party_size: int


@dataclass
class PendingRequest:
    """Lifecycle wrapper around a trip request."""

    request: TripRequest
    state: str = UNASSIGNED
    assigned_sav: int | None = None
    pickup_time: float | None = None
    completion_time: float | None = None

    def advance(self, new_state: str) -> None:
        if _STATE_ORDER.index(new_state) != _STATE_ORDER.index(self.state) + 1:
            raise ConsistencyError(
                f"request {self.request.id}: illegal transition {self.state} -> {new_state}"
            )
        self.state = new_state


@dataclass
class Sav:
    """A fleet vehicle; mutated only by the engine within one replication."""

    id: int
    capacity: int
    profile: str
    position: tuple[int, float]               # (edge id, meters along edge)
    route: list[RouteLeg] = field(default_factory=list)
    onboard: dict[int, int] = field(default_factory=dict)  # request id -> party size
    status: str = IDLE

    @property
    def onboard_total(self) -> int:
        return sum(self.onboard.values())

    def assert_capacity(self) -> None:
        if self.onboard_total > self.capacity:
            raise ConsistencyError(
                f"sav {self.id} over capacity: {self.onboard_total} > {self.capacity}"
            )


def select_next_request(
    policy: DispatchPolicy,
    pending: Iterable[PendingRequest],
    sav: Sav,
    now: float,
    pickup_distance: Callable[[PendingRequest], float],
) -> int | None:
    """Pick the next unassigned request for a vehicle, or None.

    Tier 1: overdue requests (waited strictly longer than the threshold)
    whose pickup stop is within the priority radius; longest wait first,
    ties by smallest request id.  Tier 2: earliest request time, ties by
    smallest id.
    """
    unassigned = [p for p in pending if p.state == UNASSIGNED]
    if not unassigned:
        return None
    overdue = [
        p for p in unassigned
        if (now - p.request.request_time) > policy.overdue_threshold
        and pickup_distance(p) <= policy.priority_radius
    ]
    best = min(overdue or unassigned, key=lambda p: (p.request.request_time, p.request.id))
    return best.request.id


def route_cost(sav: Sav, legs: list[RouteLeg], table) -> tuple[float, float]:
    """Driving distance from the vehicle's position through all legs, and the
    part of it driven with at least two distinct requests onboard."""
    onboard = set(sav.onboard)
    length = 0.0
    shared = 0.0
    edge_id, offset = sav.position
    prev: int | None = None
    for leg in legs:
        seg = (
            table.distance_from_position(edge_id, offset, leg.stop)
            if prev is None
            else table.distance(prev, leg.stop)
        )
        length += seg
        if len(onboard) >= 2:
            shared += seg
        if leg.action == PICKUP:
            onboard.add(leg.request)
        else:
            onboard.discard(leg.request)
        prev = leg.stop
    return length, shared


@dataclass(frozen=True)
class Insertion:
    """An accepted shared-ride amendment."""

    route: tuple[RouteLeg, ...]
    shared_miles: float
    length: float
    pickup_index: int


def try_insert_shared(
    policy: DispatchPolicy,
    sav: Sav,
    candidate: TripRequest,
    table,
) -> Insertion | None:
    """Best feasible insertion of a request into an active route, or None.

    Tries every pickup/dropoff position pair that preserves the order of
    existing legs, discards pairs that break capacity at any leg or push the
    route past ``detour_budget_factor`` times its current length, and keeps
    the pair with the most shared distance (first such pair on ties).  The
    vehicle's route is never mutated; the caller applies the amendment.

    One left-to-right pass over the route of ``L`` legs records each
    segment's distance, the distinct requests aboard on it and the load
    after each leg, with prefix sums of length, of shared distance (two or
    more aboard) and of would-be-shared distance (one or more aboard: shared
    once the candidate rides too).  A pair with the pickup before base leg
    ``i`` and the dropoff before base leg ``m >= i`` then scores in O(1): a
    term for ``i`` plus a term for ``m``, each a few prefix differences and
    the distances to and from the candidate's stops, looked up once per
    index.  Capacity is a running check on the loads, and the dropoff scan
    for ``i`` stops at the first base pickup the candidate would overfill.
    A route that is over capacity without the candidate has no feasible pair.

    The scores only filter; ``route_cost`` decides.  A score adds the same
    segment distances as the exact left-to-right walk in another order, so
    the two differ by rounding alone.  For a pair within budget every term
    is at most the budget (the factor is at least 1, so the base length is
    too).  A prefix difference carries only the roundings inside its range,
    so a score and the walk round fewer than ``3 (L + 4)`` times between
    them, each time a value of at most three budgets: they differ by less
    than ``9 (L + 4) 2**-53 budget``, and ``tol = 1e-9 (budget + 1) (L + 4)``
    is over 10**5 times that.  A pair is skipped when its length score is
    over ``budget + tol`` or, once a best pair exists, its shared score is
    at most ``best.shared_miles - tol``: neither could pass the exact tests.
    Every other pair is materialised and walked by ``route_cost``, and the
    exact ``length > budget`` and ``shared > best.shared_miles`` tests
    decide it, so the result is the pair an exhaustive walk returns.

    The prefix scores count the candidate as one more distinct request
    aboard, so its id must be new to the vehicle; a ConsistencyError says
    otherwise.
    """
    base = list(sav.route)
    n = len(base)
    origin, dest, party = candidate.origin, candidate.destination, candidate.party_size
    pickup = RouteLeg(origin, PICKUP, candidate.id, party)
    dropoff = RouteLeg(dest, DROPOFF, candidate.id, party)
    edge_id, offset = sav.position

    # entry k describes the state before base leg k; entry n, after the last
    length = [0.0]
    shared = [0.0]
    ridden = [0.0]
    aboard: list[int] = []
    load = [sav.onboard_total]
    onboard = set(sav.onboard)
    if candidate.id in onboard:
        raise ConsistencyError(f"sav {sav.id}: request {candidate.id} is already aboard")
    prev: int | None = None
    for leg in base:
        if leg.request == candidate.id:
            raise ConsistencyError(f"sav {sav.id}: request {candidate.id} is already routed")
        seg = (
            table.distance_from_position(edge_id, offset, leg.stop)
            if prev is None
            else table.distance(prev, leg.stop)
        )
        count = len(onboard)
        aboard.append(count)
        length.append(length[-1] + seg)
        shared.append(shared[-1] + seg if count >= 2 else shared[-1])
        ridden.append(ridden[-1] + seg if count >= 1 else ridden[-1])
        if leg.action == PICKUP:
            onboard.add(leg.request)
            load.append(load[-1] + leg.party_size)
            if load[-1] > sav.capacity:
                return None
        else:
            onboard.discard(leg.request)
            load.append(load[-1] - leg.party_size)
        prev = leg.stop
    aboard.append(len(onboard))
    budget = policy.detour_budget_factor * length[n]
    tol = 1e-9 * (budget + 1.0) * (n + 4)

    # dropoff before base leg m: from the dropoff on, and (m > i) the
    # candidate's ride from base leg m - 1 to its destination
    tail_len = [0.0] * (n + 1)
    tail_shared = [0.0] * (n + 1)
    for m in range(n):
        out = table.distance(dest, base[m].stop)
        tail_len[m] = out + (length[n] - length[m + 1])
        tail_shared[m] = (out if aboard[m] >= 2 else 0.0) + (shared[n] - shared[m + 1])
    col_len = [0.0] * (n + 1)
    col_shared = [0.0] * (n + 1)
    for m in range(1, n + 1):
        into = table.distance(base[m - 1].stop, dest)
        col_len[m] = length[m] + into + tail_len[m]
        col_shared[m] = ridden[m] + (into if aboard[m] >= 1 else 0.0) + tail_shared[m]
    direct = table.distance(origin, dest)

    best: Insertion | None = None
    for i in range(n + 1):
        if load[i] + party > sav.capacity:
            continue
        into = (
            table.distance_from_position(edge_id, offset, origin)
            if i == 0
            else table.distance(base[i - 1].stop, origin)
        )
        head_len = length[i] + into
        head_shared = shared[i] + (into if aboard[i] >= 2 else 0.0)
        if i < n:
            out = table.distance(origin, base[i].stop)
            row_len = head_len + out - length[i + 1]
            row_shared = head_shared + (out if aboard[i] >= 1 else 0.0) - ridden[i + 1]
        for m in range(i, n + 1):
            if m == i:
                approx_len = head_len + direct + tail_len[i]
                approx_shared = head_shared + (direct if aboard[i] >= 1 else 0.0) + tail_shared[i]
            elif base[m - 1].action == PICKUP and load[m] + party > sav.capacity:
                break   # a later dropoff keeps the party aboard over more legs
            else:
                approx_len = row_len + col_len[m]
                approx_shared = row_shared + col_shared[m]
            if approx_len > budget + tol:
                continue
            if best is not None and approx_shared <= best.shared_miles - tol:
                continue
            legs = base[:i] + [pickup] + base[i:m] + [dropoff] + base[m:]
            exact_len, exact_shared = route_cost(sav, legs, table)
            if exact_len > budget:
                continue
            if best is None or exact_shared > best.shared_miles:
                best = Insertion(tuple(legs), exact_shared, exact_len, i)
    return best


def on_arrival(
    sav: Sav,
    leg: RouteLeg,
    pending: dict[int, PendingRequest],
    now: float,
) -> None:
    """Board or alight one leg's party at the stop the vehicle reached."""
    pr = pending.get(leg.request)
    if pr is None:
        raise ConsistencyError(f"sav {sav.id}: leg references unknown request {leg.request}")
    if leg.action == PICKUP:
        if pr.state != ASSIGNED or leg.request in sav.onboard:
            raise ConsistencyError(
                f"sav {sav.id}: pickup for request {leg.request} in state {pr.state}"
            )
        sav.onboard[leg.request] = leg.party_size
        sav.assert_capacity()
        pr.advance(ONBOARD)
        pr.pickup_time = now
        return
    if pr.state != ONBOARD or leg.request not in sav.onboard:
        raise ConsistencyError(
            f"sav {sav.id}: dropoff for request {leg.request} in state {pr.state}"
        )
    del sav.onboard[leg.request]
    pr.advance(COMPLETED)
    pr.completion_time = now


def request_legs(request: TripRequest) -> list[RouteLeg]:
    """Fresh pickup-then-dropoff route for a newly assigned request."""
    return [
        RouteLeg(request.origin, PICKUP, request.id, request.party_size),
        RouteLeg(request.destination, DROPOFF, request.id, request.party_size),
    ]
