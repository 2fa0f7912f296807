"""Fleet dispatch policy: overdue-first selection and shared-ride insertion.

Selection is two-tier: requests that have waited past the overdue threshold
and whose pickup lies within the priority radius of the vehicle are served
first (longest wait wins), otherwise strict first-come-first-serve.  Ride
sharing inserts a pickup/dropoff pair into an existing route at the position
pair that maximizes shared distance (meters driven with two or more distinct
requests onboard), subject to capacity at every leg and a detour budget on
total route length.
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


def _capacity_feasible(sav: Sav, legs: list[RouteLeg]) -> bool:
    load = sav.onboard_total
    for leg in legs:
        if leg.action == PICKUP:
            load += leg.party_size
            if load > sav.capacity:
                return False
        else:
            load -= leg.party_size
    return True


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
    """
    base = list(sav.route)
    pickup = RouteLeg(candidate.origin, PICKUP, candidate.id, candidate.party_size)
    dropoff = RouteLeg(candidate.destination, DROPOFF, candidate.id, candidate.party_size)
    budget = policy.detour_budget_factor * route_cost(sav, base, table)[0]
    best: Insertion | None = None
    for i in range(len(base) + 1):
        for j in range(i + 1, len(base) + 2):
            legs = base.copy()
            legs.insert(i, pickup)
            legs.insert(j, dropoff)
            if not _capacity_feasible(sav, legs):
                break   # a later dropoff keeps the party aboard over more legs
            length, shared = route_cost(sav, legs, table)
            if length > budget:
                continue
            if best is None or shared > best.shared_miles:
                best = Insertion(tuple(legs), shared, length, i)
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
