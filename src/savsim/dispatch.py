"""Fleet dispatch policy: overdue-first selection and shared-ride insertion.

Selection is two-tier: requests that have waited past the overdue threshold
and whose pickup lies within the priority radius of the vehicle are served
first (longest wait wins), otherwise strict first-come-first-serve.  Ride
sharing inserts a pickup/dropoff pair into an existing route at the position
pair that maximizes shared distance (meters driven with two or more distinct
requests onboard), subject to capacity at every leg and a detour budget on
total route length.  Each pair is scored in O(1) from prefix sums over the
route, and only pairs whose score could beat the best so far, within a
rounding tolerance, are walked exactly, resuming from the prefix sums before
the pickup; the walk equals the last prefix sums of the amended route bit
for bit, and its totals alone decide, so the result is the pair an
exhaustive walk would pick.  ``route_prefix`` is the one left-to-right pass
over a route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

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

REQUEST_STATES = (UNASSIGNED, ASSIGNED, ONBOARD, COMPLETED)   # the lifecycle, in order


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


def advance(by_state: dict[str, dict[int, TripRequest]], rid: int, new_state: str) -> TripRequest:
    """Move request ``rid`` from the map of the state before ``new_state`` to ``new_state``'s; return it.

    A replication's per-state ``{request id: request}`` maps, keyed by
    ``REQUEST_STATES``, are its only registry of requests, each map in the
    order the requests entered it, and the map that holds a request is its
    state.  This is the one transition point: only the engine's request
    arrival enters ``UNASSIGNED``.  A request that is not in the map it must
    leave is a ConsistencyError, and the maps are left unchanged.
    """
    k = REQUEST_STATES.index(new_state)
    if k == 0:
        raise ConsistencyError(f"request {rid}: only its arrival makes a request {UNASSIGNED}")
    old = REQUEST_STATES[k - 1]
    request = by_state[old].pop(rid, None)
    if request is None:
        raise ConsistencyError(f"request {rid} is not {old}, so it cannot become {new_state}")
    by_state[new_state][rid] = request
    return request


@dataclass
class Sav:
    """A fleet vehicle, its leg and its tallies; mutated only by the engine within one replication."""

    id: int
    capacity: int
    profile: str
    position: tuple[int, float]               # (edge id, meters along edge)
    route: list[RouteLeg] = field(default_factory=list)
    onboard: dict[int, int] = field(default_factory=dict)  # request id -> party size
    status: str = IDLE
    plan: object = None   # the engine's leg plan being driven, else None
    delay: float = 0.0    # delay and stop events of the legs it has ended
    stops: int = 0

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
    pending: Iterable[TripRequest],
    sav: Sav,
    now: float,
    pickup_distance: Callable[[TripRequest], float],
) -> int | None:
    """Pick the next request for a vehicle, or None; ``pending`` must be the unassigned requests.

    Requests rank by ``(not priority, request time, id)``.  A request has
    priority when it is overdue (waited strictly longer than the threshold)
    and its pickup stop is within the priority radius, so an overdue one
    nearby goes first, longest wait first; otherwise first come, first
    served.  ``pickup_distance`` is called only for overdue requests.
    """

    def rank(r: TripRequest) -> tuple[bool, float, int]:
        priority = (now - r.request_time) > policy.overdue_threshold and pickup_distance(r) <= policy.priority_radius
        return not priority, r.request_time, r.id

    best = min(pending, key=rank, default=None)
    return None if best is None else best.id


class RoutePrefix(NamedTuple):
    """One left-to-right pass over a vehicle's route of ``n`` legs.

    ``seg[k]`` is the segment driven into base leg ``k``, from the vehicle's
    position for ``k = 0``.  Entry ``k`` of the other lists describes the
    state before base leg ``k``, entry ``n`` the state after the last: the
    distinct requests aboard, the passengers aboard, and prefix sums of the
    segments, of those driven with two or more distinct requests aboard
    (shared) and of those driven with one or more (shared once a new
    request rides too).  Each sum adds the segments left to right from 0.0,
    so ``length[n]`` and ``shared[n]`` are the route's length and shared
    distance, the totals every other walk of the route must reproduce.
    """

    seg: list[float]
    length: list[float]
    shared: list[float]
    ridden: list[float]
    aboard: list[int]
    load: list[int]


def route_prefix(sav: Sav, table) -> RoutePrefix:
    """The prefix pass over the vehicle's route (see ``RoutePrefix``)."""
    edge_id, offset = sav.position
    seg: list[float] = []
    length = [0.0]
    shared = [0.0]
    ridden = [0.0]
    aboard: list[int] = []
    load = [sav.onboard_total]
    onboard = set(sav.onboard)
    prev: int | None = None
    for leg in sav.route:
        s = (
            table.distance_from_position(edge_id, offset, leg.stop)
            if prev is None
            else table.distance(prev, leg.stop)
        )
        count = len(onboard)
        seg.append(s)
        aboard.append(count)
        length.append(length[-1] + s)
        shared.append(shared[-1] + s if count >= 2 else shared[-1])
        ridden.append(ridden[-1] + s if count >= 1 else ridden[-1])
        if leg.action == PICKUP:
            onboard.add(leg.request)
            load.append(load[-1] + leg.party_size)
        else:
            onboard.discard(leg.request)
            load.append(load[-1] - leg.party_size)
        prev = leg.stop
    aboard.append(len(onboard))
    return RoutePrefix(seg, length, shared, ridden, aboard, load)


def resume_walk(
    prefix: RoutePrefix, i: int, m: int,
    into_pickup: float, from_pickup: float, into_dropoff: float, from_dropoff: float,
) -> tuple[float, float]:
    """Length and shared distance of the route with a new request's pickup
    before base leg ``i`` and its dropoff before base leg ``m >= i``, resumed
    from the prefix.

    The four distances are the segments the pair adds: into the pickup, from
    it to base leg ``i`` (read only when ``m > i``), into the dropoff (from
    the pickup when ``m == i``), and from it to base leg ``m`` (read only
    when ``m < n``).  The result equals ``route_prefix``'s last ``length``
    and ``shared`` on the materialised route bit for bit: over base legs
    ``0 .. i - 1`` that route is the base route, so its running totals
    after them are ``length[i]`` and ``shared[i]``, the same additions of
    the same table values in the same order.  From there this walk adds, in
    route order, the same segments that pass looks up, each under the same
    test on the requests aboard (the new request, not yet aboard, adds one
    to ``aboard[k]`` between its pickup and dropoff), so every addition is
    the same floating-point operation on the same operands.
    """
    seg, length, shared, _, aboard, _ = prefix
    n = len(seg)
    total = length[i] + into_pickup
    ride = shared[i] + into_pickup if aboard[i] >= 2 else shared[i]
    for k in range(i, m):
        s = from_pickup if k == i else seg[k]
        total += s
        if aboard[k] >= 1:
            ride += s
    total += into_dropoff
    if aboard[m] >= 1:
        ride += into_dropoff
    if m < n:
        total += from_dropoff
        if aboard[m] >= 2:
            ride += from_dropoff
        for k in range(m + 1, n):
            s = seg[k]
            total += s
            if aboard[k] >= 2:
                ride += s
    return total, ride


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

    ``route_prefix`` makes one left-to-right pass over the route of ``L``
    legs.  A pair with the pickup before base leg ``i`` and the dropoff
    before base leg ``m >= i`` then scores in O(1): a term for ``i`` plus a
    term for ``m``, each a few prefix differences and the distances to and
    from the candidate's stops, looked up once per index.  Capacity is a
    running check on the loads, and the dropoff scan for ``i`` stops at the
    first base pickup the candidate would overfill.  A route that is over
    capacity without the candidate has no feasible pair.

    The scores only filter; the exact totals decide.  A score adds the same
    segment distances as the exact left-to-right walk in another order, so
    the two differ by rounding alone.  For a pair within budget every term
    is at most the budget (the factor is at least 1, so the base length is
    too).  A prefix difference carries only the roundings inside its range,
    so a score and the walk round fewer than ``3 (L + 4)`` times between
    them, each time a value of at most three budgets: they differ by less
    than ``9 (L + 4) 2**-53 budget``, and ``tol = 1e-9 (budget + 1) (L + 4)``
    is over 10**5 times that.  A pair is skipped when its length score is
    over ``budget + tol`` or, once a best pair exists, its shared score is
    at most ``best shared - tol``: neither could pass the exact tests.
    Every other pair is walked by ``resume_walk`` from its prefix, which
    equals ``route_prefix``'s totals on the materialised route bit for bit,
    and the exact ``length > budget`` and ``shared > best shared`` tests
    decide it, so the result is the pair an exhaustive walk returns.  Only
    the winning pair's route is built.

    Before any pair is scored, a lower bound can reject the offer:
    ``reach``, the distance from the vehicle's position to the candidate's
    origin, plus ``direct``, from the origin to its destination.  Every
    pair's route drives from the position to the pickup and, later, from the
    pickup to the dropoff, and a table distance is the shortest drive
    between its two points, so in exact arithmetic every pair's length is
    at least ``reach + direct``.  In floating point a table value is a sum
    of at most ``V + 2`` rounded non-negative terms along one drive (``V``
    vertices) and at most the rounded sum along any other, and a route's
    length adds ``L + 2`` of them, so every pair's exact length is at least
    ``(reach + direct) (1 - (L + 2V + 8) 2**-53)``.  For ``V`` under 10**7
    that shortfall is below ``tol``; on the 1,221-vertex 400 m city it is
    under 3e-13 of the bound, against at least 4e-9.  So when ``reach +
    direct > budget + tol`` no pair is within budget and the result is
    None.  ``reach`` is also the pickup segment for ``i == 0``.

    The prefix scores count the candidate as one more distinct request
    aboard, so its id must be new to the vehicle; a ConsistencyError says
    otherwise.
    """
    base = sav.route
    n = len(base)
    cid, origin, dest, party = candidate.id, candidate.origin, candidate.destination, candidate.party_size
    if cid in sav.onboard:
        raise ConsistencyError(f"sav {sav.id}: request {cid} is already aboard")
    if any(leg.request == cid for leg in base):
        raise ConsistencyError(f"sav {sav.id}: request {cid} is already routed")
    prefix = route_prefix(sav, table)
    _, length, shared, ridden, aboard, load = prefix
    capacity = sav.capacity
    if max(load) > capacity:
        return None
    edge_id, offset = sav.position
    budget = policy.detour_budget_factor * length[n]
    tol = 1e-9 * (budget + 1.0) * (n + 4)
    reach = table.distance_from_position(edge_id, offset, origin)
    direct = table.distance(origin, dest)
    if reach + direct > budget + tol:
        return None

    # dropoff before base leg m: from the dropoff on, and (m > i) the
    # candidate's ride from base leg m - 1 to its destination
    drop_out = [table.distance(dest, leg.stop) for leg in base]
    drop_in = [0.0] + [table.distance(leg.stop, dest) for leg in base]
    tail_len = [0.0] * (n + 1)
    tail_shared = [0.0] * (n + 1)
    for m in range(n):
        out = drop_out[m]
        tail_len[m] = out + (length[n] - length[m + 1])
        tail_shared[m] = (out if aboard[m] >= 2 else 0.0) + (shared[n] - shared[m + 1])
    col_len = [0.0] * (n + 1)
    col_shared = [0.0] * (n + 1)
    for m in range(1, n + 1):
        into = drop_in[m]
        col_len[m] = length[m] + into + tail_len[m]
        col_shared[m] = ridden[m] + (into if aboard[m] >= 1 else 0.0) + tail_shared[m]

    best: tuple[int, int] | None = None
    best_len = best_shared = 0.0
    for i in range(n + 1):
        if load[i] + party > capacity:
            continue
        into = reach if i == 0 else table.distance(base[i - 1].stop, origin)
        head_len = length[i] + into
        head_shared = shared[i] + (into if aboard[i] >= 2 else 0.0)
        out = 0.0
        if i < n:
            out = table.distance(origin, base[i].stop)
            row_len = head_len + out - length[i + 1]
            row_shared = head_shared + (out if aboard[i] >= 1 else 0.0) - ridden[i + 1]
        for m in range(i, n + 1):
            if m == i:
                approx_len = head_len + direct + tail_len[i]
                approx_shared = head_shared + (direct if aboard[i] >= 1 else 0.0) + tail_shared[i]
            elif base[m - 1].action == PICKUP and load[m] + party > capacity:
                break   # a later dropoff keeps the party aboard over more legs
            else:
                approx_len = row_len + col_len[m]
                approx_shared = row_shared + col_shared[m]
            if approx_len > budget + tol:
                continue
            if best is not None and approx_shared <= best_shared - tol:
                continue
            exact_len, exact_shared = resume_walk(
                prefix, i, m, into, out, direct if m == i else drop_in[m],
                drop_out[m] if m < n else 0.0,
            )
            if exact_len > budget:
                continue
            if best is None or exact_shared > best_shared:
                best, best_len, best_shared = (i, m), exact_len, exact_shared
    if best is None:
        return None
    i, m = best
    pickup = RouteLeg(origin, PICKUP, cid, party)
    dropoff = RouteLeg(dest, DROPOFF, cid, party)
    route = (*base[:i], pickup, *base[i:m], dropoff, *base[m:])
    return Insertion(route, best_shared, best_len, i)


def on_arrival(sav: Sav, leg: RouteLeg, by_state: dict[str, dict[int, TripRequest]]) -> TripRequest:
    """Board or alight one leg's party at the stop the vehicle reached; return its request.

    A pickup's request must be in the ``ASSIGNED`` map and not aboard, a
    dropoff's in the ``ONBOARD`` map and aboard this vehicle; ``advance``
    then moves it on.
    """
    rid = leg.request
    if leg.action == PICKUP:
        if rid not in by_state[ASSIGNED] or rid in sav.onboard:
            raise ConsistencyError(f"sav {sav.id}: pickup for request {rid}, which is not assigned or is aboard")
        sav.onboard[rid] = leg.party_size
        sav.assert_capacity()
        return advance(by_state, rid, ONBOARD)
    if rid not in by_state[ONBOARD] or rid not in sav.onboard:
        raise ConsistencyError(f"sav {sav.id}: dropoff for request {rid}, which is not aboard this vehicle")
    del sav.onboard[rid]
    return advance(by_state, rid, COMPLETED)


def request_legs(request: TripRequest) -> list[RouteLeg]:
    """Fresh pickup-then-dropoff route for a newly assigned request."""
    return [
        RouteLeg(request.origin, PICKUP, request.id, request.party_size),
        RouteLeg(request.destination, DROPOFF, request.id, request.party_size),
    ]
