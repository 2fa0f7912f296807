"""Discrete-event simulation loop tying demand, traffic, and dispatch together.

Events are processed in (time, scheduling sequence) order, which gives a total
order with no simultaneity ambiguity.  Both clocks, the background one and a
replication's fleet one, follow one cut-off rule: they stop at the first
event at or after the horizon, which is never processed.  One replication is
strictly sequential and depends only on (scenario, index), so ``_run_cells``,
behind ``run_scenario`` and ``run_sweep``, fans them out one replication
index per task.  Its cells are variants of one base scenario that differ
only in fleet size and profile; they share the base's stops, flow routes and
stop table, built once per run and never changed after, and each index's
draw (request stream and background field).

Model notes:
  * ``traffic.BackgroundTraffic`` owns the background vehicles and the edge
    occupancy they make, an edge's count being its timeline's last value;
    the engine keeps only their clock.  Neither demand nor background
    traffic depends on the fleet, so ``draw_index`` makes each index's draw
    once, from the base scenario, before any fleet event, and every cell
    reads it.  Fleet vehicles are few enough at this scale that their
    density contribution is ignored.
    A fleet vehicle drives each edge of a leg at ``traffic.attainable_speed``,
    sampled once, at leg start, from the occupancy at that instant
    (``BackgroundTraffic.occupancy_at``: a background change at the same
    instant counts).
  * ``traffic`` owns the speed rule: ``edge_speed`` is the one speed-density
    formula, and ``attainable_speed`` and ``drive`` the fleet's speed and an
    edge's time and delay.  A run's first ``_Runtime`` owns the drive
    tables, one per profile, shared by its cells like the stop table: each
    maps (edge id, occupancy) to what those two functions return for the
    whole edge, filled by calling them the first time ``_build_plan`` needs it.
    A partial first or last piece calls them directly and never enters a
    table.
  * A leg's driven pieces, including the direct same-edge hop, come from
    the distance table's ``position_path``; the traversal rule lives in
    netgraph.  ``_LegPlan.progress`` is the only sum over a leg's pieces, and
    ``_end_leg`` accounts every leg by it, arrived or cut short by a reroute
    or the horizon: a cut-short leg counts pro rata.
  * The pickups and dropoffs a fleet vehicle handles at a stop each take
    one dwell period, in route order after it arrives, and a rider's wait
    ends with the party's own slot: if its pickup is the k-th, the wait runs
    to the arrival time plus k dwell periods.  The log's ``pickup`` and
    ``dropoff`` rows carry the arrival time.
  * A fleet vehicle, ``dispatch.Sav``, carries its leg plan and tallies.
    An arrival event carries the plan it was scheduled for; once a reroute
    has replaced ``Sav.plan``, the arrival is stale and is ignored.
  * Dispatch rests on one invariant, checked by ``_check_counts``: while a
    vehicle is idle, no request is unassigned.  An arriving request goes to
    the first idle vehicle in id order, or is offered for sharing when none
    is; only a vehicle turning idle while a request is unassigned applies
    ``select_next_request``, to the unassigned requests alone.
  * Invariants are checked where they can break, and violations raise
    ConsistencyError.  Capacity is asserted in ``dispatch.on_arrival``, the
    one place a vehicle's load grows.  A replication's requests live only in
    its per-state ``{request id: request}`` maps, keyed by
    ``dispatch.REQUEST_STATES``, and the map that holds a request is its
    state: ``dispatch.advance`` moves each from map to map, and
    ``on_arrival`` finds it in the map of the state it must be in.  After
    every fleet event, and at the end of the replication, ``_check_counts``
    compares the maps' sizes with ``metrics.requests_seen``, the metrics and
    the vehicles' onboard sets, in O(fleet); there is no walk over every
    request.
  * The record reads each vehicle's delay and stops from the vehicles, the
    background ones in exit order and then the fleet in id order, and the
    background distance from the field; nothing copies them first.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import NamedTuple

from . import traffic as traffic_mod
from .demand import DemandProfile, TripRequest, generate_requests
from .dispatch import (
    ASSIGNED,
    COMPLETED,
    DispatchPolicy,
    DWELLING,
    EN_ROUTE,
    IDLE,
    ONBOARD,
    PICKUP,
    REQUEST_STATES,
    RouteLeg,
    Sav,
    UNASSIGNED,
    advance,
    on_arrival,
    request_legs,
    select_next_request,
    try_insert_shared,
)
from .errors import ConfigurationError, ConsistencyError, SimulationError, json_value, read_section
from .errors import record_dict, record_kinds
from .metrics import LogEntry, MetricsRecord, MetricsState, aggregate, finalize
from .netgraph import (
    DirectedEdge,
    RoadGraph,
    build_stop_distance_table,
    load_network,
    read_json,
    shortest_path,
    validate_graph,
)
from .traffic import (
    BackgroundFlow,
    BehaviorProfile,
    attainable_speed,
    count_stop_event,
    drive,
    get_profile,
)

REQUEST_ARRIVAL = "request_arrival"
SAV_ARRIVAL = "sav_arrival_at_stop"
DWELL_END = "dwell_end"
BACKGROUND_EDGE_EXIT = "background_edge_exit"   # also a background vehicle's injection

# Largest estimated event count a scenario may need; the default scenario's
# 20 replications need about 112k.  Above it a run would take hours or
# exhaust memory, so the scenario is rejected instead.
MAX_EVENTS = 10_000_000


@dataclass
class Scenario:
    """Complete description of one simulation configuration."""

    graph: RoadGraph
    name: str = "scenario"
    demand: DemandProfile = field(default_factory=DemandProfile)
    background_flows: list[BackgroundFlow] = field(default_factory=list)
    fleet_size: int = 8
    profile: str = "normal"
    policy: DispatchPolicy = field(default_factory=DispatchPolicy)
    horizon: float = 14400.0
    replications: int = 20
    base_seed: int = 0
    behavior_profiles: dict[str, BehaviorProfile] | None = None
    network_path: str | None = None

    def __post_init__(self) -> None:
        if self.fleet_size < 0:
            raise ConfigurationError("fleet_size must be >= 0")
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ConfigurationError(f"horizon must be a finite number > 0, got {self.horizon!r}")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        largest = max(size for size, w in self.demand.party_size_weights.items() if w > 0)
        if self.policy.capacity < largest:
            raise ConfigurationError(
                f"policy.capacity {self.policy.capacity} is below the largest party size {largest}"
            )


# (edge id, occupancy) -> (speed, seconds, delay) of driving the whole edge
DriveTable = dict[tuple[int, int], tuple[float, float, float]]


class _Runtime:
    """Per-scenario precomputation shared by the replications of a run.

    Built ``like`` a runtime whose scenario differs at most in ``fleet_size``
    and ``profile``, it shares that one's stops, flow routes, stop table and
    drive tables (one per profile), and makes only ``validate_graph`` and the
    checks those two fields can fail.  A drive table depends on neither the
    time nor the draw, so it serves every index.  The event estimate spans
    ``scenario.horizon``, the window of demand, traffic and the fleet clock.
    """

    def __init__(self, scenario: Scenario, like: _Runtime | None = None) -> None:
        graph = scenario.graph
        report = validate_graph(graph)
        if not report.ok:
            raise ConfigurationError(f"network failed validation:\n{report}")
        self.stops = like.stops if like else list(graph.stops())
        self.profile = get_profile(scenario.profile,
                                   scenario.behavior_profiles or traffic_mod.DEFAULT_PROFILES)
        if scenario.fleet_size > 0 and not self.stops:
            raise ConfigurationError("a nonzero fleet needs stops to park at")
        if like:
            self.flow_routes, self.table, self.drive_tables = like.flow_routes, like.table, like.drive_tables
        else:
            if scenario.demand.outbound_rate > 0 or scenario.demand.inbound_rate > 0:
                missing = {"peripheral_housing", "central_opportunity"} - {s.zone for s in self.stops}
                if missing:
                    raise ConfigurationError(f"demand requires stops in zones: {sorted(missing)}")
            self.flow_routes: list[tuple[DirectedEdge, ...]] = []
            for flow in scenario.background_flows:
                try:
                    edges, _ = shortest_path(graph, flow.origin_vertex, flow.destination_vertex)
                except SimulationError as exc:
                    raise ConfigurationError(f"background flow {flow}: {exc}") from exc
                self.flow_routes.append(tuple(graph.edge(eid) for eid in edges))
        # Each replication takes one horizon cut, one vehicle per fleet slot,
        # one arrival per expected request, and per expected background vehicle
        # one injection plus one exit per route edge.  The integer fields are
        # counted exactly, so no value is too large to compare.
        demand = scenario.demand
        requests = (demand.outbound_rate + demand.inbound_rate) / 3600.0 * scenario.horizon
        background = sum(flow.rate / 3600.0 * scenario.horizon * (len(route) + 1)
                         for flow, route in zip(scenario.background_flows, self.flow_routes))
        counted = scenario.replications * (1 + scenario.fleet_size)
        if counted > MAX_EVENTS or scenario.replications * (requests + background) > MAX_EVENTS - counted:
            raise ConfigurationError(
                f"scenario is estimated to need more than {MAX_EVENTS} events: replications "
                f"{scenario.replications} x (1 + fleet_size {scenario.fleet_size} + {requests:.3g} demand"
                f" requests + {background:.3g} background_flows events over horizon {scenario.horizon:g})"
            )
        if not like:   # built last, so an estimate over the limit never waits for it
            self.table = build_stop_distance_table(graph, self.stops) if len(self.stops) >= 2 else None
            self.drive_tables: dict[BehaviorProfile, DriveTable] = {}
        self.drives = self.drive_tables.setdefault(self.profile, {})


class Draw(NamedTuple):
    """A replication index's draw, which every sweep cell at the index reads."""

    requests: list[TripRequest]
    traffic: traffic_mod.BackgroundTraffic


def draw_index(scenario: Scenario, runtime: _Runtime, index: int) -> Draw:
    """Draw replication ``index``'s requests and run its background clock to the horizon.

    Both are seeded from ``base_seed + index``.  The injections, then each
    edge exit, are processed in (time, scheduling sequence) order up to the
    first event at or after the horizon, the test that stops a replication's
    fleet events.  The field's timelines then hold every occupancy change
    before the horizon, and its vehicles their tallies.
    """
    seed = scenario.base_seed + index
    requests = generate_requests(scenario.demand, runtime.stops, seed, scenario.horizon)
    traffic = traffic_mod.BackgroundTraffic(scenario.background_flows, runtime.flow_routes, scenario.horizon, seed)
    # events carry their kind, like a replication's, so that wrappers of
    # ``heappush`` (the benchmark's tracer) count them by kind
    heap: list[tuple[float, int, str, traffic_mod.BackgroundVehicle]] = []
    for seq, (t, vehicle) in enumerate(traffic.injections):
        heappush(heap, (t, seq, BACKGROUND_EDGE_EXIT, vehicle))
    seq = len(heap)
    while heap:
        time, _, _, vehicle = heappop(heap)
        if time >= scenario.horizon:
            break
        exit_time = traffic.advance(vehicle, time)
        if exit_time is not None:
            heappush(heap, (exit_time, seq, BACKGROUND_EDGE_EXIT, vehicle))
            seq += 1
    traffic.check()
    return Draw(requests, traffic)


@dataclass
class _LegPlan:
    """A vehicle's active leg; also its own arrival event's payload.

    The leg is stored flat: ``pieces`` are ``position_path``'s driven pieces
    ``(edge id, start offset, end offset)``, and ``exits``, ``delays`` and
    ``stopped`` hold, per piece, the time it is left, its delay against free
    flow and whether entering it was a stop event.  Each piece is entered at
    the previous piece's exit, the first at ``start``.  ``arrive`` is the
    last piece's exit; ``rest_stop`` is whether coming to rest at the stop is
    a stop event.
    """

    sav: int
    start: float
    arrive: float
    rest_stop: bool
    pieces: tuple[tuple[int, float, float], ...]
    exits: list[float]
    delays: list[float]
    stopped: list[bool]

    def progress(self, now: float) -> tuple[tuple[int, float], float, float, int]:
        """Position, and distance, delay and stop events driven, at ``now`` >= the leg's start.

        Pieces already left count in full, in order.  The piece being driven
        counts its entry stop event and its distance and delay pro rata,
        capped at its own.  At or after ``arrive`` every piece has been left,
        and coming to rest at the stop counts too.
        """
        distance = delay = 0.0
        stops = 0
        exits, delays, stopped = self.exits, self.delays, self.stopped
        k = 0
        for edge, a, b in self.pieces:
            if now < exits[k]:
                break
            distance += b - a
            delay += delays[k]
            stops += stopped[k]
            k += 1
        else:
            return (edge, b), distance, delay, stops + self.rest_stop
        enter = exits[k - 1] if k else self.start
        leave, piece_delay = exits[k], delays[k]
        length = b - a
        frac = (now - enter) / (leave - enter)
        # not length * frac: that rounds differently and would move recorded
        # distances; rounding can pass the piece's own values, so clamp them
        distance += min(length * (now - enter) / (leave - enter), length)
        delay += min(piece_delay * (now - enter) / (leave - enter), piece_delay)
        position = (edge, min(a + frac * length, b))
        return position, distance, delay, stops + stopped[k]


@dataclass
class ReplicationResult:
    record: MetricsRecord
    log: list[LogEntry]
    occupancy: traffic_mod.Timelines   # the field's, if collected


class _Replication:
    """One replication's fleet, run against its index's draw."""

    def __init__(self, runtime: _Runtime, scenario: Scenario, index: int, draw: Draw,
                 collect_log: bool = False, collect_occupancy: bool = False) -> None:
        self.scenario = scenario
        self.graph = scenario.graph
        self.table = runtime.table
        self.policy = scenario.policy
        self.profile = runtime.profile
        self.drives = runtime.drives
        self.now = 0.0
        self._heap: list[tuple[float, int, str, object]] = []
        self._seq = 0
        # {request id: request} per state, kept by ``advance``: the only registry of requests
        self.by_state: dict[str, dict[int, TripRequest]] = {state: {} for state in REQUEST_STATES}
        self.collect_log = collect_log
        self.collect_occupancy = collect_occupancy
        self.log: list[LogEntry] = []
        self.metrics = MetricsState(
            scenario=scenario.name,
            fleet_size=scenario.fleet_size,
            profile=scenario.profile,
            replication=index,
        )
        self.requests, self.traffic = draw

        # fleet parked round-robin over stops, in stop-id order
        self.savs: list[Sav] = []
        for k in range(scenario.fleet_size):
            stop = runtime.stops[k % len(runtime.stops)]
            self.savs.append(
                Sav(
                    id=k,
                    capacity=self.policy.capacity,
                    profile=scenario.profile,
                    position=(stop.edge, stop.slack),
                )
            )

    # event plumbing -----------------------------------------------------

    def _schedule(self, time: float, kind: str, payload: object) -> None:
        heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def _log(self, kind: str, sav: int, request: int | None, stop: int | None, distance: float = 0.0) -> None:
        if self.collect_log:
            self.log.append(LogEntry(self.now, sav, kind, request, stop, distance))

    # fleet movement ------------------------------------------------------

    def _build_plan(self, sav: Sav, target_stop: int, now: float) -> _LegPlan:
        """The leg from the vehicle's position to ``target_stop``, driven from ``now``.

        A piece that starts at offset 0 before the last is a whole edge, as
        every piece but the last ends at its edge's end: it reads the drive
        table, which is filled on a miss.  Any other piece calls
        ``attainable_speed`` and ``drive`` directly.
        """
        edge_id, offset = sav.position
        pieces, _ = self.table.position_path(edge_id, offset, target_stop)
        occupancy_at = self.traffic.occupancy_at
        drives = self.drives
        exits: list[float] = []
        delays: list[float] = []
        stopped: list[bool] = []
        t = now
        speed = 0.0
        last = len(pieces) - 1
        for k, (eid, a, b) in enumerate(pieces):
            length = b - a
            if length > 0:
                occupancy = occupancy_at(eid, now)
                whole = a == 0.0 and k < last
                entry = drives.get((eid, occupancy)) if whole else None
                if entry is None:
                    edge = self.graph.edge(eid)
                    v = attainable_speed(edge, occupancy, self.profile)
                    entry = (v, *drive(edge, length, v))
                    if whole:
                        drives[eid, occupancy] = entry
                v, dt, edge_delay = entry
                t += dt
                delays.append(edge_delay)
                stopped.append(count_stop_event(speed, v))
                speed = v
            else:
                delays.append(0.0)
                stopped.append(False)
            exits.append(t)
        return _LegPlan(sav.id, now, t, count_stop_event(speed, 0.0), pieces, exits, delays, stopped)

    def _start_leg(self, sav: Sav, now: float) -> None:
        leg = sav.route[0]
        sav.plan = plan = self._build_plan(sav, leg.stop, now)
        sav.status = EN_ROUTE
        if self.collect_log:
            self._log("depart", sav.id, leg.request, leg.stop, plan.progress(plan.arrive)[1])
        self._schedule(plan.arrive, SAV_ARRIVAL, plan)

    def _end_leg(self, sav: Sav, now: float, kind: str,
                 request: int | None = None, stop: int | None = None) -> None:
        """Account the active leg as ``progress`` has it at ``now``, and clear it.

        ``kind`` is ``arrive``; or, for a leg cut short, ``reroute``, after
        which the next leg starts, or ``horizon``, after which the run ends.
        """
        sav.position, distance, delay, stops = sav.plan.progress(now)
        sav.plan = None
        self.metrics.sav_distance += distance
        if len(sav.onboard) >= 2:
            self.metrics.shared_miles += distance
        sav.delay += delay
        sav.stops += stops
        self._log(kind, sav.id, request, stop, distance)

    # dispatch ------------------------------------------------------------

    def _assign(self, sav: Sav, request: TripRequest, route: list[RouteLeg]) -> None:
        advance(self.by_state, request.id, ASSIGNED)
        sav.route = route
        self._log("assign", sav.id, request.id, request.origin)

    def _try_share(self, request: TripRequest, now: float) -> None:
        """Offer one request to every vehicle with a route once; apply the best insertion.

        Called when the request arrives and no vehicle is idle; a request that
        fails here waits for a vehicle to turn idle.  The first vehicle, in id
        order, with the strictly largest shared distance wins.
        """
        best = None
        best_sav = None
        for sav in self.savs:
            if not sav.route:   # dwelling with nothing left
                continue
            if sav.status == EN_ROUTE:
                sav.position = sav.plan.progress(now)[0]
            res = try_insert_shared(self.policy, sav, request, self.table)
            if res is not None and (best is None or res.shared_miles > best.shared_miles):
                best, best_sav = res, sav
        if best is None:
            return
        self._assign(best_sav, request, list(best.route))
        if best_sav.status == EN_ROUTE and best.pickup_index == 0:
            self._end_leg(best_sav, now, "reroute")
            self._start_leg(best_sav, now)

    # event handlers -------------------------------------------------------

    def _on_request_arrival(self, request: TripRequest) -> None:
        """The first idle vehicle takes the request, the one unassigned; or it is offered for sharing."""
        self.by_state[UNASSIGNED][request.id] = request
        self.metrics.requests_seen += 1
        for sav in self.savs:
            if sav.status == IDLE:
                self._assign(sav, request, request_legs(request))
                self._start_leg(sav, self.now)
                return
        self._try_share(request, self.now)

    def _on_sav_arrival(self, plan: _LegPlan) -> None:
        sav = self.savs[plan.sav]
        if sav.plan is not plan:
            return
        here = sav.route[0].stop
        self._end_leg(sav, self.now, "arrive", sav.route[0].request, here)
        sav.status = DWELLING
        dwell_slots = 0
        while sav.route and sav.route[0].stop == here:
            leg = sav.route.pop(0)
            dwell_slots += 1
            event_time = self.now + dwell_slots * self.profile.dwell_time
            request = on_arrival(sav, leg, self.by_state)
            if leg.action == PICKUP:
                self.metrics.record_wait(event_time - request.request_time)
            else:
                self.metrics.record_completion(request.party_size)
            self._log(leg.action, sav.id, leg.request, here)
        self._schedule(self.now + dwell_slots * self.profile.dwell_time, DWELL_END, sav.id)

    def _on_dwell_end(self, sav_id: int) -> None:
        """The vehicle drives its next leg, or turns idle and, if a request is unassigned, selects one."""
        sav = self.savs[sav_id]
        if not sav.route:
            sav.status = IDLE
            waiting = self.by_state[UNASSIGNED]
            if not waiting:
                return
            rid = select_next_request(
                self.policy, waiting.values(), sav, self.now,
                lambda request: self.table.distance_from_position(*sav.position, request.origin),
            )
            request = waiting[rid]
            self._assign(sav, request, request_legs(request))
        self._start_leg(sav, self.now)

    # invariants -----------------------------------------------------------

    def _check_counts(self) -> None:
        """The requests per state, the sizes of the maps ``advance`` keeps, add
        up to the requests seen; ONBOARD ones ride a vehicle, COMPLETED ones
        are the trips completed, both picked up, with one wait each; none is
        UNASSIGNED while a vehicle is idle.  O(fleet): run after every fleet event."""
        by_state = self.by_state
        waiting = len(by_state[UNASSIGNED])
        if waiting and any(sav.status == IDLE for sav in self.savs):
            raise ConsistencyError(f"a vehicle is idle at t={self.now} with {waiting} requests unassigned")
        aboard = sum(len(sav.onboard) for sav in self.savs)
        onboard, completed = len(by_state[ONBOARD]), len(by_state[COMPLETED])
        m = self.metrics
        if (sum(map(len, by_state.values())) != m.requests_seen or onboard != aboard
                or completed != m.trips_completed or onboard + completed != len(m.wait_seconds)):
            sizes = {state: len(reqs) for state, reqs in by_state.items()}
            raise ConsistencyError(
                f"passenger conservation broken at t={self.now}: {sizes} vs "
                f"{m.requests_seen} seen, {aboard} aboard, {m.trips_completed} completed, "
                f"{len(m.wait_seconds)} waits"
            )

    # main loop --------------------------------------------------------------

    def run(self) -> ReplicationResult:
        for req in self.requests:
            self._schedule(req.request_time, REQUEST_ARRIVAL, req)
        handlers = {
            REQUEST_ARRIVAL: self._on_request_arrival,
            SAV_ARRIVAL: self._on_sav_arrival,
            DWELL_END: self._on_dwell_end,
        }
        while self._heap:
            time, _, kind, payload = heappop(self._heap)
            if time >= self.scenario.horizon:
                break
            if time < self.now - 1e-9:
                raise ConsistencyError(f"event time moved backwards: {time} < {self.now}")
            self.now = time
            handlers[kind](payload)
            self._check_counts()
        self.now = self.scenario.horizon
        for sav in self.savs:
            if sav.status == EN_ROUTE:
                self._end_leg(sav, self.now, "horizon")
        self._check_counts()
        # background vehicles in exit order, then the fleet in id order: finalize sums in this order
        record = finalize(self.metrics, [*self.traffic.finished, *self.savs], self.traffic.distance)
        return ReplicationResult(record, self.log, self.traffic.timelines if self.collect_occupancy else {})


def simulate(
    scenario: Scenario,
    index: int,
    runtime: _Runtime | None = None,
    collect_log: bool = False,
    collect_occupancy: bool = False,
    draw: Draw | None = None,
) -> ReplicationResult:
    """Run one seeded replication; equal inputs give identical results.

    ``draw`` is the index's draw; when none is given it is drawn here.  The
    result holds the event log if ``collect_log`` and the field's per-edge
    occupancy timelines if ``collect_occupancy``.
    """
    if runtime is None:
        runtime = _Runtime(scenario)
    if draw is None:
        draw = draw_index(scenario, runtime, index)
    return _Replication(runtime, scenario, index, draw, collect_log, collect_occupancy).run()


@dataclass
class ScenarioResult:
    replications: list[ReplicationResult]
    aggregates: dict[str, tuple[float, float, float, float]]

    @property
    def records(self) -> list[MetricsRecord]:
        return [rep.record for rep in self.replications]


# (cells, runtimes, collect_log, collect_occupancy): set in each pool worker, or here during a
# serial run, so a process runs one serial run at a time
_served: tuple | None = None


def _serve(run: tuple | None) -> None:
    global _served
    _served = run


def _run_index(i: int) -> list[ReplicationResult]:
    """Run every cell of the served run at index ``i`` on one draw; one result per cell.

    The draw is made from the first cell, as it does not depend on what the
    cells vary, and freed on return: a process holds one field at a time.
    """
    cells, runtimes, collect_log, collect_occupancy = _served
    try:
        draw = draw_index(cells[0], runtimes[0], i)
        return [simulate(cell, i, runtime, collect_log, collect_occupancy, draw=draw)
                for cell, runtime in zip(cells, runtimes)]
    except Exception as exc:
        raise SimulationError(f"replication {i} failed: {exc}") from exc


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cells(
    base: Scenario, variants: list[tuple[int, str]], jobs: int,
    collect_log: bool = False, collect_occupancy: bool = False,
) -> list[ScenarioResult]:
    """Run every replication of every ``(fleet_size, profile)`` variant of ``base``.

    This is the one place replications fan out.  Each variant is one cell.
    Every cell's runtime is built here, before any worker exists, so a failed
    check stops the run once; the others are built like the first's (see
    ``_Runtime``).  Each task is one index over every cell (``_run_index``),
    on at most ``jobs``, ``usable_cpus()`` and the replications workers.  The
    pool's initializer serves them the run: forked, they inherit it and any
    wrapper around ``simulate``; otherwise it is pickled once per worker.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    cells = [replace(base, fleet_size=fleet, profile=profile) for fleet, profile in variants]
    first = _Runtime(cells[0])
    runtimes = [first] + [_Runtime(cell, first) for cell in cells[1:]]
    run = (cells, runtimes, collect_log, collect_occupancy)
    workers = min(jobs, usable_cpus(), base.replications)
    if workers > 1:
        from concurrent import futures  # loaded here so serial runs skip the pool machinery
        with futures.ProcessPoolExecutor(max_workers=workers, initializer=_serve, initargs=(run,)) as pool:
            rows = list(pool.map(_run_index, range(base.replications)))
    else:
        _serve(run)
        try:
            rows = [_run_index(i) for i in range(base.replications)]
        finally:
            _serve(None)
    return [ScenarioResult(list(reps), aggregate([rep.record for rep in reps])) for reps in zip(*rows)]


def run_scenario(scenario: Scenario, jobs: int = 1, collect_log: bool = False,
                 collect_occupancy: bool = False) -> ScenarioResult:
    """Run all replications, keeping logs and occupancy rows if asked, and aggregate."""
    return _run_cells(scenario, [(scenario.fleet_size, scenario.profile)], jobs,
                      collect_log, collect_occupancy)[0]


@dataclass
class SweepResult:
    cells: dict[tuple[int, str], ScenarioResult]

    def all_records(self) -> list[MetricsRecord]:
        out = []
        for key in sorted(self.cells):
            out.extend(self.cells[key].records)
        return out


def run_sweep(base: Scenario, fleet_sizes: list[int], profiles: list[str], jobs: int = 1) -> SweepResult:
    """One aggregated result per (fleet size, profile) cell.

    Every cell reads each index's draw (request stream and background
    field), so comparisons isolate the swept variables.  A fleet size or
    profile listed twice is rejected.
    """
    if not fleet_sizes or not profiles:
        raise ConfigurationError("sweep needs at least one fleet size and one profile")
    for name, values in (("fleet size", fleet_sizes), ("profile", profiles)):
        for k, value in enumerate(values):
            if value in values[:k]:
                raise ConfigurationError(f"sweep {name} {value!r} is repeated")
    keys = [(fleet, profile) for fleet in fleet_sizes for profile in profiles]
    return SweepResult(dict(zip(keys, _run_cells(base, keys, jobs))))


# scenario files -------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    weights = scenario.demand.party_size_weights
    doc = {
        "name": scenario.name,
        "network": scenario.network_path or "network.json",
        # str keys: json.dumps(sort_keys=True) then orders them as text ("10" before "2"), as every file has
        "demand": {**record_dict(scenario.demand),
                   "party_size_weights": {str(k): weights[k] for k in sorted(weights)}},
        "background_flows": [record_dict(f) for f in scenario.background_flows],
        "fleet_size": scenario.fleet_size,
        "profile": scenario.profile,
        "policy": record_dict(scenario.policy),
        "horizon": scenario.horizon,
        "replications": scenario.replications,
        "base_seed": scenario.base_seed,
    }
    if scenario.behavior_profiles is not None:
        doc["behavior_profiles"] = {
            name: record_dict(p, skip=("name",)) for name, p in sorted(scenario.behavior_profiles.items())
        }
    return doc


def _party_weights(doc: object) -> dict[int, float]:
    """Party size -> weight; a key must be its size's decimal, so no two keys name one size."""
    for key in json_value(dict, doc):
        if str(int(key)) != key:
            raise ValueError(f"key {key!r} is not written as the decimal {int(key)}")
    return {int(k): json_value(float, v) for k, v in doc.items()}


_SCENARIO_FIELDS = {
    "name": str, "network": str, "demand": dict, "background_flows": list,
    "fleet_size": int, "profile": str, "policy": dict, "horizon": float,
    "replications": int, "base_seed": int, "behavior_profiles": dict,
}
_DEMAND_FIELDS = record_kinds(DemandProfile, party_size_weights=_party_weights)
_FLOW_FIELDS = record_kinds(BackgroundFlow)
_POLICY_FIELDS = record_kinds(DispatchPolicy)


def scenario_from_dict(doc: dict, graph: RoadGraph, network_path: str | None = None) -> Scenario:
    """Build a scenario from its document; absent optional fields take the dataclass defaults.

    The demand section and its two rates are required.  Unknown keys are
    rejected, a retired ``demand.horizon`` among them: demand is drawn over
    the scenario's ``horizon``.
    """
    fields = read_section("scenario", doc, _SCENARIO_FIELDS, required=("demand",))
    fields.pop("network", None)
    try:
        demand = read_section("demand", fields.pop("demand"), _DEMAND_FIELDS,
                              required=("outbound_rate", "inbound_rate"))
        fields["demand"] = DemandProfile(**demand)
        fields["policy"] = DispatchPolicy(
            **read_section("policy", fields.get("policy", {}), _POLICY_FIELDS)
        )
        fields["background_flows"] = [
            BackgroundFlow(**read_section(f"background_flows[{i}]", flow, _FLOW_FIELDS))
            for i, flow in enumerate(fields.get("background_flows", []))
        ]
        if "behavior_profiles" in fields:
            fields["behavior_profiles"] = traffic_mod.profiles_from_dict(fields["behavior_profiles"])
        return Scenario(graph=graph, network_path=network_path, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad scenario document: {exc}") from exc


def load_scenario(path: str, overrides: dict[str, object] | None = None) -> Scenario:
    """Read a scenario file, loading its network relative to the file.

    ``overrides`` maps dotted field paths, such as ``policy.capacity``, to
    values that replace the file's before it is parsed.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    for key, value in (overrides or {}).items():
        *parents, leaf = key.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigurationError(f"override {key!r}: no such field")
        node[leaf] = value
    # checked before it is opened, so a path of another JSON type is named, not opened
    network_rel = read_section("scenario", {"network": doc.get("network", "network.json")},
                               {"network": str})["network"]
    network_path = os.path.join(os.path.dirname(os.path.abspath(path)), network_rel)
    graph = load_network(network_path)
    return scenario_from_dict(doc, graph, network_path=network_rel)
