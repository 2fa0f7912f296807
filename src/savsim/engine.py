"""Discrete-event simulation loop tying demand, traffic, and dispatch together.

Events are processed in (time, scheduling sequence) order, which gives a total
order with no simultaneity ambiguity.  One replication is strictly sequential
and depends only on (scenario, index), so ``_run_cells``, behind
``run_scenario`` and ``run_sweep``, fans them out.  The cells of one task
share one stop table per graph, whose trees only grow, and each replication
index's background field, which they only read.

Model notes:
  * ``traffic.BackgroundTraffic`` owns the background vehicles and the edge
    occupancy they make; the engine keeps only their clock.  Background
    traffic does not depend on the fleet, so ``background_field`` runs that
    clock once per replication index, to the horizon, before any fleet event,
    and every cell sharing the index reads the result.  Fleet vehicles are
    few enough at this scale that their density contribution is ignored.
    A fleet vehicle drives each edge of a leg at ``traffic.attainable_speed``,
    sampled once, at leg start, from the occupancy at that instant
    (``BackgroundTraffic.occupancy_at``: a background change at the same
    instant counts).
  * A leg's driven pieces, including the direct same-edge hop, come from
    the distance table's ``position_path``; the traversal rule lives in
    netgraph.  ``_end_leg`` accounts every leg, arrived or cut short by a
    reroute or the horizon, by ``_LegPlan.progress``: a cut-short leg counts
    pro rata.
  * A fleet vehicle's boarding/alighting events each take one dwell period;
    a request's pickup/completion timestamps fall at the end of its own
    dwell slot.
  * Each arrival event carries the leg plan it was scheduled for; a plan
    that a reroute replaced is no longer the vehicle's plan, so its arrival
    is stale and is ignored.
  * Passenger conservation and vehicle capacity are asserted after every
    fleet event; violations raise ConsistencyError.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from heapq import heappop, heappush
from itertools import repeat

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
    PendingRequest,
    RouteLeg,
    Sav,
    UNASSIGNED,
    on_arrival,
    request_legs,
    select_next_request,
    try_insert_shared,
)
from .errors import ConfigurationError, ConsistencyError, SimulationError, number, read_section
from .metrics import LogEntry, MetricsRecord, MetricsState, aggregate, finalize
from .netgraph import (
    DirectedEdge,
    RoadGraph,
    StopDistanceTable,
    build_stop_distance_table,
    load_network,
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
HORIZON_END = "horizon_end"

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


def replication_seed(scenario: Scenario, index: int) -> int:
    return scenario.base_seed + index


def replication_requests(scenario: Scenario, index: int) -> list[TripRequest]:
    """The request stream a replication will see; shared across sweep cells."""
    return generate_requests(
        scenario.demand, list(scenario.graph.stops()), replication_seed(scenario, index)
    )


class _Runtime:
    """Per-scenario precomputation shared by the replications of a chunk.

    ``tables`` maps a graph to its stop table; runtimes built with one dict
    share one table per graph.
    """

    def __init__(self, scenario: Scenario,
                 tables: dict[RoadGraph, StopDistanceTable | None] | None = None) -> None:
        graph = scenario.graph
        report = validate_graph(graph)
        if not report.ok:
            raise ConfigurationError(f"network failed validation:\n{report}")
        self.graph = graph
        self.stops = list(graph.stops())
        self.profiles = scenario.behavior_profiles or traffic_mod.DEFAULT_PROFILES
        get_profile(scenario.profile, self.profiles)  # fail fast on unknown names
        if scenario.fleet_size > 0 and not self.stops:
            raise ConfigurationError("a nonzero fleet needs stops to park at")
        zones = {s.zone for s in self.stops}
        if scenario.demand.outbound_rate > 0 or scenario.demand.inbound_rate > 0:
            missing = {"peripheral_housing", "central_opportunity"} - zones
            if missing:
                raise ConfigurationError(f"demand requires stops in zones: {sorted(missing)}")
        self.flow_routes: list[tuple[DirectedEdge, ...]] = []
        for flow in scenario.background_flows:
            try:
                edges, _ = shortest_path(graph, flow.origin_vertex, flow.destination_vertex)
            except SimulationError as exc:
                raise ConfigurationError(f"background flow {flow}: {exc}") from exc
            self.flow_routes.append(tuple(graph.edge(eid) for eid in edges))
        # Each replication takes one horizon event, one vehicle per fleet slot,
        # one arrival per expected request, and per expected background vehicle
        # one injection plus one exit per route edge.  The integer fields are
        # counted exactly, so no value is too large to compare.
        demand = scenario.demand
        requests = (demand.outbound_rate + demand.inbound_rate) / 3600.0 * demand.horizon
        background = sum(flow.rate / 3600.0 * scenario.horizon * (len(route) + 1)
                         for flow, route in zip(scenario.background_flows, self.flow_routes))
        counted = scenario.replications * (1 + scenario.fleet_size)
        if counted > MAX_EVENTS or scenario.replications * (requests + background) > MAX_EVENTS - counted:
            raise ConfigurationError(
                f"scenario is estimated to need more than {MAX_EVENTS} events: replications "
                f"{scenario.replications} x (1 + fleet_size {scenario.fleet_size} + {requests:.3g} requests"
                f" over demand.horizon + {background:.3g} background_flows events over horizon)"
            )
        tables = {} if tables is None else tables
        if graph not in tables:
            tables[graph] = build_stop_distance_table(graph, self.stops) if len(self.stops) >= 2 else None
        self.table = tables[graph]


def background_field(scenario: Scenario, runtime: _Runtime, index: int,
                     sample: bool = False) -> traffic_mod.BackgroundTraffic:
    """Run the background clock of replication ``index`` to the horizon.

    The injections, then each edge exit, are processed in (time, scheduling
    sequence) order up to the first event at or after the horizon, the
    cut-off a replication's ``HORIZON_END`` makes for fleet events.  The
    field then holds every occupancy change before the horizon and the
    finished vehicles' tallies; occupancy samples are kept if ``sample``.
    """
    traffic = traffic_mod.BackgroundTraffic(
        scenario.background_flows, runtime.flow_routes, scenario.horizon,
        replication_seed(scenario, index), sample,
    )
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
    return traffic


@dataclass
class _Segment:
    """One driven piece of a leg, entered at ``enter`` and left at ``exit``, with
    its delay against free flow and whether entering it was a stop event."""

    edge: int
    start_offset: float
    end_offset: float
    enter: float
    exit: float
    delay: float
    stopped: bool


@dataclass
class _LegPlan:
    """A vehicle's active leg; also its own arrival event's payload.

    ``distance``, ``delay`` and ``stop_events`` are the totals on arrival,
    coming to rest at the stop included.
    """

    sav: int
    arrive: float
    distance: float
    delay: float
    stop_events: int
    segments: list[_Segment]

    def progress(self, now: float) -> tuple[tuple[int, float], float, float, int]:
        """Position, and distance, delay and stop events driven, at ``now`` >= the leg's start.

        Segments already left count in full.  The segment being driven counts
        its distance and delay pro rata and its entry stop event.  Coming to
        rest at the stop counts only on arrival.
        """
        if now >= self.arrive:
            last = self.segments[-1]
            return (last.edge, last.end_offset), self.distance, self.delay, self.stop_events
        distance = delay = 0.0
        stops = 0
        for seg in self.segments:   # breaks: now < arrive, the last segment's exit
            if now < seg.exit:
                break
            distance += seg.end_offset - seg.start_offset
            delay += seg.delay
            stops += seg.stopped
        length = seg.end_offset - seg.start_offset
        frac = (now - seg.enter) / (seg.exit - seg.enter)
        # not length * frac: that rounds differently and would move recorded distances
        distance += length * (now - seg.enter) / (seg.exit - seg.enter)
        delay += seg.delay * (now - seg.enter) / (seg.exit - seg.enter)
        return (seg.edge, seg.start_offset + frac * length), distance, delay, stops + seg.stopped


@dataclass
class ReplicationResult:
    record: MetricsRecord
    log: list[LogEntry]
    occupancy: list[tuple[float, int, int]]


class _Replication:
    """One replication's fleet, run against its index's background field."""

    def __init__(
        self,
        runtime: _Runtime,
        scenario: Scenario,
        index: int,
        traffic: traffic_mod.BackgroundTraffic,
        collect_log: bool = False,
    ) -> None:
        self.scenario = scenario
        self.graph = runtime.graph
        self.table = runtime.table
        self.policy = scenario.policy
        self.profile = get_profile(scenario.profile, runtime.profiles)
        self.now = 0.0
        self._heap: list[tuple[float, int, str, object]] = []
        self._seq = 0
        self.pending: dict[int, PendingRequest] = {}
        self.collect_log = collect_log
        self.log: list[LogEntry] = []
        self.metrics = MetricsState(
            scenario=scenario.name,
            fleet_size=scenario.fleet_size,
            profile=scenario.profile,
            replication=index,
        )
        self.requests = replication_requests(scenario, index)

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
        self.plans: dict[int, _LegPlan | None] = {s.id: None for s in self.savs}
        self.sav_delay: dict[int, float] = {s.id: 0.0 for s in self.savs}
        self.sav_stops: dict[int, int] = {s.id: 0 for s in self.savs}
        self.traffic = traffic

    # event plumbing -----------------------------------------------------

    def _schedule(self, time: float, kind: str, payload: object) -> None:
        heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def _log(self, kind: str, sav: int, request: int | None, stop: int | None, distance: float = 0.0) -> None:
        if self.collect_log:
            self.log.append(LogEntry(self.now, sav, kind, request, stop, distance))

    # fleet movement ------------------------------------------------------

    def _build_plan(self, sav: Sav, target_stop: int, now: float) -> _LegPlan:
        edge_id, offset = sav.position
        pieces, _ = self.table.position_path(edge_id, offset, target_stop)
        segments: list[_Segment] = []
        t = now
        delay = 0.0
        prev_speed = 0.0
        stop_events = 0
        distance = 0.0
        for eid, a, b in pieces:
            length = b - a
            dt = edge_delay = 0.0
            stopped = False
            if length > 0:
                edge = self.graph.edge(eid)
                v = attainable_speed(edge, self.traffic.occupancy_at(eid, now), self.profile)
                dt, edge_delay, stopped = drive(edge, length, v, prev_speed)
                prev_speed = v
            segments.append(_Segment(eid, a, b, t, t + dt, edge_delay, stopped))
            delay += edge_delay
            stop_events += stopped
            distance += length
            t += dt
        stop_events += count_stop_event(prev_speed, 0.0)
        return _LegPlan(sav.id, t, distance, delay, stop_events, segments)

    def _start_leg(self, sav: Sav, now: float) -> None:
        leg = sav.route[0]
        plan = self._build_plan(sav, leg.stop, now)
        self.plans[sav.id] = plan
        sav.status = EN_ROUTE
        self._log("depart", sav.id, leg.request, leg.stop, plan.distance)
        self._schedule(plan.arrive, SAV_ARRIVAL, plan)

    def _end_leg(self, sav: Sav, now: float, kind: str,
                 request: int | None = None, stop: int | None = None) -> None:
        """Account the active leg as ``progress`` has it at ``now``, and clear it.

        ``kind`` is ``arrive``, or ``reroute`` for a leg cut short; a reroute
        then starts the next leg, and at the horizon the run ends instead.
        """
        sav.position, distance, delay, stops = self.plans[sav.id].progress(now)
        self.plans[sav.id] = None
        self.metrics.sav_distance += distance
        if len(sav.onboard) >= 2:
            self.metrics.shared_miles += distance
        self.sav_delay[sav.id] += delay
        self.sav_stops[sav.id] += stops
        self._log(kind, sav.id, request, stop, distance)

    # dispatch ------------------------------------------------------------

    def _assign(self, sav: Sav, pr: PendingRequest, route: list[RouteLeg]) -> None:
        pr.advance(ASSIGNED)
        pr.assigned_sav = sav.id
        sav.route = route
        self._log("assign", sav.id, pr.request.id, pr.request.origin)

    def _assign_idle(self, now: float) -> None:
        """Let each idle vehicle, in id order, pick unassigned work.

        One pass is enough: no vehicle turns idle during it, and each idle
        vehicle either takes a request or finds none unassigned, which leaves
        none for the vehicles after it, so the function returns.
        """
        for sav in self.savs:
            if sav.status != IDLE:
                continue
            edge_id, offset = sav.position
            rid = select_next_request(
                self.policy, self.pending.values(), sav, now,
                lambda pr: self.table.distance_from_position(edge_id, offset, pr.request.origin),
            )
            if rid is None:
                return
            pr = self.pending[rid]
            self._assign(sav, pr, request_legs(pr.request))
            self._start_leg(sav, now)

    def _try_share(self, pr: PendingRequest, now: float) -> None:
        """Offer one request to every active route; apply the best insertion.

        Called once, when the request arrives; requests that fail here wait
        for an idle vehicle.
        """
        best = None
        best_sav = None
        for sav in self.savs:
            if sav.status == IDLE or not sav.route:
                continue
            if sav.status == EN_ROUTE:
                sav.position = self.plans[sav.id].progress(now)[0]
            res = try_insert_shared(self.policy, sav, pr.request, self.table)
            if res is not None and (best is None or res.shared_miles > best.shared_miles):
                best, best_sav = res, sav
        if best is None:
            return
        self._assign(best_sav, pr, list(best.route))
        if best_sav.status == EN_ROUTE and best.pickup_index == 0:
            self._end_leg(best_sav, now, "reroute")
            self._start_leg(best_sav, now)

    # event handlers -------------------------------------------------------

    def _on_request_arrival(self, request: TripRequest) -> None:
        pr = PendingRequest(request)
        self.pending[request.id] = pr
        self.metrics.requests_seen += 1
        self._assign_idle(self.now)
        if pr.state == UNASSIGNED:
            self._try_share(pr, self.now)

    def _on_sav_arrival(self, plan: _LegPlan) -> None:
        sav_id = plan.sav
        if self.plans[sav_id] is not plan:
            return
        sav = self.savs[sav_id]
        here = sav.route[0].stop
        self._end_leg(sav, self.now, "arrive", sav.route[0].request, here)
        sav.status = DWELLING
        dwell_slots = 0
        while sav.route and sav.route[0].stop == here:
            leg = sav.route.pop(0)
            dwell_slots += 1
            event_time = self.now + dwell_slots * self.profile.dwell_time
            on_arrival(sav, leg, self.pending, event_time)
            pr = self.pending[leg.request]
            if leg.action == PICKUP:
                self.metrics.record_wait(event_time - pr.request.request_time)
            else:
                self.metrics.record_completion(pr.request.party_size)
            self._log(leg.action, sav_id, leg.request, here)
            sav.assert_capacity()
        self._schedule(self.now + dwell_slots * self.profile.dwell_time, DWELL_END, sav_id)

    def _on_dwell_end(self, sav_id: int) -> None:
        sav = self.savs[sav_id]
        if sav.route:
            self._start_leg(sav, self.now)
        else:
            sav.status = IDLE
            self._assign_idle(self.now)

    # invariants -----------------------------------------------------------

    def _check_conservation(self) -> None:
        """Every request seen has one state; ONBOARD ones ride a vehicle, COMPLETED
        ones are the trips completed, and both were picked up, with one wait each."""
        counts = {UNASSIGNED: 0, ASSIGNED: 0, ONBOARD: 0, COMPLETED: 0}
        for p in self.pending.values():
            counts[p.state] += 1
        aboard = sum(len(sav.onboard) for sav in self.savs)
        m = self.metrics
        if (sum(counts.values()) != m.requests_seen or counts[ONBOARD] != aboard
                or counts[COMPLETED] != m.trips_completed
                or counts[ONBOARD] + counts[COMPLETED] != len(m.wait_seconds)):
            raise ConsistencyError(
                f"passenger conservation broken at t={self.now}: {counts} vs "
                f"{m.requests_seen} seen, {aboard} aboard, {m.trips_completed} completed, "
                f"{len(m.wait_seconds)} waits"
            )

    # main loop --------------------------------------------------------------

    def run(self) -> ReplicationResult:
        self._schedule(self.scenario.horizon, HORIZON_END, None)
        for req in self.requests:
            self._schedule(req.request_time, REQUEST_ARRIVAL, req)
        handlers = {
            REQUEST_ARRIVAL: self._on_request_arrival,
            SAV_ARRIVAL: self._on_sav_arrival,
            DWELL_END: self._on_dwell_end,
        }
        while self._heap:
            time, _, kind, payload = heappop(self._heap)
            if time < self.now - 1e-9:
                raise ConsistencyError(f"event time moved backwards: {time} < {self.now}")
            self.now = time
            if kind == HORIZON_END:
                break
            handlers[kind](payload)
            self._check_conservation()
            for sav in self.savs:
                sav.assert_capacity()
        self.now = self.scenario.horizon
        for sav in self.savs:
            if sav.status == EN_ROUTE:
                self._end_leg(sav, self.now, "reroute")
        # background tallies go in before the fleet's, in exit order, so that
        # finalize's floating-point sums keep one order
        self.metrics.background_distance = self.traffic.distance
        for delay, stops in self.traffic.finished:
            self.metrics.record_vehicle(delay, stops)
        for sav in self.savs:
            self.metrics.record_vehicle(self.sav_delay[sav.id], self.sav_stops[sav.id])
        record = finalize(self.metrics, self.scenario.horizon)
        return ReplicationResult(record, self.log, self.traffic.samples)


def simulate(
    scenario: Scenario,
    index: int,
    runtime: _Runtime | None = None,
    collect_log: bool = False,
    collect_occupancy: bool = False,
    traffic: traffic_mod.BackgroundTraffic | None = None,
) -> ReplicationResult:
    """Run one seeded replication; equal inputs give identical results.

    ``traffic`` is the index's background field; when none is given it is
    computed here, with occupancy samples if ``collect_occupancy``.
    """
    if runtime is None:
        runtime = _Runtime(scenario)
    if traffic is None:
        traffic = background_field(scenario, runtime, index, collect_occupancy)
    return _Replication(runtime, scenario, index, traffic, collect_log).run()


@dataclass
class ScenarioResult:
    scenario: Scenario
    replications: list[ReplicationResult]
    aggregates: dict[str, tuple[float, float, float, float]]

    @property
    def records(self) -> list[MetricsRecord]:
        return [rep.record for rep in self.replications]


def _run_chunk(
    cells: list[Scenario], indices: range, collect_log: bool, collect_occupancy: bool
) -> list[list[ReplicationResult]]:
    """Run replications ``indices`` of every cell, index by index; one result list per cell.

    Every cell's runtime is built first, so a cell that fails its checks
    stops the task before any replication runs, and the runtimes share one
    stop table per graph.  Each index's background field is computed once
    per distinct (graph, flows, horizon, seed), read by every cell with that
    key, and dropped before the next index.
    """
    tables: dict[RoadGraph, StopDistanceTable | None] = {}
    runtimes = [_Runtime(cell, tables) for cell in cells]
    results: list[list[ReplicationResult]] = [[] for _ in cells]
    for i in indices:
        fields: dict[tuple, traffic_mod.BackgroundTraffic] = {}
        for cell, runtime, out in zip(cells, runtimes, results):
            if i >= cell.replications:
                continue
            key = (cell.graph, tuple(cell.background_flows), cell.horizon, replication_seed(cell, i))
            try:
                if key not in fields:
                    fields[key] = background_field(cell, runtime, i, collect_occupancy)
                out.append(simulate(cell, i, runtime, collect_log, traffic=fields[key]))
            except Exception as exc:
                raise SimulationError(f"replication {i} failed: {exc}") from exc
    return results


def _run_cells(
    cells: list[Scenario], jobs: int, collect_log: bool = False, collect_occupancy: bool = False
) -> list[ScenarioResult]:
    """Run every replication of every cell: the one place replications fan out.

    The run is index-major: replication indices are dealt round-robin into
    one chunk per worker, and each chunk's task runs every cell at each of
    its indices (see ``_run_chunk``), so the cells of a task share one stop
    table per graph and the background clock runs once per index.  All
    chunks share one pool; forked workers inherit any wrapper around
    ``simulate``.  Results equal a serial run.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    indices = range(max(c.replications for c in cells))
    workers = min(jobs, os.cpu_count() or 1, len(indices))
    args = (repeat(cells), [indices[k::workers] for k in range(workers)],
            repeat(collect_log), repeat(collect_occupancy))
    if workers > 1:
        from concurrent import futures  # loaded here so serial runs skip the pool machinery
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, *args))
    else:
        parts = map(_run_chunk, *args)
    per_cell: list[list[ReplicationResult]] = [[] for _ in cells]
    for part in parts:
        for reps, more in zip(per_cell, part):
            reps.extend(more)
    return [ScenarioResult(cell, sorted(reps, key=lambda rep: rep.record.replication),
                           aggregate([rep.record for rep in reps]))
            for cell, reps in zip(cells, per_cell)]


def run_scenario(
    scenario: Scenario,
    jobs: int = 1,
    collect_log: bool = False,
    collect_occupancy: bool = False,
) -> ScenarioResult:
    """Run all replications, keeping logs and occupancy samples if asked, and aggregate."""
    return _run_cells([scenario], jobs, collect_log, collect_occupancy)[0]


@dataclass
class SweepResult:
    base: Scenario
    cells: dict[tuple[int, str], ScenarioResult]

    def all_records(self) -> list[MetricsRecord]:
        out = []
        for key in sorted(self.cells):
            out.extend(self.cells[key].records)
        return out


def run_sweep(
    base: Scenario,
    fleet_sizes: list[int],
    profiles: list[str],
    jobs: int = 1,
) -> SweepResult:
    """One aggregated result per (fleet size, profile) cell.

    Every cell derives demand from the same base seed, so request streams are
    identical across cells and comparisons isolate the swept variables.
    """
    if not fleet_sizes or not profiles:
        raise ConfigurationError("sweep needs at least one fleet size and one profile")
    keys = [(fleet, profile) for fleet in fleet_sizes for profile in profiles]
    cells = [replace(base, fleet_size=fleet, profile=profile) for fleet, profile in keys]
    return SweepResult(base, dict(zip(keys, _run_cells(cells, jobs))))


# scenario files -------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    doc = {
        "name": scenario.name,
        "network": scenario.network_path or "network.json",
        "demand": {
            "outbound_rate": scenario.demand.outbound_rate,
            "inbound_rate": scenario.demand.inbound_rate,
            "party_size_weights": {
                str(k): v for k, v in sorted(scenario.demand.party_size_weights.items())
            },
            "horizon": scenario.demand.horizon,
        },
        "background_flows": [asdict(f) for f in scenario.background_flows],
        "fleet_size": scenario.fleet_size,
        "profile": scenario.profile,
        "policy": asdict(scenario.policy),
        "horizon": scenario.horizon,
        "replications": scenario.replications,
        "base_seed": scenario.base_seed,
    }
    if scenario.behavior_profiles is not None:
        doc["behavior_profiles"] = {
            name: {"speed_factor": p.speed_factor, "dwell_time": p.dwell_time}
            for name, p in sorted(scenario.behavior_profiles.items())
        }
    return doc


def _party_weights(doc: dict) -> dict[int, float]:
    return {int(k): number(v) for k, v in doc.items()}


_SCENARIO_FIELDS = {
    "name": str, "network": str, "demand": dict, "background_flows": list,
    "fleet_size": int, "profile": str, "policy": dict, "horizon": float,
    "replications": int, "base_seed": int, "behavior_profiles": dict,
}
_DEMAND_FIELDS = {
    "outbound_rate": float, "inbound_rate": float,
    "party_size_weights": _party_weights, "horizon": float,
}
_FLOW_FIELDS = {"origin_vertex": int, "destination_vertex": int, "rate": float}
_POLICY_FIELDS = {
    "overdue_threshold": float, "priority_radius": float,
    "detour_budget_factor": float, "capacity": int,
}


def scenario_from_dict(doc: dict, graph: RoadGraph, network_path: str | None = None) -> Scenario:
    """Build a scenario from its document; absent optional fields take the dataclass defaults.

    The demand section and its two rates are required; the demand horizon
    defaults to the scenario horizon.  Unknown keys are rejected.
    """
    fields = read_section("scenario", doc, _SCENARIO_FIELDS, required=("demand",))
    fields.pop("network", None)
    try:
        demand = read_section("demand", fields.pop("demand"), _DEMAND_FIELDS,
                              required=("outbound_rate", "inbound_rate"))
        if "horizon" in fields:
            demand.setdefault("horizon", fields["horizon"])
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
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
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
    network_rel = str(doc.get("network", "network.json"))
    network_path = os.path.join(os.path.dirname(os.path.abspath(path)), network_rel)
    graph = load_network(network_path)
    return scenario_from_dict(doc, graph, network_path=network_rel)
