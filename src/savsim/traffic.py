"""Congestion model, driving behavior profiles and background traffic.

Edge speed follows a linear speed-density relation with a crawl floor so
saturated edges never produce infinite travel times.  Behavior profiles scale
attainable speed (capped at free flow) and set per-boarding dwell times.
``drive`` is the one rule for driving an edge and ``count_stop_event`` the
one rule for a stop, both used by fleet legs and background vehicles alike.
``BackgroundTraffic`` owns the background vehicles of one replication index:
their injection draws, the per-edge occupancy timelines the fleet reads, and
the distance they drove; each vehicle carries its own delay and stop tallies.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace

from .demand import poisson_arrivals
from .errors import ConsistencyError, InvalidInputError, check_finite, read_section, record_kinds
from .netgraph import DirectedEdge

CRAWL_FRACTION = 0.05
STOP_SPEED_THRESHOLD = 1.0  # m/s; below this a vehicle counts as stopped


@dataclass(frozen=True)
class BehaviorProfile:
    name: str
    speed_factor: float
    dwell_time: float

    def __post_init__(self) -> None:
        check_finite(f"behavior profile {self.name!r}", speed_factor=self.speed_factor,
                     dwell_time=self.dwell_time)
        if self.speed_factor <= 0:
            raise InvalidInputError(f"behavior profile {self.name!r}: speed_factor must be > 0")
        if self.dwell_time < 0:
            raise InvalidInputError(f"behavior profile {self.name!r}: dwell_time must be >= 0")


DEFAULT_PROFILES: dict[str, BehaviorProfile] = {
    "cautious": BehaviorProfile("cautious", 0.85, 20.0),
    "normal": BehaviorProfile("normal", 1.00, 12.0),
    "aggressive": BehaviorProfile("aggressive", 1.10, 8.0),
}


def get_profile(name: str, overrides: dict[str, BehaviorProfile] | None = None) -> BehaviorProfile:
    table = overrides if overrides is not None else DEFAULT_PROFILES
    profile = table.get(name)
    if profile is None:
        raise InvalidInputError(f"unknown behavior profile {name!r}")
    return profile


_PROFILE_FIELDS = record_kinds(BehaviorProfile, skip=("name",))


def profiles_from_dict(doc: dict) -> dict[str, BehaviorProfile]:
    """Parse scenario-file profile overrides; absent fields keep defaults, new names start from normal's."""
    table = dict(DEFAULT_PROFILES)
    for name, rec in doc.items():
        fields = read_section(f"behavior_profiles.{name}", rec, _PROFILE_FIELDS)
        table[name] = replace(table.get(name, DEFAULT_PROFILES["normal"]), name=name, **fields)
    return table


@dataclass(frozen=True)
class BackgroundFlow:
    """Poisson stream of non-fleet vehicles between two vertices."""

    origin_vertex: int
    destination_vertex: int
    rate: float  # vehicles/hour

    def __post_init__(self) -> None:
        check_finite("background flow", rate=self.rate)
        if self.rate < 0:
            raise InvalidInputError("background flow rate must be >= 0")
        if self.origin_vertex == self.destination_vertex:
            raise InvalidInputError("background flow origin equals destination")


def edge_speed(edge: DirectedEdge, occupancy: int) -> float:
    """Linear speed-density closure with a crawl floor at 5% of free flow."""
    return edge.free_flow_speed * max(CRAWL_FRACTION, 1.0 - occupancy / edge.capacity_vehicles)


def attainable_speed(edge: DirectedEdge, occupancy: int, profile: BehaviorProfile) -> float:
    """Fleet speed on the edge: congested speed scaled by the profile, capped at free flow."""
    return min(edge.free_flow_speed, edge_speed(edge, occupancy) * profile.speed_factor)


def count_stop_event(previous_speed: float, new_speed: float) -> bool:
    """True exactly when speed crosses below the stop threshold."""
    return previous_speed >= STOP_SPEED_THRESHOLD and new_speed < STOP_SPEED_THRESHOLD


def drive(edge: DirectedEdge, length: float, speed: float) -> tuple[float, float]:
    """(seconds, delay against free flow) for ``length`` > 0 meters of ``edge`` at ``speed``."""
    seconds = length / speed
    return seconds, seconds - length / edge.free_flow_speed


@dataclass
class BackgroundVehicle:
    """One vehicle of a background flow and its running delay and stop tallies."""

    route: tuple[DirectedEdge, ...]
    index: int = -1   # the edge of ``route`` it is on; -1 until it enters
    speed: float = 0.0
    delay: float = 0.0
    stops: int = 0


class BackgroundTraffic:
    """The background vehicles of one replication index and the occupancy they make.

    Injections are Poisson draws from the replication seed alone, and fleet
    vehicles read occupancy but never load an edge, so background traffic
    does not depend on the fleet: one field serves every cell that shares
    (graph, flows, horizon, seed).  The caller keeps the clock: it calls
    ``advance`` at each time in ``injections`` and at each exit time
    ``advance`` returns, in time order.  Once the clock has run to the
    horizon the field is read-only.  Its records are the timelines, which
    hold every occupancy change (an edge's count now is its timeline's last
    value, made at its first change), and the vehicles, each with its edge
    ``index`` (>= 0 once entered) and its delay and stop tallies;
    ``finished`` lists the vehicles that left their route, in exit order.
    """

    def __init__(
        self, flows: list[BackgroundFlow], routes: list[tuple[DirectedEdge, ...]],
        horizon: float, seed: int,
    ) -> None:
        self.distance = 0.0
        self.finished: list[BackgroundVehicle] = []   # in exit order
        # edge id -> (times, occupancies): each change to the edge's occupancy, in time order
        self._timelines: dict[int, tuple[list[float], list[int]]] = {}
        rng = random.Random(f"{seed}:background")
        self.injections: list[tuple[float, BackgroundVehicle]] = [
            (t, BackgroundVehicle(route))
            for flow, route in zip(flows, routes)
            if flow.rate > 0 and route
            for t in poisson_arrivals(rng, flow.rate, horizon)
        ]

    def _set(self, edge_id: int, now: float, occupancy: int) -> None:
        timeline = self._timelines.get(edge_id)
        if timeline is None:
            timeline = self._timelines[edge_id] = ([], [])
        timeline[0].append(now)
        timeline[1].append(occupancy)

    def advance(self, vehicle: BackgroundVehicle, now: float) -> float | None:
        """Move ``vehicle`` onto its next edge at ``now``; when it will leave it, or None at the end."""
        if vehicle.index >= 0:
            edge = vehicle.route[vehicle.index]
            self._set(edge.id, now, self._timelines[edge.id][1][-1] - 1)
            self.distance += edge.length
        vehicle.index += 1
        if vehicle.index == len(vehicle.route):
            self.finished.append(vehicle)
            return None
        edge = vehicle.route[vehicle.index]
        timeline = self._timelines.get(edge.id)
        occupancy = timeline[1][-1] if timeline else 0
        speed = edge_speed(edge, occupancy)
        seconds, delay = drive(edge, edge.length, speed)
        vehicle.stops += count_stop_event(vehicle.speed, speed)
        vehicle.speed = speed
        vehicle.delay += delay
        self._set(edge.id, now, occupancy + 1)
        return now + seconds

    def occupancy_at(self, edge_id: int, t: float) -> int:
        """Background vehicles on ``edge_id`` at time ``t``.

        Tie rule: a change at exactly ``t`` is visible at ``t``, so a fleet
        vehicle starting a leg at the instant a background vehicle enters or
        leaves an edge sees the edge after that change.
        """
        times, values = self._timelines.get(edge_id, ((), ()))
        i = bisect_right(times, t)
        return values[i - 1] if i else 0

    def occupancy_rows(self) -> list[tuple[float, int, int]]:
        """Every ``(time, edge id, occupancy)`` change by time, then edge id, then timeline order."""
        rows = [(t, eid, n) for eid, (times, values) in self._timelines.items() for t, n in zip(times, values)]
        return sorted(rows, key=lambda row: row[:2])   # stable, so ties keep timeline order

    def check(self) -> None:
        """Every vehicle entered and not finished occupies exactly one edge."""
        entered = sum(vehicle.index >= 0 for _, vehicle in self.injections)
        if entered - len(self.finished) != sum(values[-1] for _, values in self._timelines.values()):
            raise ConsistencyError("background vehicle conservation broken")
