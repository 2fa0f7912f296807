"""Congestion model and driving behavior profiles.

Edge speed follows a linear speed-density relation with a crawl floor so
saturated edges never produce infinite travel times.  Behavior profiles scale
attainable speed (capped at free flow) and set per-boarding dwell times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidInputError, check_finite, read_section
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


_PROFILE_FIELDS = {"speed_factor": float, "dwell_time": float}


def profiles_from_dict(doc: dict) -> dict[str, BehaviorProfile]:
    """Parse scenario-file profile overrides, keeping defaults for absent names and fields."""
    table = dict(DEFAULT_PROFILES)
    for name, rec in doc.items():
        fields = read_section(f"behavior_profiles.{name}", rec, _PROFILE_FIELDS)
        table[name] = replace(table.get(name, BehaviorProfile(name, 1.0, 12.0)), **fields)
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
