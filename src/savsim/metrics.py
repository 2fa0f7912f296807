"""Per-replication measures and their CSV text.

One record per replication: network-wide delay and stop averages, distances,
trip counts, wait times, passengers served, and shared-ride distance.  Waits
are measured request-time to pickup and only over requests that were picked
up; requests never completed are counted separately so nothing is lost.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

from .dispatch import DROPOFF, PICKUP


@dataclass(frozen=True)
class MetricsRecord:
    scenario: str
    fleet_size: int
    profile: str
    replication: int
    avg_delay_min: float
    avg_stops: float
    total_distance_m: float
    trips_completed: int
    trips_per_sav: float
    avg_wait_min: float
    passengers_served: int
    shared_miles_m: float
    unserved: int
    sav_distance_m: float


# numeric fields aggregated by mean/std/min/max, in output order
AGGREGATE_FIELDS = (
    "avg_delay_min",
    "avg_stops",
    "total_distance_m",
    "trips_completed",
    "trips_per_sav",
    "avg_wait_min",
    "passengers_served",
    "shared_miles_m",
    "unserved",
    "sav_distance_m",
)

# the columns of replications.csv, in output order
CSV_FIELDS = (
    "scenario", "fleet_size", "profile", "replication", "avg_delay_min", "avg_stops",
    "total_distance_m", "trips_completed", "trips_per_sav", "avg_wait_min",
    "passengers_served", "shared_miles_m", "unserved",
)


@dataclass
class MetricsState:
    """The fleet's accumulators owned by one replication; ``finalize`` reads the
    vehicle tallies and the background distance where they live."""

    scenario: str
    fleet_size: int
    profile: str
    replication: int
    sav_distance: float = 0.0
    shared_miles: float = 0.0
    wait_seconds: list[float] = field(default_factory=list)
    trips_completed: int = 0
    passengers_served: int = 0
    requests_seen: int = 0

    def record_wait(self, seconds: float) -> None:
        self.wait_seconds.append(seconds)

    def record_completion(self, party_size: int) -> None:
        self.trips_completed += 1
        self.passengers_served += party_size


def finalize(state: MetricsState, vehicles: list, field_distance: float) -> MetricsRecord:
    """Reduce accumulators to one record; the average over an empty population is zero.

    ``vehicles`` are the vehicles themselves, whose ``delay`` (seconds) and
    ``stops`` (stop events) are summed in their order; ``field_distance`` is
    the background vehicles' distance, to which the fleet's is added.
    """
    n, waits = len(vehicles), state.wait_seconds
    avg_delay = sum(v.delay for v in vehicles) / n if n else 0.0
    avg_stops = sum(v.stops for v in vehicles) / n if n else 0.0
    avg_wait = sum(waits) / len(waits) if waits else 0.0
    return MetricsRecord(
        scenario=state.scenario,
        fleet_size=state.fleet_size,
        profile=state.profile,
        replication=state.replication,
        avg_delay_min=avg_delay / 60.0,
        avg_stops=avg_stops,
        total_distance_m=field_distance + state.sav_distance,
        trips_completed=state.trips_completed,
        trips_per_sav=(state.trips_completed / state.fleet_size) if state.fleet_size else 0.0,
        avg_wait_min=avg_wait / 60.0,
        passengers_served=state.passengers_served,
        shared_miles_m=state.shared_miles,
        unserved=state.requests_seen - state.trips_completed,
        sav_distance_m=state.sav_distance,
    )


def _table(header, rows) -> str:
    r"""CSV text of a header and rows; a field holding a comma, quote or line break is quoted (RFC 4180).

    Rows end in ``"\n"``.  Before Python 3.13 the writer quotes a field for
    a line break only if the break is in its terminator, and a bare
    ``"\r"`` left unquoted splits the row when it is read.  So the writer is
    given ``"\r\n"``, and each row, written by one ``write`` call, has that
    terminator cut to ``"\n"``.
    """
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def _fmt(value):
    return f"{value:.6f}" if isinstance(value, float) else value


def records_to_csv(records: list[MetricsRecord]) -> str:
    """The per-replication CSV; rows are sorted, so identical records give identical bytes."""
    rows = sorted(records, key=lambda r: (r.scenario, r.fleet_size, r.profile, r.replication))
    return _table(CSV_FIELDS, ([_fmt(getattr(r, name)) for name in CSV_FIELDS] for r in rows))


def aggregate(records: list[MetricsRecord]) -> dict[str, tuple[float, float, float, float]]:
    """Per-metric (mean, population std, min, max) over replications."""
    ordered = sorted(records, key=lambda r: r.replication)
    out = {}
    for name in AGGREGATE_FIELDS:
        values = [float(getattr(r, name)) for r in ordered]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        out[name] = (mean, math.sqrt(var), min(values), max(values))
    return out


def aggregates_to_csv(cells: list[tuple[str, int, str, dict]]) -> str:
    """Long-form aggregate table: one row per (cell, metric)."""
    rows = ([scenario, fleet_size, profile, metric, *(f"{v:.6f}" for v in stats[metric])]
            for scenario, fleet_size, profile, stats in sorted(cells, key=lambda c: (c[0], c[1], c[2]))
            for metric in AGGREGATE_FIELDS)
    return _table(["scenario", "fleet_size", "profile", "metric", "mean", "std", "min", "max"], rows)


def occupancy_to_csv(rows: list[tuple[float, int, int]]) -> str:
    """The ``(time, edge id, occupancy)`` rows; times in round-trip ``repr`` form."""
    return _table(["time_s", "edge_id", "occupancy"], ((repr(t), edge, occ) for t, edge, occ in rows))


# event-log replay ----------------------------------------------------------

@dataclass(frozen=True)
class LogEntry:
    """One fleet state transition, as written to the event log."""

    time: float
    sav: int
    kind: str       # depart | arrive | reroute | horizon | pickup | dropoff | assign
    request: int | None
    stop: int | None
    distance: float = 0.0


def events_to_csv(logs: list[tuple[int, list[LogEntry]]]) -> str:
    """The event log of each (replication, entries) pair; times and distances in round-trip ``repr`` form, None empty."""
    rows = ((replication, repr(e.time), e.sav, e.kind, e.request, e.stop, repr(e.distance))
            for replication, entries in logs for e in entries)
    return _table(["replication", "time_s", "sav", "event", "request", "stop", "distance"], rows)


def replay_shared_miles(entries: list[LogEntry]) -> float:
    """Recompute shared distance from the event log alone.

    Rebuilds each vehicle's onboard set from pickup/dropoff entries and sums
    the distances of movement entries made with two or more requests aboard.
    Must equal the online accumulator exactly.
    """
    aboard: dict[int, set[int]] = {}
    shared = 0.0
    for e in entries:
        requests = aboard.setdefault(e.sav, set())
        if e.kind in ("arrive", "reroute", "horizon"):
            if len(requests) >= 2:
                shared += e.distance
        elif e.kind == PICKUP:
            requests.add(e.request)
        elif e.kind == DROPOFF:
            requests.discard(e.request)
    return shared
