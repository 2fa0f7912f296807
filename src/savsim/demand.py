"""Trip request generation and loading.

Requests arrive as two independent homogeneous Poisson streams: outbound
(peripheral housing to central opportunity stops) and inbound (the reverse).
Origins and destinations are drawn uniformly from the matching zone.  All
randomness is driven by an explicit seed; equal seeds give identical output.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

from .errors import InvalidInputError, NotFoundError, check_finite
from .netgraph import RoadGraph, Stop

REQUEST_CSV_HEADER = ["id", "origin", "destination", "request_time_s", "party_size"]


@dataclass(frozen=True)
class TripRequest:
    id: int
    origin: int
    destination: int
    request_time: float
    party_size: int


def default_party_weights() -> dict[int, float]:
    return {1: 0.7, 2: 0.2, 3: 0.1}


@dataclass(frozen=True)
class DemandProfile:
    outbound_rate: float = 9.0     # requests/hour, peripheral -> central
    inbound_rate: float = 6.0      # requests/hour, central -> peripheral
    party_size_weights: dict[int, float] = field(default_factory=default_party_weights)
    horizon: float = 14400.0       # seconds

    def __post_init__(self) -> None:
        check_finite("demand", outbound_rate=self.outbound_rate, inbound_rate=self.inbound_rate,
                     horizon=self.horizon)
        if self.outbound_rate < 0 or self.inbound_rate < 0:
            raise InvalidInputError("demand rates must be >= 0")
        if self.horizon <= 0:
            raise InvalidInputError("demand horizon must be > 0")
        weights = self.party_size_weights
        if any(not math.isfinite(w) or w < 0 for w in weights.values()):
            raise InvalidInputError("party size weights must be finite and >= 0")
        if not math.isclose(sum(weights.values()), 1.0, rel_tol=1e-9):
            raise InvalidInputError("party size weights must sum to 1")


def poisson_arrivals(rng: random.Random, rate_per_hour: float, horizon: float) -> Iterator[float]:
    """Poisson arrival times on [0, horizon); each gap is drawn only when the next is asked for."""
    rate = rate_per_hour / 3600.0
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            return
        yield t


def generate_requests(profile: DemandProfile, stops: list[Stop], seed: int) -> list[TripRequest]:
    """Draw a time-ordered request list for one replication."""
    peripheral = sorted((s for s in stops if s.zone == "peripheral_housing"), key=lambda s: s.id)
    central = sorted((s for s in stops if s.zone == "central_opportunity"), key=lambda s: s.id)
    sizes = sorted(profile.party_size_weights)
    probs = [profile.party_size_weights[s] for s in sizes]
    raw: list[tuple[float, int, int, int]] = []
    for label, rate, origins, destinations in (
        ("outbound", profile.outbound_rate, peripheral, central),
        ("inbound", profile.inbound_rate, central, peripheral),
    ):
        if rate <= 0:
            continue
        if not origins or not destinations:
            raise InvalidInputError(f"{label} demand needs stops in both zones")
        rng = random.Random(f"{seed}:{label}")
        for t in poisson_arrivals(rng, rate, profile.horizon):
            origin = rng.choice(origins)
            dest = rng.choice(destinations)
            party = rng.choices(sizes, weights=probs)[0]
            raw.append((t, origin.id, dest.id, party))
    raw.sort(key=lambda rec: rec[0])
    return [
        TripRequest(i, origin, dest, t, party)
        for i, (t, origin, dest, party) in enumerate(raw)
    ]


def _validated(req: TripRequest, graph: RoadGraph | None) -> TripRequest:
    if req.origin == req.destination:
        raise InvalidInputError(f"request {req.id}: origin equals destination")
    if req.party_size < 1:
        raise InvalidInputError(f"request {req.id}: party_size must be >= 1")
    if req.request_time < 0:
        raise InvalidInputError(f"request {req.id}: request_time must be >= 0")
    if graph is not None:
        for sid in (req.origin, req.destination):
            if not graph.has_stop(sid):
                raise NotFoundError(f"request {req.id} references unknown stop {sid}")
    return req


def parse_requests(text: str, graph: RoadGraph | None = None) -> list[TripRequest]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != REQUEST_CSV_HEADER:
        raise InvalidInputError(
            f"request file header must be {','.join(REQUEST_CSV_HEADER)}"
        )
    requests = [
        _validated(
            TripRequest(
                int(row["id"]),
                int(row["origin"]),
                int(row["destination"]),
                float(row["request_time_s"]),
                int(row["party_size"]),
            ),
            graph,
        )
        for row in reader
    ]
    requests.sort(key=lambda r: (r.request_time, r.id))
    return requests


def load_requests(path: str, graph: RoadGraph | None = None) -> list[TripRequest]:
    """Read requests from CSV, validate against the stop registry, sort by time."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_requests(fh.read(), graph)


def requests_to_csv(requests: list[TripRequest]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REQUEST_CSV_HEADER)
    for r in requests:
        writer.writerow([r.id, r.origin, r.destination, repr(r.request_time), r.party_size])
    return buf.getvalue()
