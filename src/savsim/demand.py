"""Trip request generation.

Requests arrive as two independent homogeneous Poisson streams: outbound
(peripheral housing to central opportunity stops) and inbound (the reverse),
over ``[0, horizon)``.  The horizon is the scenario's, passed in by the
caller; the profile holds only rates and party sizes.  Origins and
destinations are drawn uniformly from the matching zone.  All randomness is
driven by an explicit seed; equal seeds give identical output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

from .errors import InvalidInputError, check_finite
from .netgraph import Stop


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

    def __post_init__(self) -> None:
        check_finite("demand", outbound_rate=self.outbound_rate, inbound_rate=self.inbound_rate)
        if self.outbound_rate < 0 or self.inbound_rate < 0:
            raise InvalidInputError("demand rates must be >= 0")
        weights = self.party_size_weights
        if any(size < 1 for size in weights):
            raise InvalidInputError(f"party_size_weights sizes must be >= 1, got {sorted(weights)}")
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


def generate_requests(profile: DemandProfile, stops: list[Stop], seed: int,
                      horizon: float) -> list[TripRequest]:
    """Draw a time-ordered request list for one replication, over ``[0, horizon)``."""
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
        for t in poisson_arrivals(rng, rate, horizon):
            origin = rng.choice(origins)
            dest = rng.choice(destinations)
            party = rng.choices(sizes, weights=probs)[0]
            raw.append((t, origin.id, dest.id, party))
    raw.sort(key=lambda rec: rec[0])
    return [
        TripRequest(i, origin, dest, t, party)
        for i, (t, origin, dest, party) in enumerate(raw)
    ]
