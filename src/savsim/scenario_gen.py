"""Synthetic city network generator.

Produces a rectangular grid of two-way arterials (each direction its own
edge) sized like the study area: housing stops spread around the outer ring,
opportunity stops clustered in the middle third of both dimensions.  Useful
for running fleet experiments without any proprietary map data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .engine import Scenario
from .errors import InvalidInputError, check_finite
from .netgraph import RoadGraph, edge_weight
from .traffic import BackgroundFlow

DEFAULT_FREE_FLOW_SPEED = 13.41   # about 30 mph, small-city arterials
VEHICLE_SPACING = 8.0             # meters of edge per vehicle at jam

# generate_network's peak RSS grew by 24.2 MB for 18,980 vertices (grid_spacing=100) and
# 98.4 MB for 75,369 (grid_spacing=50), Python 3.11; `savsim generate` peaked at 303 MB for the latter.
MAX_GRID_VERTICES = 100_000


@dataclass(frozen=True)
class SyntheticSpec:
    width: float = 14484.0         # 9 miles
    height: float = 12875.0        # 8 miles
    grid_spacing: float = 1600.0
    peripheral_stop_count: int = 8
    central_stop_count: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite("generator", width=self.width, height=self.height,
                     grid_spacing=self.grid_spacing)
        if self.width <= 0 or self.height <= 0 or self.grid_spacing <= 0:
            raise InvalidInputError("width, height, grid_spacing must be > 0")
        if self.peripheral_stop_count < 1 or self.central_stop_count < 1:
            raise InvalidInputError("stop counts must be >= 1")
        spans = (self.width / self.grid_spacing, self.height / self.grid_spacing)
        vertices = math.prod(_grid_counts(self)) if all(map(math.isfinite, spans)) else math.inf
        if vertices > MAX_GRID_VERTICES:
            raise InvalidInputError(f"width, height and grid_spacing give {vertices} grid vertices, "
                                    f"more than {MAX_GRID_VERTICES}")


def _grid_counts(spec: SyntheticSpec) -> tuple[int, int]:
    nx = max(2, round(spec.width / spec.grid_spacing) + 1)
    ny = max(2, round(spec.height / spec.grid_spacing) + 1)
    return nx, ny


def _spread(candidates: list[int], count: int, kind: str) -> list[int]:
    if count > len(candidates):
        raise InvalidInputError(
            f"network too small: {count} {kind} stops requested, "
            f"{len(candidates)} candidate edges"
        )
    return [candidates[(k * len(candidates)) // count] for k in range(count)]


def generate_network(spec: SyntheticSpec) -> RoadGraph:
    """Build the grid and place its zone-tagged stops."""
    nx, ny = _grid_counts(spec)
    # i/(nx-1) hits 1.0 exactly, so the bounding box is exactly width x height
    xs = [spec.width * i / (nx - 1) for i in range(nx)]
    ys = [spec.height * j / (ny - 1) for j in range(ny)]
    inner_x = [spec.width / 3.0 <= x <= 2.0 * spec.width / 3.0 for x in xs]
    inner_y = [spec.height / 3.0 <= y <= 2.0 * spec.height / 3.0 for y in ys]
    graph = RoadGraph()
    grid = [graph.add_vertex(j * nx + i, x, y) for j, y in enumerate(ys) for i, x in enumerate(xs)]

    # each road once, as (id of its edge from the lower vertex id, midpoint), so stop hosts are unambiguous
    roads: list[tuple[int, tuple[float, float]]] = []
    boundary, central = [], []
    for j in range(ny):
        for i in range(nx):
            for i2, j2 in ((i + 1, j), (i, j + 1)):
                if i2 == nx or j2 == ny:
                    continue
                a, b = grid[j * nx + i], grid[j2 * nx + i2]
                length = edge_weight(a, b)
                capacity = max(1, round(length / VEHICLE_SPACING))
                eid = 2 * len(roads)
                graph.add_edge(eid, a.id, b.id, DEFAULT_FREE_FLOW_SPEED, capacity, length=length)
                graph.add_edge(eid + 1, b.id, a.id, DEFAULT_FREE_FLOW_SPEED, capacity, length=length)
                road = (eid, ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0))
                roads.append(road)
                if (a.x == b.x and a.x in (0.0, spec.width)) or (a.y == b.y and a.y in (0.0, spec.height)):
                    boundary.append(road)
                if inner_x[i] and inner_x[i2] and inner_y[j] and inner_y[j2]:
                    central.append(road)

    cx, cy = spec.width / 2.0, spec.height / 2.0
    if not central:
        # grid too coarse for a middle third; fall back to the roads nearest the center
        central = sorted(roads, key=lambda r: (math.hypot(r[1][0] - cx, r[1][1] - cy), r[0]))
        central = central[: spec.central_stop_count]

    rng = random.Random(f"{spec.seed}:stops")
    for records, count, kind, zone in ((boundary, spec.peripheral_stop_count, "peripheral", "peripheral_housing"),
                                       (central, spec.central_stop_count, "central", "central_opportunity")):
        # the ring order: by angle of the midpoint around the center
        ring = [eid for _, eid in sorted((math.atan2(my - cy, mx - cx), eid) for eid, (mx, my) in records)]
        for eid in _spread(ring, count, kind):
            graph.place_stop(eid, round(rng.uniform(0.3, 0.7) * graph.edge(eid).length, 3), zone)
    return graph


def default_background_flows(spec: SyntheticSpec) -> list[BackgroundFlow]:
    """Cross-town streams between opposite corners."""
    nx, ny = _grid_counts(spec)
    corners = (0, nx - 1, (ny - 1) * nx, ny * nx - 1)
    return [
        BackgroundFlow(corners[0], corners[3], 20.0),
        BackgroundFlow(corners[3], corners[0], 20.0),
        BackgroundFlow(corners[1], corners[2], 20.0),
        BackgroundFlow(corners[2], corners[1], 20.0),
    ]


def default_scenario(spec: SyntheticSpec | None = None, name: str = "synthetic-city") -> Scenario:
    """The stock experiment: ``Scenario``'s defaults on the default synthetic grid with its corner flows."""
    spec = spec or SyntheticSpec()
    return Scenario(graph=generate_network(spec), name=name,
                    background_flows=default_background_flows(spec), base_seed=spec.seed)
