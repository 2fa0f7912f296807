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

# generate_network's peak RSS grew by 26.0 MB for 18,980 vertices (grid_spacing=100) and
# 104.8 MB for 75,369 (grid_spacing=50), Python 3.11; `savsim generate` peaked at 683 MB for the latter.
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


def _ring_order(graph: RoadGraph, edge_ids: list[int], center: tuple[float, float]) -> list[int]:
    """Edges sorted by angle of their midpoint around the center."""
    def angle(eid: int) -> tuple[float, int]:
        e = graph.edge(eid)
        a, b = graph.vertex(e.source), graph.vertex(e.sink)
        mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
        return (math.atan2(my - center[1], mx - center[0]), eid)
    return sorted(edge_ids, key=angle)


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
    graph = RoadGraph()
    for j in range(ny):
        for i in range(nx):
            graph.add_vertex(j * nx + i, xs[i], ys[j])

    eid = 0
    for j in range(ny):
        for i in range(nx):
            vid = j * nx + i
            neighbors = []
            if i + 1 < nx:
                neighbors.append(vid + 1)
            if j + 1 < ny:
                neighbors.append(vid + nx)
            for other in neighbors:
                length = edge_weight(graph.vertex(vid), graph.vertex(other))
                capacity = max(1, round(length / VEHICLE_SPACING))
                graph.add_edge(eid, vid, other, DEFAULT_FREE_FLOW_SPEED, capacity)
                graph.add_edge(eid + 1, other, vid, DEFAULT_FREE_FLOW_SPEED, capacity)
                eid += 2

    center = (spec.width / 2.0, spec.height / 2.0)

    def in_middle_third(v) -> bool:
        return (
            spec.width / 3.0 <= v.x <= 2.0 * spec.width / 3.0
            and spec.height / 3.0 <= v.y <= 2.0 * spec.height / 3.0
        )

    # one direction per road so stop hosts are unambiguous
    forward = [e for e in graph.edges() if e.source < e.sink]

    def along_boundary(e) -> bool:
        a, b = graph.vertex(e.source), graph.vertex(e.sink)
        return (a.x == b.x and a.x in (0.0, spec.width)) or (
            a.y == b.y and a.y in (0.0, spec.height)
        )

    boundary = [e.id for e in forward if along_boundary(e)]
    central = [
        e.id for e in forward
        if in_middle_third(graph.vertex(e.source)) and in_middle_third(graph.vertex(e.sink))
    ]
    if not central:
        # grid too coarse for a middle third; fall back to edges nearest the center
        def center_gap(eid2: int) -> tuple[float, int]:
            e = graph.edge(eid2)
            a, b = graph.vertex(e.source), graph.vertex(e.sink)
            mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
            return (math.hypot(mx - center[0], my - center[1]), eid2)

        ranked = sorted((e.id for e in forward), key=center_gap)
        central = ranked[: spec.central_stop_count]

    rng = random.Random(f"{spec.seed}:stops")
    for eid in _spread(_ring_order(graph, boundary, center), spec.peripheral_stop_count, "peripheral"):
        edge = graph.edge(eid)
        graph.place_stop(eid, round(rng.uniform(0.3, 0.7) * edge.length, 3), "peripheral_housing")
    for eid in _spread(_ring_order(graph, central, center), spec.central_stop_count, "central"):
        edge = graph.edge(eid)
        graph.place_stop(eid, round(rng.uniform(0.3, 0.7) * edge.length, 3), "central_opportunity")
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
