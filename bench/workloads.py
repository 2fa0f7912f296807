"""The benchmark's workloads, built only from savsim's public entry points.

A workload is a scenario recipe plus the call that runs it.  The seed feeds
``SyntheticSpec.seed``, which places the stops on the grid.  Replication
``i`` draws its demand and background traffic from seed ``i``, as in the
acceptance fixture (``base_seed`` 0): varying the demand with the seed as
well spreads the sweep's wall time by about a fifth between seeds, more than
any bound the benchmark could keep (see README.md, "Seeds").
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable

from savsim import engine, netgraph, scenario_gen
from savsim.scenario_gen import SyntheticSpec

FLEET_SIZES = [2, 4, 6, 8, 10]
PROFILES = ["cautious", "normal", "aggressive"]


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], SyntheticSpec]
    replications: int           # per cell, in one timed unit
    min_units: int              # timed units every run makes, more if time allows
    trace_replications: int     # per cell, in the traced unit
    setups: int                 # set-ups timed before each unit; setup_s is their median
    sweep: bool = True          # the 5 x 3 fleet/profile sweep, else fleet 10, normal
    flows: bool = True          # keep the default corner background flows
    parallel: bool = False      # jobs = usable CPUs instead of 1

    def jobs(self) -> int:
        return usable_cpus() if self.parallel else 1

    def cells(self) -> int:
        return len(FLEET_SIZES) * len(PROFILES) if self.sweep else 1


def _default_spec(seed: int) -> SyntheticSpec:
    return SyntheticSpec(seed=seed)


def _city_spec(seed: int) -> SyntheticSpec:
    return SyntheticSpec(
        grid_spacing=400, peripheral_stop_count=56, central_stop_count=56, seed=seed
    )


REPLICATION_BASE_SEED = 0

_SWEEP = dict(spec=_default_spec, replications=4, min_units=4, trace_replications=2, setups=5)

WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists: README.md, "Workloads"
        Workload(
            "sweep",
            **_SWEEP,
        ),
        Workload(
            "city-400m",
            spec=_city_spec,
            replications=8,
            min_units=5,
            trace_replications=4,
            setups=1,
            sweep=False,
            flows=False,
        ),
        Workload(
            "sweep-jobs",
            parallel=True,
            **_SWEEP,
        ),
    )
}


def plain_call(name: str, fn, *args, **kwargs):
    """Call ``fn``; stands in for ``Tracer.call`` when tracing is off."""
    return fn(*args, **kwargs)


def build_scenario(workload: Workload, spec: SyntheticSpec) -> engine.Scenario:
    base = scenario_gen.default_scenario(spec)
    changes = dict(replications=workload.replications, base_seed=REPLICATION_BASE_SEED)
    if not workload.sweep:
        changes.update(fleet_size=10, profile="normal")
    if not workload.flows:
        changes.update(background_flows=[])
    return dataclasses.replace(base, **changes)


def setup(workload: Workload, seed: int, call=plain_call):
    """Workload spec to a built routing table: the span ``setup_s`` times.

    Scenario generation, graph validation, the stop distance table, then one
    shortest path per background flow.
    """
    spec = workload.spec(seed)
    scenario = call("scenario_gen.generate", build_scenario, workload, spec)
    graph = scenario.graph
    report = call("netgraph.validate", netgraph.validate_graph, graph)
    if not report.ok:
        raise RuntimeError(f"{workload.name}: generated network failed validation:\n{report}")
    table = call("netgraph.table_build", netgraph.build_stop_distance_table, graph)
    for flow in scenario.background_flows:
        call(
            "netgraph.shortest_path",
            netgraph.shortest_path, graph, flow.origin_vertex, flow.destination_vertex,
        )
    return scenario, table


def run_unit(workload: Workload, scenario: engine.Scenario, jobs: int, call=plain_call) -> list:
    """One timed unit of work; returns every replication's record.

    ``engine`` names are looked up at call time so that the tracer's
    wrappers, when installed, see the call.
    """
    if workload.sweep:
        result = call(
            "engine.run_sweep", engine.run_sweep, scenario, FLEET_SIZES, PROFILES, jobs=jobs
        )
        return result.all_records()
    return engine.run_scenario(scenario, jobs=jobs).records
