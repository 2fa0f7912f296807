"""Measurement passes, correctness gate and run record of the savsim benchmark.

``end_to_end`` times a workload with tracing off; ``traced`` runs a smaller
unit of the same workload twice, untraced then traced, and derives the
per-layer metrics.  Both return a ``Result`` whose ``line()`` is the JSON
object the benchmark prints last.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter

from savsim import dispatch, engine, oracle
from savsim.demand import TripRequest
from savsim.metrics import records_to_csv

from tracer import Tracer
from workloads import Workload, run_unit, setup

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

# event kinds as the engine names them today; spelled out so that a kind the
# engine drops reads as zero instead of breaking the benchmark
EVENT_KINDS = (
    "request_arrival",
    "sav_arrival_at_stop",
    "dwell_end",
    "background_inject",
    "background_edge_exit",
    "horizon_end",
)
BACKGROUND_KINDS = ("background_inject", "background_edge_exit")
LAYERS = ("scenario_gen", "netgraph", "demand", "traffic", "dispatch", "engine", "metrics")
TAIL_BEYOND = 10


# small helpers -----------------------------------------------------------

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_seconds() -> tuple[float, float]:
    """(this process, its reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # Linux: KiB


def tail(samples: list[float]) -> dict:
    """The sample at the highest percentile with 10 samples beyond it.

    With 10 or fewer samples no percentile qualifies; the maximum is
    returned, with none beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n, "samples": n, "beyond": n - 1 - k}


def differing_rows(got: str, want: str) -> int:
    """Replications whose CSV row differs; one row per replication."""
    a, b = got.splitlines()[1:], want.splitlines()[1:]
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def git_commit(root: str = ROOT) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(seed: int, jobs: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "jobs": jobs,
    }


class RepTimer:
    """Times every ``engine.simulate`` call, keyed by replication.

    The key is (fleet size, profile, replication index), so repeats of one
    replication across units can be combined.  Counts attempts and raises in
    this process: a replication that raises is a failed operation even
    though the sweep around it aborts.  Pool workers forked while the timer
    is on inherit it and append their samples to a file in ``worker_dir``,
    which ``collect_workers`` reads back.
    """

    def __init__(self, worker_dir: str | None = None) -> None:
        self.samples: dict[tuple, list[float]] = defaultdict(list)
        self.attempted = 0
        self.raised = 0
        self.worker_dir = worker_dir
        self._original = None

    def __enter__(self) -> "RepTimer":
        original = self._original = engine.simulate
        owner = os.getpid()

        def timed(scenario, index, *args, **kwargs):
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = original(scenario, index, *args, **kwargs)
            except BaseException:
                self.raised += 1
                raise
            took = perf_counter() - t0
            if os.getpid() == owner:
                self.samples[(scenario.fleet_size, scenario.profile, index)].append(took)
            elif self.worker_dir is not None:
                path = os.path.join(self.worker_dir, f"reps-{os.getpid()}.txt")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(f"{scenario.fleet_size} {scenario.profile} {index} {took!r}\n")
            return result

        engine.simulate = timed
        return self

    def __exit__(self, *exc) -> None:
        engine.simulate = self._original

    def collect_workers(self) -> None:
        for name in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, name)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    fleet, profile, index, took = line.split()
                    self.samples[(int(fleet), profile, int(index))].append(float(took))
            os.remove(path)

    def per_replication(self) -> list[float]:
        """One time per distinct replication: the median of its repeats."""
        return [statistics.median(v) for _, v in sorted(self.samples.items())]


@dataclasses.dataclass
class Result:
    workload: str
    trace: bool
    metrics: dict = dataclasses.field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    record: dict = dataclasses.field(default_factory=dict)
    spans: list | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def reject(self, problem: str, replications: int = 0) -> None:
        self.problems.append(problem)
        self.failed += replications

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def check_oracle(result: Result, scenario, table) -> None:
    """Every table entry against the split-graph Dijkstra; untimed."""
    t0 = perf_counter()
    mismatches = oracle.check_table(scenario.graph, table)
    result.record["oracle"] = {
        "entries": len(table), "mismatches": len(mismatches), "seconds": perf_counter() - t0,
    }
    if mismatches:
        result.reject(f"oracle: {len(mismatches)} table entries disagree, first {mismatches[0]}")


def run_pass(result: Result, workload: Workload, scenario, jobs: int, timer=None):
    """One unit with failure accounting; returns (records or None, wall seconds).

    With jobs=1 the timer counts the replications attempted and raised; on
    the pool path they happen in workers, so the planned count stands in.
    """
    planned = workload.cells() * scenario.replications
    counted = timer is not None and jobs == 1
    before = (timer.attempted, timer.raised) if counted else (0, 0)
    t0 = perf_counter()
    try:
        with timer if timer is not None else nullcontext():
            records = run_unit(workload, scenario, jobs)
    except Exception as exc:       # a failing replication aborts the unit
        records = None
        result.reject(f"unit raised {type(exc).__name__}: {exc}")
    wall = perf_counter() - t0
    if counted:
        result.attempted += timer.attempted - before[0]
        result.failed += timer.raised - before[1]
    else:
        result.attempted += planned
        if records is None:
            result.failed += planned
    if records is not None and len(records) != planned:
        result.reject(f"expected {planned} records, got {len(records)}", abs(planned - len(records)))
    return records, wall


def compare(result: Result, label: str, got: str, want: str) -> None:
    if got != want:
        result.reject(f"{label}: CSV digests differ", differing_rows(got, want))


# end-to-end pass ------------------------------------------------------------

def end_to_end(workload: Workload, seed: int, seconds: float) -> Result:
    """Time repeated units of one workload, tracing off.

    Runs at least ``workload.min_units`` units and more while ``seconds``
    allow, with a batch of set-ups before each unit so that ``setup_s``
    samples the same stretch of the run as ``wall_s``.  Every unit runs the
    same replications; each replication's time is the median of its
    repeats, so the number of samples behind ``rep_*`` is the same on
    every run.  On the pool path replications are timed in the workers.
    """
    jobs = workload.jobs()
    result = Result(workload.name, trace=False)
    setup_times: list[float] = []

    def setup_batch():
        for _ in range(workload.setups):
            t0 = perf_counter()
            built = setup(workload, seed)
            setup_times.append(perf_counter() - t0)
        return built

    started = perf_counter()
    scenario, table = setup_batch()
    check_oracle(result, scenario, table)

    reference = None
    if jobs > 1:
        # the jobs=1 CSV every pool unit must reproduce
        records, _ = run_pass(result, workload, scenario, 1)
        reference = records_to_csv(records) if records is not None else None

    os.makedirs(RESULTS_DIR, exist_ok=True)
    worker_dir = tempfile.mkdtemp(prefix="reps-", dir=RESULTS_DIR)
    timer = RepTimer(worker_dir)
    walls, cpus = [], []
    try:
        while True:
            cpu0 = cpu_seconds()
            records, wall = run_pass(result, workload, scenario, jobs, timer)
            cpu1 = cpu_seconds()
            if records is None:
                break
            walls.append(wall)
            cpus.append((cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]))
            csv = records_to_csv(records)
            if reference is None:
                reference = csv
            else:
                compare(result, f"unit {len(walls)} vs reference", csv, reference)
            if len(walls) >= workload.min_units and perf_counter() - started + wall > seconds:
                break
            setup_batch()
        timer.collect_workers()
    finally:
        shutil.rmtree(worker_dir, ignore_errors=True)

    reps = workload.cells() * scenario.replications
    if walls:
        wall_s = statistics.median(walls)
        result.put("wall_s", wall_s, "s")
        result.put("reps_per_s", reps / wall_s, "1/s")
        result.put("setup_s", statistics.median(setup_times), "s")
        if timer.samples:
            samples = timer.per_replication()
            result.put("rep_p50_s", statistics.median(samples), "s")
            # recorded, not gated: its ten-seed spread exceeds any allowed bound
            result.record["rep_tail"] = tail(samples)
        result.put("cpu_s", statistics.median(cpus), "s")
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.record.update({
        "units": len(walls),
        "replications_per_unit": reps,
        "unit_walls_s": walls,
        "unit_cpu_s": cpus,
        "setup_times_s": setup_times,
        "csv_sha256": sha256(reference) if reference is not None else None,
    })
    return result


# traced pass ---------------------------------------------------------------

def traced_unit(workload: Workload, seed: int, jobs: int, worker_dir: str | None = None):
    """Set up and run the traced unit; returns (tracer, records, wall, setup totals, table).

    The tracer is uninstalled and worker records are merged on return.
    """
    tracer = Tracer(worker_dir)
    tracer.install()
    try:
        scenario, table = setup(workload, seed, call=tracer.call)
        setup_totals = tracer.total_time_by_name()
        small = dataclasses.replace(scenario, replications=workload.trace_replications)
        t0 = perf_counter()
        records = run_unit(workload, small, jobs, call=tracer.call)
        wall = perf_counter() - t0
        tracer.call("metrics.csv", records_to_csv, records)
    finally:
        tracer.uninstall()
        tracer.merge_workers()
    return tracer, records, wall, setup_totals, table


def exact_counts(tracer: Tracer, table) -> dict:
    """Counts that repeat exactly for a seed; later changes may cite them."""
    return {
        "events": {k: tracer.events[k] for k in sorted(tracer.events)},
        "insert_calls": len(tracer.inserts),
        "insert_accepted": sum(accepted for _, _, accepted in tracer.inserts),
        "select_calls": tracer.calls_by_name()["dispatch.select"],
        "select_hits": tracer.counts["dispatch.select_hits"],
        "route_legs_histogram": {str(k): v for k, v in sorted(Counter(l for l, _, _ in tracer.inserts).items())},
        "table_entries": len(table),
        "runtime_builds": tracer.counts["engine.runtime_builds"],
        "requests": tracer.counts["demand.requests"],
    }


# ROADMAP's route-length axis: (bucket, most legs in it, legs of its probe route)
LEG_BUCKETS = (
    ("legs_le4", 4, 4), ("legs_le16", 16, 16), ("legs_le64", 64, 64), ("legs_gt64", None, 144),
)


def leg_bucket(legs: int) -> str:
    return next(name for name, top, _ in LEG_BUCKETS if top is None or legs <= top)


def probe_insert_us(graph, table, legs: int, seed: int, budget_s: float = 0.2) -> float:
    """Microseconds per ``try_insert_shared`` call on a synthetic route.

    The route is ``legs // 2`` back-to-back single-passenger rides between
    seeded stops, the shape long fleet-2 routes take; the call is repeated
    for at least ``budget_s`` seconds.
    """
    rng = random.Random(f"{seed}:probe:{legs}")
    stops = table.stop_ids()
    route = []
    for rid in range(legs // 2):
        a, b = rng.sample(stops, 2)
        route += [
            dispatch.RouteLeg(a, dispatch.PICKUP, rid, 1),
            dispatch.RouteLeg(b, dispatch.DROPOFF, rid, 1),
        ]
    policy = dispatch.DispatchPolicy()
    home = graph.stop(route[0].stop)
    sav = dispatch.Sav(
        0, policy.capacity, "normal", (home.edge, home.slack), route=route, status=dispatch.EN_ROUTE
    )
    a, b = rng.sample(stops, 2)
    candidate = TripRequest(legs, a, b, 0.0, 1)
    calls = 0
    t0 = perf_counter()
    while True:
        dispatch.try_insert_shared(policy, sav, candidate, table)
        calls += 1
        took = perf_counter() - t0
        if took >= budget_s:
            return took / calls * 1e6


def layer_metrics(result: Result, tracer: Tracer, graph, table, setup_totals: dict, seed: int) -> None:
    calls = tracer.calls_by_name()
    self_s = tracer.self_time_by_name()
    total = tracer.total_time_by_name()

    inserts = tracer.inserts
    accepted = sum(ok for _, _, ok in inserts)
    legs = [n for n, _, _ in inserts]
    result.put("dispatch.insert_calls", len(inserts), "count")
    result.put("dispatch.insert_accepted", accepted, "count")
    result.put("dispatch.insert_accept_ratio", accepted / len(inserts) if inserts else 0.0, "ratio")
    result.put("dispatch.insert_self_s", self_s.get("dispatch.insert", 0.0), "s")
    result.put("dispatch.insert_route_legs_p50", statistics.median(legs) if legs else 0, "legs")
    result.put("dispatch.insert_route_legs_max", max(legs, default=0), "legs")
    for bucket, _, probe_legs in LEG_BUCKETS:
        us = probe_insert_us(graph, table, probe_legs, seed)
        result.put(f"dispatch.insert_us_per_call.{bucket}", us, "us")
    traced_buckets = {}
    for n, took, _ in inserts:
        have = traced_buckets.setdefault(leg_bucket(n), [0, 0.0])
        have[0] += 1
        have[1] += took
    result.record["traced_insert_buckets"] = {
        name: {"calls": c, "us_per_call": s / c * 1e6} for name, (c, s) in traced_buckets.items()
    }

    selects = calls["dispatch.select"]
    result.put("dispatch.select_calls", selects, "count")
    result.put("dispatch.select_self_s", self_s.get("dispatch.select", 0.0), "s")
    result.put("dispatch.select_scanned_max", tracer.select_scanned_max, "count")
    hits = tracer.counts["dispatch.select_hits"]
    result.put("dispatch.select_hit_ratio", hits / selects if selects else 0.0, "ratio")

    result.put("netgraph.distance_calls", calls["netgraph.distance"], "count")
    result.put("netgraph.distance_s", total.get("netgraph.distance", 0.0), "s")
    result.put("netgraph.position_calls", calls["netgraph.position"], "count")
    result.put("netgraph.position_s", total.get("netgraph.position", 0.0), "s")
    result.put("netgraph.validate_s", setup_totals["netgraph.validate"], "s")
    result.put("netgraph.table_build_s", setup_totals["netgraph.table_build"], "s")
    result.put("netgraph.table_entries", len(table), "count")
    result.put("scenario_gen.generate_s", setup_totals["scenario_gen.generate"], "s")
    result.record["setup_shortest_path_s"] = setup_totals.get("netgraph.shortest_path", 0.0)

    events = tracer.events
    events_total = sum(events.values())
    background = sum(events[k] for k in BACKGROUND_KINDS)
    result.put("traffic.bg_events", background, "count")
    result.put("traffic.bg_event_share", background / events_total if events_total else 0.0, "ratio")
    result.put("traffic.edge_speed_calls", calls["traffic.edge_speed"], "count")

    result.put("engine.events_total", events_total, "count")
    for kind in EVENT_KINDS:
        result.put(f"engine.events.{kind}", events[kind], "count")
    result.put("engine.heap_peak", tracer.heap_peak, "count")
    result.put("engine.loop_self_s", self_s.get("engine.simulate", 0.0), "s")
    result.put("engine.runtime_builds", tracer.counts["engine.runtime_builds"], "count")

    result.put("demand.generate_s", total.get("demand.generate", 0.0), "s")
    result.put("demand.requests", tracer.counts["demand.requests"], "count")
    result.put("metrics.finalize_s", total.get("metrics.finalize", 0.0), "s")
    result.put("metrics.aggregate_s", total.get("metrics.aggregate", 0.0), "s")
    result.put("metrics.csv_s", total.get("metrics.csv", 0.0), "s")

    by_layer = tracer.self_time_by_layer()
    for layer in LAYERS:
        result.put(f"{layer}.self_s", by_layer.get(layer, 0.0), "s")


def traced(workload: Workload, seed: int) -> Result:
    jobs = workload.jobs()
    result = Result(workload.name, trace=True)
    scenario, table = setup(workload, seed)
    check_oracle(result, scenario, table)
    small = dataclasses.replace(scenario, replications=workload.trace_replications)

    reference = None
    if jobs > 1:
        records, _ = run_pass(result, workload, small, 1, RepTimer())
        reference = records_to_csv(records) if records is not None else None
    cpu0 = cpu_seconds()
    records, plain_wall = run_pass(result, workload, small, jobs, RepTimer())
    cpu1 = cpu_seconds()
    if records is None:
        return result
    plain = records_to_csv(records)
    if reference is not None:
        compare(result, "jobs=N vs jobs=1", plain, reference)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    worker_dir = tempfile.mkdtemp(prefix="workers-", dir=RESULTS_DIR)
    try:
        tracer, traced_records, traced_wall, setup_totals, traced_table = traced_unit(
            workload, seed, jobs, worker_dir
        )
    except Exception as exc:
        result.reject(f"traced unit raised {type(exc).__name__}: {exc}")
        result.failed += workload.cells() * small.replications
        return result
    finally:
        shutil.rmtree(worker_dir, ignore_errors=True)
    result.attempted += workload.cells() * small.replications
    compare(result, "traced vs untraced", records_to_csv(traced_records), plain)

    worker_cpu = (cpu1[1] - cpu0[1]) if jobs > 1 else (cpu1[0] - cpu0[0])
    layer_metrics(result, tracer, scenario.graph, traced_table, setup_totals, seed)
    result.put("engine.cell_wall_s", plain_wall / workload.cells(), "s")
    result.put("engine.worker_cpu_s", worker_cpu, "s")
    result.put("engine.pool_busy_frac", worker_cpu / (plain_wall * jobs), "ratio")
    result.put("trace.overhead_s", traced_wall - plain_wall, "s")
    result.record.update({
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "replications_per_unit": workload.cells() * small.replications,
        "csv_sha256": sha256(plain),
        "exact_counts": exact_counts(tracer, traced_table),
        "layer_self_s": tracer.self_time_by_layer(),
        "calls": dict(tracer.calls_by_name()),
        "self_s_by_name": tracer.self_time_by_name(),
        "aggregated_by_parent": tracer.leaf_by_parent(),
        "untraced_boundaries": tracer.missing,
    })
    result.spans = tracer.spans_for_file()
    return result


def save(result: Result, seed: int, seconds: float, jobs: int) -> str:
    """Write the run record (and, for a traced run, its spans) under results/."""
    directory = os.path.join(RESULTS_DIR, result.workload)
    os.makedirs(directory, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    stem = os.path.join(directory, f"seed{seed}-trace{int(result.trace)}-{stamp}-{os.getpid()}")
    doc = {
        "workload": result.workload,
        "trace": result.trace,
        "seconds": seconds,
        "environment": environment(seed, jobs),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        **result.record,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if result.spans is not None:
        # columns: name, start, end, parent span index, replication span index
        with gzip.open(stem + "-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(result.spans, fh, separators=(",", ":"))
    return stem + ".json"
