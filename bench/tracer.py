"""Layer tracing for the savsim benchmark, installed from outside ``src/``.

``Tracer.install`` replaces the names the simulator looks up at call time
(``engine.try_insert_shared``, ``engine.heappush``, the distance-table
methods, ...) with wrappers that record spans and counts, and
``Tracer.uninstall`` puts the originals back.  Nothing in ``src/savsim``
changes.

Two kinds of record:

* a **span** per call at a layer boundary: name, start, end, the index of
  the span that caused it, and the replication it belongs to (the index of
  the enclosing ``engine.simulate`` span, which plays the role of a
  request id);
* an **aggregate** per (parent span, name) for calls too frequent to store
  one by one (stop-table lookups, ``edge_speed``): call count and seconds.

A span's self time is its duration minus the time its child spans and
aggregated calls cover.  The layer is the part of the name before the
first dot, which is the ``src/savsim`` module the call belongs to.

Replications that run in pool workers are traced too when the pool forks
(the default start method on Linux): each worker inherits the wrappers,
starts an empty record at fork, and appends one JSON line per finished
replication to a file in ``worker_dir``; ``merge_workers`` folds those into
the parent's record, hanging each worker replication under the span that
was open in the parent when the worker was forked.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

from savsim import engine, netgraph

NAME, START, END, PARENT, COVERED, TRACE = range(6)


class Tracer:
    def __init__(self, worker_dir: str | None = None) -> None:
        self.worker_dir = worker_dir
        self.active = False
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf: dict[tuple[int, str], list] = {}
        self.counts: Counter = Counter()
        self.events: Counter = Counter()
        self.heap_peak = 0
        self.select_scanned_max = 0
        self.inserts: list[tuple[int, float, bool]] = []   # (legs, seconds, accepted)
        self.fork_parent = -1
        self.worker_pid: int | None = None

    # span plumbing -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        trace = self.spans[parent][TRACE] if parent >= 0 else -1
        if name == "engine.simulate":
            trace = idx
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, trace])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        now = perf_counter()
        span = self.spans[idx]
        span[END] = now
        self.stack.pop()
        took = now - span[START]
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][COVERED] += took
        return took

    def add_leaf(self, name: str, seconds: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        rec = self.leaf.get((parent, name))
        if rec is None:
            self.leaf[(parent, name)] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds
        if parent >= 0:
            self.spans[parent][COVERED] += seconds

    # wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result)
            return result
        return traced

    def _aggregated(self, name: str, fn):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_leaf(name, perf_counter() - t0)
        return traced

    # counters are looked up on self at call time: a forked worker replaces them

    def _counted(self, key: str, fn):
        def traced(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return traced

    def _heappush(self, fn):
        def traced(heap, item):
            fn(heap, item)
            kind = item[2] if isinstance(item, tuple) and len(item) > 2 else "other"
            self.events[kind if isinstance(kind, str) else "other"] += 1
            if len(heap) > self.heap_peak:
                self.heap_peak = len(heap)
        return traced

    def _select(self, fn):
        def traced(policy, pending, sav, now, pickup_distance):
            try:
                scanned = len(pending)
            except TypeError:
                scanned = 0
            if scanned > self.select_scanned_max:
                self.select_scanned_max = scanned
            idx = self.begin("dispatch.select")
            try:
                rid = fn(policy, pending, sav, now, pickup_distance)
            finally:
                self.end(idx)
            self.counts["dispatch.select_hits"] += rid is not None
            return rid
        return traced

    def _insert(self, fn):
        def traced(policy, sav, candidate, table):
            legs = len(sav.route)
            idx = self.begin("dispatch.insert")
            try:
                result = fn(policy, sav, candidate, table)
            finally:
                took = self.end(idx)
            self.inserts.append((legs, took, result is not None))
            return result
        return traced

    def _simulate(self, fn):
        def traced(*args, **kwargs):
            idx = self.begin("engine.simulate")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                if self.worker_pid == os.getpid() and not self.stack:
                    self._flush_worker()
        return traced

    def _generate_requests(self, fn):
        def counted(requests):
            self.counts["demand.requests"] += len(requests)
        return self._span("demand.generate", fn, counted)

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:        # the program no longer has this boundary
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark traces."""
        if self.active:
            raise RuntimeError("tracer already installed")
        table = netgraph.StopDistanceTable
        patches = [
            (engine, "simulate", self._simulate),
            (engine, "run_scenario", lambda f: self._span("engine.run_scenario", f)),
            (engine, "generate_requests", self._generate_requests),
            (engine, "select_next_request", self._select),
            (engine, "try_insert_shared", self._insert),
            (engine, "finalize", lambda f: self._span("metrics.finalize", f)),
            (engine, "aggregate", lambda f: self._span("metrics.aggregate", f)),
            (engine, "heappush", self._heappush),
            (engine, "edge_speed", lambda f: self._aggregated("traffic.edge_speed", f)),
            # every _Runtime build validates its graph exactly once
            (engine, "validate_graph",
             lambda f: self._counted("engine.runtime_builds", self._span("netgraph.validate", f))),
            (engine, "build_stop_distance_table", lambda f: self._span("netgraph.table_build", f)),
            (engine, "shortest_path", lambda f: self._span("netgraph.shortest_path", f)),
            (table, "distance", lambda f: self._aggregated("netgraph.distance", f)),
            (table, "distance_from_position", lambda f: self._aggregated("netgraph.position", f)),
            (table, "position_path", lambda f: self._aggregated("netgraph.position", f)),
        ]
        for owner, attr, wrapper in patches:
            self._patch(owner, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.active = False

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; for calls the benchmark makes itself."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # pool workers --------------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active or self.worker_dir is None:
            return
        fork_parent = self.stack[-1] if self.stack else -1
        self._reset()
        self.fork_parent = fork_parent
        self.worker_pid = os.getpid()

    def _flush_worker(self) -> None:
        record = {
            "fork_parent": self.fork_parent,
            "spans": self.spans,
            "leaf": [[p, n, c, s] for (p, n), (c, s) in self.leaf.items()],
            "counts": self.counts,
            "events": self.events,
            "heap_peak": self.heap_peak,
            "select_scanned_max": self.select_scanned_max,
            "inserts": self.inserts,
        }
        path = os.path.join(self.worker_dir, f"worker-{self.worker_pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fork_parent, pid = self.fork_parent, self.worker_pid
        self._reset()
        self.fork_parent, self.worker_pid = fork_parent, pid

    def merge_workers(self) -> int:
        """Fold the replications traced in pool workers into this record."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return 0
        merged = 0
        for name in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, name)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    self._merge_record(json.loads(line))
                    merged += 1
            os.remove(path)
        return merged

    def _merge_record(self, rec: dict) -> None:
        offset = len(self.spans)

        def remap(i: int) -> int:
            return rec["fork_parent"] if i < 0 else i + offset

        for span in rec["spans"]:
            span[PARENT] = remap(span[PARENT])
            span[TRACE] = span[TRACE] + offset if span[TRACE] >= 0 else -1
            self.spans.append(span)
        for parent, name, calls, seconds in rec["leaf"]:
            key = (remap(parent), name)
            have = self.leaf.setdefault(key, [0, 0.0])
            have[0] += calls
            have[1] += seconds
        self.counts.update(rec["counts"])
        self.events.update(rec["events"])
        self.heap_peak = max(self.heap_peak, rec["heap_peak"])
        self.select_scanned_max = max(self.select_scanned_max, rec["select_scanned_max"])
        self.inserts.extend(tuple(x) for x in rec["inserts"])

    # summaries -------------------------------------------------------------

    def self_time_by_name(self) -> dict[str, float]:
        """Self seconds per span or aggregate name, summed over all calls."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += (span[END] - span[START]) - span[COVERED]
        for (_, name), (_, seconds) in self.leaf.items():
            out[name] += seconds
        return dict(out)

    def total_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += span[END] - span[START]
        for (_, name), (_, seconds) in self.leaf.items():
            out[name] += seconds
        return dict(out)

    def calls_by_name(self) -> Counter:
        out = Counter(span[NAME] for span in self.spans)
        for (_, name), (calls, _) in self.leaf.items():
            out[name] += calls
        return out

    def leaf_by_parent(self) -> dict[str, list]:
        """Aggregated calls grouped by the name of the span that made them."""
        out: dict[str, list] = {}
        for (parent, name), (calls, seconds) in self.leaf.items():
            key = f"{self.spans[parent][NAME] if parent >= 0 else '-'}>{name}"
            have = out.setdefault(key, [0, 0.0])
            have[0] += calls
            have[1] += seconds
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time_by_name().items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def spans_for_file(self) -> list[list]:
        return [[s[NAME], round(s[START], 7), round(s[END], 7), s[PARENT], s[TRACE]] for s in self.spans]
