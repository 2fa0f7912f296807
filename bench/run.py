"""savsim benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The run record
goes to ``bench/results/<workload>/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_savsim() -> str | None:
    """Put the checkout's ``src/`` first on the path; an error message if unusable."""
    package = os.path.join(SRC, "savsim")
    if not os.path.isfile(os.path.join(package, "engine.py")):
        return f"no simulator sources at {package}; run from a full checkout"
    sys.path.insert(0, SRC)
    import savsim

    if os.path.dirname(os.path.abspath(savsim.__file__)) != package:
        return f"imported savsim from {savsim.__file__}, not from {package}"
    return None


def declared_metrics(trace: bool) -> list[str] | None:
    """Metric names BENCHMARK.json promises for this kind of run, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_savsim()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = workload.jobs()
    if workload.parallel and jobs < 2:
        print(f"bench: {workload.name} needs at least 2 usable CPUs, have {jobs}", file=sys.stderr)
        return 2

    if args.trace:
        result = harness.traced(workload, args.seed)
    else:
        result = harness.end_to_end(workload, args.seed, args.seconds)
    declared = declared_metrics(bool(args.trace))
    if declared is not None:
        missing = [name for name in declared if name not in result.metrics]
        extra = sorted(set(result.metrics) - set(declared))
        if missing or extra:
            result.reject(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
        else:
            result.metrics = {name: result.metrics[name] for name in declared}
    path = harness.save(result, args.seed, args.seconds, jobs)

    for problem in result.problems:
        print(f"FAIL {problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    tail = result.record.get("rep_tail")
    if tail:
        print(f"rep_tail_s {tail['value']:.6f} s at p{tail['percentile']:.2f} of "
              f"{tail['samples']} replications, {tail['beyond']} beyond it")
    print(f"csv sha256 {result.record.get('csv_sha256')}  record {os.path.relpath(path)}")
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
