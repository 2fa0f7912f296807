"""Alternating parent/change runs of the benchmark, summarised as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --seed 424242 --seed 2718 \\
        --seconds 20 --pairs 10 --workload sweep --workload city-400m --out BENCH.json

Each commit is exported with ``git archive`` into its own directory, and
``bench/run.py --trace 0`` runs there, so both sides use their own
benchmark and simulator sources.  Each (workload, seed) set runs
``--pairs`` pairs; pair ``k`` runs the parent first when ``k`` is even and
the change first when it is odd.  The file records every run's end-to-end
metrics, and per set and metric each side's median and quartiles and the
number of pairs the change won (ties count for neither side), and
``same_records``: true only if every run of both sides wrote records with
one and the same non-null CSV digest.  It exits 1,
after writing the file, if any run exited non-zero, was not correct or
failed an operation; quartiles need ``--pairs`` of at least 2.  Records
that differ do not change the exit code, since a change may re-baseline
its outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: str) -> None:
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run: its result line and the records' CSV digest."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    digest = next((line.split()[2] for line in lines if line.startswith("csv sha256 ")), None)
    return {
        "exit": done.returncode,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "csv_sha256": digest,
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def same_records(runs: list[dict]) -> bool:
    """Whether every parent and change run has the same non-null records digest."""
    digests = {pair[side]["csv_sha256"] for pair in runs for side in ("parent", "change")}
    return len(digests) == 1 and None not in digests


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [r[side]["metrics"][name] for r in runs if name in r[side]["metrics"]]
                 for side in ("parent", "change")}
        if len(sides["parent"]) != len(runs) or len(sides["change"]) != len(runs):
            continue
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"better": direction, "parent": spread(sides["parent"]),
                     "change": spread(sides["change"]), "change_wins": wins, "pairs": len(runs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be >= 2 for quartiles, got {args.pairs}")

    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {}
        for side, rev in commits.items():
            checkouts[side] = os.path.join(scratch, side)
            export(rev, checkouts[side])
        with open(os.path.join(checkouts["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        sets = []
        for seed in args.seed:
            for workload in args.workload:
                runs = []
                for k in range(args.pairs):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                        print(f"{workload} seed {seed} pair {k} {side}: wall_s "
                              f"{pair[side]['metrics'].get('wall_s')}", file=sys.stderr)
                    runs.append(pair)
                sets.append({"workload": workload, "seed": seed, "same_records": same_records(runs),
                             "summary": summarise(runs, better), "runs": runs})

    doc = {
        "command": "python3 bench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "commits": commits,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "pairs": args.pairs,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "sets": sets,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    bad = [f"{s['workload']} seed {s['seed']} pair {k} {side}"
           for s in sets for k, pair in enumerate(s["runs"]) for side in ("parent", "change")
           if pair[side]["exit"] != 0 or not pair[side]["correct"] or pair[side]["failed"] > 0]
    for run in bad:
        print(f"failed run: {run}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
