"""Command-line interface.

Verbs: validate a network file, generate a synthetic network + scenario, run
one scenario, sweep fleet sizes and profiles, or cross-check the routing
table against the split-graph oracle.  Exit codes: 0 success, 1 validation or
oracle failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, metrics, oracle, scenario_gen
from .errors import ConfigurationError, SimulationError, read_section, record_kinds
from .netgraph import (
    build_stop_distance_table,
    load_network,
    save_network,
    validate_graph,
    write_atomic,
)
from .traffic import DEFAULT_PROFILES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="savsim",
        description="Shared autonomous vehicle fleet simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_validate = sub.add_parser("validate", help="check a network file")
    p_validate.add_argument("--network", required=True)

    p_generate = sub.add_parser("generate", help="write a synthetic network and scenario")
    p_generate.add_argument("--out", default=None)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                            help="override a generator field, e.g. grid_spacing=800")

    scenario_flags = argparse.ArgumentParser(add_help=False)
    scenario_flags.add_argument("--scenario", required=True)
    scenario_flags.add_argument("--out", default=None)
    scenario_flags.add_argument("--seed", type=int, default=None)
    scenario_flags.add_argument("--replications", type=int, default=None)
    scenario_flags.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                                help="dotted override into the scenario, e.g. policy.overdue_threshold=900")
    scenario_flags.add_argument("--jobs", type=int, default=1)

    p_run = sub.add_parser("run", parents=[scenario_flags], help="run one scenario")
    p_run.add_argument("--verbose", action="store_true", help="also write an event log")
    p_run.add_argument("--occupancy", action="store_true", help="also write per-edge occupancy")

    p_sweep = sub.add_parser("sweep", parents=[scenario_flags], help="run a fleet size x profile sweep")
    p_sweep.add_argument("--fleet-sizes", default="2,4,6,8,10")
    p_sweep.add_argument("--profiles", default=",".join(DEFAULT_PROFILES))

    p_oracle = sub.add_parser("oracle-check", help="verify stop distances against the split-graph oracle")
    p_oracle.add_argument("--network", required=True)

    return parser


def _out_dir(arg: str | None) -> str:
    out = arg or os.environ.get("SAVSIM_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_sets(items: list[str]) -> dict[str, object]:
    """The KEY=VALUE pairs of repeated ``--set`` flags; a value that is not JSON is a string."""
    pairs = {}
    for item in items:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not KEY=VALUE")
        key, _, raw = item.partition("=")
        try:
            pairs[key] = json.loads(raw)
        except json.JSONDecodeError:
            pairs[key] = raw
        except (ValueError, RecursionError) as exc:   # an over-long integer, or nesting too deep
            raise ConfigurationError(f"override {key!r}: {exc}") from None
    return pairs


def _scenario_overrides(args) -> dict[str, object]:
    """Dotted-path scenario overrides from ``--set``, ``--seed`` and ``--replications``."""
    overrides = _parse_sets(args.set)
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.replications is not None:
        overrides["replications"] = args.replications
    return overrides


def _cmd_validate(args) -> int:
    report = validate_graph(load_network(args.network, validate=False))
    if report.ok:
        print("ok")
        return EXIT_OK
    print(report)
    return EXIT_FAIL


def _cmd_generate(args) -> int:
    fields = read_section("generator", {"seed": args.seed, **_parse_sets(args.set)},
                          record_kinds(scenario_gen.SyntheticSpec))
    spec = scenario_gen.SyntheticSpec(**fields)
    out = _out_dir(args.out)
    scenario = scenario_gen.default_scenario(spec)
    save_network(scenario.graph, os.path.join(out, "network.json"))
    doc = engine.scenario_to_dict(scenario)
    write_atomic(os.path.join(out, "scenario.json"), json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}/network.json and {out}/scenario.json")
    return EXIT_OK


def _cmd_run(args) -> int:
    scenario = engine.load_scenario(args.scenario, _scenario_overrides(args))
    out = _out_dir(args.out)
    result = engine.run_scenario(scenario, jobs=args.jobs, collect_log=args.verbose,
                                 collect_occupancy=args.occupancy)
    write_atomic(os.path.join(out, "replications.csv"), metrics.records_to_csv(result.records))
    write_atomic(os.path.join(out, "aggregate.csv"), metrics.aggregates_to_csv(
        [(scenario.name, scenario.fleet_size, scenario.profile, result.aggregates)]
    ))
    if args.verbose:
        logs = [(rep.record.replication, rep.log) for rep in result.replications]
        write_atomic(os.path.join(out, "events.csv"), metrics.events_to_csv(logs))
    if args.occupancy:
        rows = [row for rep in result.replications for row in rep.occupancy]
        write_atomic(os.path.join(out, "occupancy.csv"), metrics.occupancy_to_csv(rows))
    print(f"wrote {out}/replications.csv and {out}/aggregate.csv")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = engine.load_scenario(args.scenario, _scenario_overrides(args))
    try:
        fleet_sizes = [int(x) for x in args.fleet_sizes.split(",") if x]
    except ValueError:
        raise ConfigurationError(f"bad fleet sizes {args.fleet_sizes!r}")
    profiles = [p for p in args.profiles.split(",") if p]
    out = _out_dir(args.out)
    sweep = engine.run_sweep(scenario, fleet_sizes, profiles, jobs=args.jobs)
    write_atomic(os.path.join(out, "sweep.csv"), metrics.records_to_csv(sweep.all_records()))
    cells = [(scenario.name, fleet, profile, res.aggregates) for (fleet, profile), res in sweep.cells.items()]
    write_atomic(os.path.join(out, "sweep_aggregate.csv"), metrics.aggregates_to_csv(cells))
    print(f"wrote {out}/sweep.csv and {out}/sweep_aggregate.csv")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    graph = load_network(args.network)
    table = build_stop_distance_table(graph)
    mismatches = oracle.check_table(graph, table)
    if not mismatches:
        print(f"ok: {len(table)} stop pairs match the split-graph oracle")
        return EXIT_OK
    for a, b, got, want in mismatches[:20]:
        print(f"mismatch {a}->{b}: table {got!r} oracle {want!r}")
    print(f"{len(mismatches)} mismatching pairs")
    return EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    handlers = {
        "validate": _cmd_validate,
        "generate": _cmd_generate,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "oracle-check": _cmd_oracle_check,
    }
    try:
        return handlers[args.verb](args)
    except OSError as exc:
        print(f"i/o error: {getattr(exc, 'filename', None) or exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
