import csv
import json

import pytest

from savsim import engine
from savsim.cli import main
from savsim.metrics import LogEntry, replay_shared_miles
from savsim.netgraph import load_network


SMALL = [
    "width=4000", "height=4000", "grid_spacing=2000",
    "peripheral_stop_count=4", "central_stop_count=2",
]


def generate_small(tmp_path, seed=0):
    out = tmp_path / "gen"
    argv = ["generate", "--out", str(out), "--seed", str(seed)]
    for item in SMALL:
        argv += ["--set", item]
    assert main(argv) == 0
    return out


def run_args(out_dir, scenario_path, extra=()):
    return [
        "run", "--scenario", str(scenario_path), "--out", str(out_dir),
        "--replications", "2",
        "--set", "fleet_size=2",
        "--set", "horizon=3600",
        "--set", "demand.horizon=3600",
        *extra,
    ]


class TestGenerateAndValidate:
    def test_generate_writes_files(self, tmp_path):
        out = generate_small(tmp_path)
        assert (out / "network.json").exists()
        assert (out / "scenario.json").exists()
        graph = load_network(str(out / "network.json"))
        assert len(list(graph.stops())) == 6

    def test_generate_rejects_bad_fields(self, tmp_path, capsys):
        for item, field in (("grid_spacng=800", "grid_spacng"), ("grid_spacing=NaN", "grid_spacing"),
                            ("central_stop_count=2.5", "central_stop_count"), ("seed=true", "seed")):
            assert main(["generate", "--out", str(tmp_path / "g"), "--set", item]) == 1
            assert field in capsys.readouterr().err

    def test_validate_ok(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        assert main(["validate", "--network", str(out / "network.json")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_network(self, tmp_path, capsys):
        doc = {
            "vertices": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 100.0, "y": 0.0}],
            "edges": [{"id": 10, "source": 1, "sink": 2, "free_flow_speed": 10.0, "capacity_vehicles": 5}],
            "stops": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--network", str(path)]) == 1
        assert "not_strongly_connected" in capsys.readouterr().out

    def test_validate_names_bad_record_field(self, tmp_path, capsys):
        good = json.loads((generate_small(tmp_path) / "network.json").read_text())
        capsys.readouterr()
        infinite_id = json.loads(json.dumps(good))
        infinite_id["vertices"][0]["id"] = float("inf")
        no_sink = json.loads(json.dumps(good))
        del no_sink["edges"][0]["sink"]
        nan_speed = json.loads(json.dumps(good))
        nan_speed["edges"][0]["free_flow_speed"] = float("nan")
        fractional_id = json.loads(json.dumps(good))
        fractional_id["vertices"][0]["id"] = 1.5
        boolean_x = json.loads(json.dumps(good))
        boolean_x["vertices"][0]["x"] = True
        for doc, field in ((infinite_id, "vertices[0].id"), (no_sink, "edges[0].sink"),
                           (nan_speed, "free_flow_speed"), (fractional_id, "vertices[0].id"),
                           (boolean_x, "vertices[0].x: expected a number")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            assert main(["validate", "--network", str(path)]) == 1
            err = capsys.readouterr().err
            assert field in err
            assert "Traceback" not in err


class TestRun:
    def test_run_writes_csvs(self, tmp_path):
        out = generate_small(tmp_path)
        run_out = tmp_path / "run"
        assert main(run_args(run_out, out / "scenario.json")) == 0
        assert (run_out / "replications.csv").exists()
        assert (run_out / "aggregate.csv").exists()
        lines = (run_out / "replications.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 replications

    def test_run_deterministic(self, tmp_path):
        out = generate_small(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(a, out / "scenario.json")) == 0
        assert main(run_args(b, out / "scenario.json")) == 0
        assert (a / "replications.csv").read_bytes() == (b / "replications.csv").read_bytes()
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()

    def test_run_verbose_and_occupancy(self, tmp_path):
        out = generate_small(tmp_path)
        run_out = tmp_path / "run"
        code = main(run_args(run_out, out / "scenario.json", extra=["--verbose", "--occupancy"]))
        assert code == 0
        events = (run_out / "events.csv").read_text().splitlines()
        assert events[0] == "replication,time_s,sav,event,request,stop,distance"
        assert len(events) > 1
        assert (run_out / "occupancy.csv").read_text().startswith("time_s,edge_id,occupancy")

    def test_verbose_run_is_one_pass(self, tmp_path, monkeypatch):
        out = generate_small(tmp_path)
        calls = []
        simulate = engine.simulate

        def counted(*args, **kwargs):
            calls.append(args[1])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate", counted)
        extra = ["--verbose", "--occupancy", "--replications", "3"]
        assert main(run_args(tmp_path / "one", out / "scenario.json", extra=extra)) == 0
        assert sorted(calls) == [0, 1, 2]
        monkeypatch.setattr(engine, "simulate", simulate)
        assert main(run_args(tmp_path / "two", out / "scenario.json", extra=[*extra, "--jobs", "2"])) == 0
        for name in ("replications.csv", "aggregate.csv", "events.csv", "occupancy.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_events_file_replays_shared_miles(self, tmp_path):
        out = generate_small(tmp_path)
        run_out = tmp_path / "run"
        extra = ["--verbose", "--replications", "3", "--set", "demand.outbound_rate=30"]
        assert main(run_args(run_out, out / "scenario.json", extra=extra)) == 0
        logs: dict[int, list[LogEntry]] = {}
        with open(run_out / "events.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                logs.setdefault(int(row["replication"]), []).append(LogEntry(
                    float(row["time_s"]), int(row["sav"]), row["event"],
                    int(row["request"]) if row["request"] else None,
                    int(row["stop"]) if row["stop"] else None,
                    float(row["distance"]),
                ))
        assert sorted(logs) == [0, 1, 2]
        result = engine.run_scenario(engine.load_scenario(str(out / "scenario.json"), {
            "replications": 3, "fleet_size": 2, "horizon": 3600, "demand.horizon": 3600,
            "demand.outbound_rate": 30,
        }))
        assert any(r.shared_miles_m > 0 for r in result.records)
        for record in result.records:
            assert replay_shared_miles(logs[record.replication]) == record.shared_miles_m

    def test_jobs_below_one_is_usage_error(self, tmp_path):
        out = generate_small(tmp_path)
        for verb in ("run", "sweep"):
            with pytest.raises(SystemExit) as exc:
                main([verb, "--scenario", str(out / "scenario.json"), "--jobs", "0"])
            assert exc.value.code == 2

    def test_bad_override_key(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        code = main([
            "run", "--scenario", str(out / "scenario.json"),
            "--out", str(tmp_path / "x"), "--set", "nonsense.knob=3",
        ])
        assert code == 1
        assert "no such field" in capsys.readouterr().err

    def test_capacity_below_party_size_names_the_field(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        code = main(run_args(tmp_path / "x", out / "scenario.json", extra=["--set", "policy.capacity=2"]))
        assert code == 1
        err = capsys.readouterr().err
        assert "policy.capacity 2 is below the largest party size 3" in err
        assert "replication" not in err

    def test_bad_scenario_file_names_the_field(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        doc = json.loads((out / "scenario.json").read_text())
        for section, field, value in (
            (None, "fleet_szie", 3),
            ("demand", "outbound_rate", float("nan")),
            (None, "horizon", float("inf")),
        ):
            bad = json.loads(json.dumps(doc))
            (bad[section] if section else bad)[field] = value
            path = out / "bad.json"
            path.write_text(json.dumps(bad))
            code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")])
            assert code == 1
            assert field in capsys.readouterr().err

    def test_huge_scenario_rejected_before_it_runs(self, tmp_path, capsys, monkeypatch):
        out = generate_small(tmp_path)
        monkeypatch.setattr(engine, "_Replication", None)   # a replication that starts fails the test
        for item, field in (("fleet_size=1000000000000000000", "fleet_size"), ("horizon=1e300", "horizon"),
                            ("demand.horizon=1e300", "demand.horizon")):
            code = main(["run", "--scenario", str(out / "scenario.json"), "--out", str(tmp_path / "x"),
                         "--set", item])
            assert code == 1
            err = capsys.readouterr().err
            assert "events" in err and field in err
        # every cell's runtime is built before any replication runs, so the
        # huge cell is rejected wherever it is listed
        for sizes in ("1000000000000000000,2", "2,1000000000000000000"):
            code = main(["sweep", "--scenario", str(out / "scenario.json"), "--out", str(tmp_path / "x"),
                         "--fleet-sizes", sizes])
            assert code == 1
            assert "fleet_size 1000000000000000000" in capsys.readouterr().err

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 3
        assert "absent.json" in capsys.readouterr().err

    def test_out_env_var(self, tmp_path, monkeypatch):
        out = generate_small(tmp_path)
        target = tmp_path / "envout"
        monkeypatch.setenv("SAVSIM_OUT", str(target))
        argv = [
            "run", "--scenario", str(out / "scenario.json"),
            "--replications", "1",
            "--set", "fleet_size=1", "--set", "horizon=1800", "--set", "demand.horizon=1800",
        ]
        assert main(argv) == 0
        assert (target / "replications.csv").exists()


class TestSweep:
    def test_sweep_row_count(self, tmp_path):
        out = generate_small(tmp_path)
        sweep_out = tmp_path / "sweep"
        code = main([
            "sweep", "--scenario", str(out / "scenario.json"),
            "--out", str(sweep_out),
            "--fleet-sizes", "1,2", "--profiles", "normal,aggressive",
            "--replications", "2",
            "--set", "horizon=3600", "--set", "demand.horizon=3600",
        ])
        assert code == 0
        rows = (sweep_out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2
        assert (sweep_out / "sweep_aggregate.csv").exists()

    def test_bad_fleet_sizes(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        code = main([
            "sweep", "--scenario", str(out / "scenario.json"),
            "--out", str(tmp_path / "s"), "--fleet-sizes", "two",
        ])
        assert code == 1


class TestOracleCheck:
    def test_generated_network_passes(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        assert main(["oracle-check", "--network", str(out / "network.json")]) == 0
        assert "match the split-graph oracle" in capsys.readouterr().out

    def test_too_few_stops(self, tmp_path):
        doc = {
            "vertices": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 100.0, "y": 0.0}],
            "edges": [
                {"id": 10, "source": 1, "sink": 2, "free_flow_speed": 10.0, "capacity_vehicles": 5},
                {"id": 11, "source": 2, "sink": 1, "free_flow_speed": 10.0, "capacity_vehicles": 5},
            ],
            "stops": [{"id": 0, "edge": 10, "slack": 10.0, "zone": "other"}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle-check", "--network", str(path)]) == 1


class TestUsage:
    def test_no_verb_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--nonsense"])
        assert exc.value.code == 2
