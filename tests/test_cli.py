import csv
import json
import os
import stat

import pytest

from savsim import engine
from savsim.cli import main
from savsim.errors import InvalidInputError
from savsim.metrics import LogEntry, replay_shared_miles
from savsim.netgraph import load_network, save_network
from savsim.traffic import occupancy_rows

from randnets import star_network


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
        *extra,
    ]


class TestGenerateAndValidate:
    def test_generate_writes_files(self, tmp_path):
        out = generate_small(tmp_path)
        assert (out / "network.json").exists()
        assert (out / "scenario.json").exists()
        graph = load_network(str(out / "network.json"))
        assert len(list(graph.stops())) == 6

    def test_generate_rejects_an_unbounded_grid(self, tmp_path, capsys):
        argv = ["generate", "--out", str(tmp_path / "g"),
                "--set", "width=1e308", "--set", "height=1e308", "--set", "grid_spacing=1e-300"]
        assert main(argv) == 1
        assert "width, height and grid_spacing give inf grid vertices" in capsys.readouterr().err
        assert not (tmp_path / "g" / "network.json").exists()

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
        list_zone = json.loads(json.dumps(good))
        list_zone["stops"][0]["zone"] = ["other"]
        for doc, field in ((infinite_id, "vertices[0].id"), (no_sink, "edges[0].sink"),
                           (nan_speed, "free_flow_speed"), (fractional_id, "vertices[0].id"),
                           (boolean_x, "vertices[0].x: expected a number"),
                           (list_zone, "stops[0].zone: expected a string, got list")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            assert main(["validate", "--network", str(path)]) == 1
            err = capsys.readouterr().err
            assert field in err
            assert "Traceback" not in err


class TestRun:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_written_files_take_their_mode_from_the_umask(self, tmp_path, umask, mode):
        saved = os.umask(umask)
        try:
            out = generate_small(tmp_path)
            run_out = tmp_path / "run"
            assert main(run_args(run_out, out / "scenario.json", extra=["--verbose"])) == 0
        finally:
            os.umask(saved)
        paths = sorted(out.iterdir()) + sorted(run_out.iterdir())
        assert len(paths) == 5
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in paths} == {p.name: mode for p in paths}

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
        assert (run_out / "occupancy.csv").read_text().startswith("replication,time_s,edge_id,occupancy\n")

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
            "replications": 3, "fleet_size": 2, "horizon": 3600,
            "demand.outbound_rate": 30,
        }))
        assert any(r.shared_miles_m > 0 for r in result.records)
        for record in result.records:
            assert replay_shared_miles(logs[record.replication]) == record.shared_miles_m

    def test_occupancy_file_holds_each_replications_field_rows(self, tmp_path):
        out = generate_small(tmp_path)
        run_out = tmp_path / "run"
        assert main(run_args(run_out, out / "scenario.json", extra=["--occupancy", "--replications", "3"])) == 0
        blocks: dict[int, list[tuple[float, int, int]]] = {}
        with open(run_out / "occupancy.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["replication", "time_s", "edge_id", "occupancy"]
        for replication, t, edge, occupancy in rows:
            assert repr(float(t)) == t
            blocks.setdefault(int(replication), []).append((float(t), int(edge), int(occupancy)))
        assert list(blocks) == [0, 1, 2]   # one block per replication, in order
        scenario = engine.load_scenario(str(out / "scenario.json"), {
            "replications": 3, "fleet_size": 2, "horizon": 3600,
        })
        runtime = engine._Runtime(scenario)
        for index, block in blocks.items():
            field = list(occupancy_rows(engine.draw_index(scenario, runtime, index).traffic.timelines))
            assert field and block == field

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

    def test_capacity_too_large_for_a_float_runs_as_an_ample_one(self, tmp_path):
        out = generate_small(tmp_path)
        for name, capacity in (("huge", "1" + "0" * 400), ("ample", "1000")):
            assert main(run_args(tmp_path / name, out / "scenario.json",
                                 extra=["--set", f"policy.capacity={capacity}"])) == 0
        assert (tmp_path / "huge" / "replications.csv").read_bytes() \
            == (tmp_path / "ample" / "replications.csv").read_bytes()

    def test_party_size_below_one_names_the_field(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        code = main(run_args(tmp_path / "x", out / "scenario.json",
                             extra=["--set", 'demand.party_size_weights={"-2": 1.0}']))
        assert code == 1
        assert "party_size_weights" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["01", " 1", "+1"])
    def test_party_size_written_twice_names_the_key(self, tmp_path, capsys, key):
        # read as int, the key would name size 1 again and replace its weight
        out = generate_small(tmp_path)
        weights = json.dumps({"1": 0.5, key: 0.5, "2": 0.5})
        code = main(run_args(tmp_path / "x", out / "scenario.json",
                             extra=["--set", f"demand.party_size_weights={weights}"]))
        assert code == 1
        assert f"demand.party_size_weights: key {key!r} is not written as the decimal 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("item, message", [
        ("demand.party_size_weights=[1]", "demand.party_size_weights: expected an object, got list"),
        ('demand=[["outbound_rate",1],["inbound_rate",2]]', "scenario.demand: expected an object, got list"),
        ('behavior_profiles=[["normal",{"dwell_time":5}]]',
         "scenario.behavior_profiles: expected an object, got list"),
        ('background_flows={"x":{"origin_vertex":0}}', "scenario.background_flows: expected an array, got dict"),
        ("name=[1,2]", "scenario.name: expected a string, got list"),
        ("name=123", "scenario.name: expected a string, got 123"),
        ("network=5", "scenario.network: expected a string, got 5"),
        ('fleet_size="4"', "scenario.fleet_size: expected an integer, got '4'"),
    ])
    def test_container_field_of_the_wrong_json_type_names_the_field(self, tmp_path, capsys, item, message):
        # bare dict(), list(), str() and int() would coerce these into something else
        out = generate_small(tmp_path)
        code = main(run_args(tmp_path / "x", out / "scenario.json", extra=["--set", item]))
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_override_value_json_cannot_read_names_the_key(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        for item in ("name=" + "[" * 200000, "base_seed=" + "1" * 5000):
            assert main(run_args(tmp_path / "run", out / "scenario.json", extra=["--set", item])) == 1
            err = capsys.readouterr().err
            assert f"override {item.partition('=')[0]!r}: " in err
            assert "Traceback" not in err

    def test_demand_horizon_is_no_such_field(self, tmp_path, capsys):
        # demand is drawn over the scenario's horizon; there is no second window
        out = generate_small(tmp_path)
        code = main(run_args(tmp_path / "x", out / "scenario.json", extra=["--set", "demand.horizon=3600"]))
        assert code == 1
        assert "demand.horizon: no such field" in capsys.readouterr().err
        doc = json.loads((out / "scenario.json").read_text())
        assert "horizon" not in doc["demand"]
        doc["demand"]["horizon"] = doc["horizon"]
        (out / "old.json").write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(out / "old.json"), "--out", str(tmp_path / "x")]) == 1
        assert "demand.horizon: no such field" in capsys.readouterr().err

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
        # replications past a C ssize_t: the runtimes are checked before any index runs
        for item, field in (("fleet_size=1000000000000000000", "fleet_size"), ("horizon=1e300", "horizon"),
                            ("replications=1" + "0" * 400, "replications")):
            code = main(["run", "--scenario", str(out / "scenario.json"), "--out", str(tmp_path / "x"),
                         "--set", item])
            assert code == 1
            err = capsys.readouterr().err
            assert "events" in err and field in err
        # every cell's runtime is built before any replication runs and before
        # any pool, so the huge cell is rejected wherever it is listed
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
            "--set", "fleet_size=1", "--set", "horizon=1800",
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
            "--set", "horizon=3600",
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

    def test_repeated_fleet_size_rejected(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        code = main([
            "sweep", "--scenario", str(out / "scenario.json"),
            "--out", str(tmp_path / "s"), "--fleet-sizes", "2,2",
        ])
        assert code == 1
        assert "fleet size 2 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep.csv").exists()


class TestOracleCheck:
    def test_generated_network_passes(self, tmp_path, capsys):
        out = generate_small(tmp_path)
        assert main(["oracle-check", "--network", str(out / "network.json")]) == 0
        assert "match the split-graph oracle" in capsys.readouterr().out

    def test_too_few_stops(self, tmp_path, capsys):
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
        assert "need at least 2 stops" in capsys.readouterr().err

    def test_a_vertex_with_more_than_127_out_edges_exits_one_naming_it(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        save_network(star_network(128), str(path))
        assert main(["oracle-check", "--network", str(path)]) == 1
        assert "vertex 1000 has 128 out-edges" in capsys.readouterr().err


def overflowing_ring(path) -> None:
    """Write a two-way ring through 4 vertices at x = -1e308 and 1e308: its long sides, edges 0, 1, 4
    and 5, have length inf, which validation and the stop table refuse.  Its 4 stops sit on the 1 m
    sides."""
    ring_network(path, [(-1e308, 0.0), (1e308, 0.0), (1e308, 1.0), (-1e308, 1.0)])


def ring_network(path, corners) -> None:
    """Write a two-way ring through 4 ``corners``: edge ``2k`` runs from corner ``k`` to the next and
    edge ``2k + 1`` back, and stops 0 to 3 sit 0.5 m along edges 2, 3, 6 and 7."""
    edges = []
    for k in range(4):
        a, b = k, (k + 1) % 4
        edges += [(2 * k, a, b), (2 * k + 1, b, a)]
    zones = {2: "peripheral_housing", 3: "central_opportunity", 6: "peripheral_housing", 7: "central_opportunity"}
    doc = {
        "vertices": [{"id": vid, "x": x, "y": y} for vid, (x, y) in enumerate(corners)],
        "edges": [{"id": eid, "source": a, "sink": b, "free_flow_speed": 13.4, "capacity_vehicles": 20}
                  for eid, a, b in edges],
        "stops": [{"id": k, "edge": eid, "slack": 0.5, "zone": zone} for k, (eid, zone) in enumerate(zones.items())],
    }
    path.write_text(json.dumps(doc))


class TestOverflowingNetwork:
    def test_oracle_check_exits_one_naming_the_edge(self, tmp_path, capsys):
        overflowing_ring(tmp_path / "ring.json")
        with pytest.raises(InvalidInputError, match="edge 0 has length inf; the stop table takes only finite"):
            load_network(str(tmp_path / "ring.json"))
        assert main(["oracle-check", "--network", str(tmp_path / "ring.json")]) == 1
        out, err = capsys.readouterr()
        assert "edge 0 has length inf" in err and "Traceback" not in err and "ok:" not in out

    def test_run_exits_one_naming_the_edge(self, tmp_path, capsys):
        scenario = generate_small(tmp_path) / "scenario.json"
        overflowing_ring(tmp_path / "ring.json")
        argv = run_args(tmp_path / "r", scenario, ["--set", f"network={tmp_path / 'ring.json'}",
                                                     "--set", "background_flows=[]"])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "edge 0 has length inf" in err and "Traceback" not in err
        assert not (tmp_path / "r" / "replications.csv").exists()

    def test_validate_exits_one_naming_each_infinite_edge(self, tmp_path, capsys):
        overflowing_ring(tmp_path / "ring.json")
        assert main(["validate", "--network", str(tmp_path / "ring.json")]) == 1
        out = capsys.readouterr().out
        assert [line.split(";")[0] for line in out.splitlines()] == [
            f"edge_length: edge {eid} has length inf" for eid in (0, 1, 4, 5)]

    def test_validate_exits_one_naming_a_vertex_with_128_out_edges(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        save_network(star_network(128), str(path))
        assert main(["validate", "--network", str(path)]) == 1
        assert capsys.readouterr().out == (
            "out_degree: vertex 1000 has 128 out-edges; the stop table takes at most 127\n")

    def test_validate_exits_one_on_lengths_totalling_2_to_the_49_times_the_shortest(self, tmp_path, capsys):
        # sides of 2**47 - 1 m and 1 m, each both ways: exactly 2**49 m in all, the shortest edge 1 m
        side = 2.0**47 - 1
        ring_network(tmp_path / "ring.json", [(0.0, 0.0), (side, 0.0), (side, 1.0), (0.0, 1.0)])
        assert main(["validate", "--network", str(tmp_path / "ring.json")]) == 1
        assert capsys.readouterr().out == (
            "length_total: the edge lengths total 562949953421312.0, not below 2**49 times the shortest,"
            " edge 2 of length 1.0\n")


# file contents that json.load cannot read: bytes that are not UTF-8, and nesting past the recursion limit
UNREADABLE = [pytest.param(b"\xff{}", id="not-utf8"), pytest.param(b"[" * 200000, id="nested-200000")]


class TestUnreadableFiles:
    @pytest.mark.parametrize("content", UNREADABLE)
    @pytest.mark.parametrize("verb", ["validate", "oracle-check"])
    def test_network_file_exits_one_naming_it(self, tmp_path, capsys, verb, content):
        path = tmp_path / "network.json"
        path.write_bytes(content)
        assert main([verb, "--network", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: not a JSON document" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", UNREADABLE)
    @pytest.mark.parametrize("name", ["scenario.json", "network.json"])
    def test_run_exits_one_naming_the_file(self, tmp_path, capsys, name, content):
        out = generate_small(tmp_path)
        (out / name).write_bytes(content)
        capsys.readouterr()
        assert main(run_args(tmp_path / "run", out / "scenario.json")) == 1
        err = capsys.readouterr().err
        assert f"{out / name}: not a JSON document" in err
        assert "Traceback" not in err


class TestUsage:
    def test_no_verb_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--nonsense"])
        assert exc.value.code == 2

    def test_run_and_sweep_share_the_scenario_flags(self, capsys):
        for verb in ("run", "sweep"):
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            out = capsys.readouterr().out
            for flag in ("--scenario", "--out", "--seed", "--replications", "--jobs"):
                assert flag in out
            assert "dotted override into the scenario" in out
