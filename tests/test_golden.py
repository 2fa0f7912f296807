"""Golden lock: the default-scenario sweep must reproduce a committed CSV byte for byte.

Criterion 9 proves determinism within one build; this file proves that a
change to the code left the simulation's outputs unchanged.  The sweep runs
on the 90-vertex default grid; the digests of a one-replication run on the
400 m city also lock the driven pieces of every leg where many grid paths
tie, and the digest of a four-cell sweep there locks the flow routes and
stop table that a chunk's cells share.  The digests of one-replication
runs at four times the default demand lock shared-ride insertion into
routes of hundreds of legs, which the sweep never builds; those of one at
half the default demand, with 16 vehicles, lock dispatch to idle vehicles.
Regenerate the golden file only on purpose (and say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import os

from savsim.cli import main
from savsim.engine import run_scenario, run_sweep
from savsim.metrics import events_to_csv, records_to_csv
from savsim.scenario_gen import SyntheticSpec, default_scenario

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "sweep.csv")
FLEET_SIZES = [2, 4, 6, 8, 10]
PROFILES = ["cautious", "normal", "aggressive"]
REPLICATIONS = 3
# savsim generate --seed 3: the stock network (one record per line) and scenario files
GENERATED_SHA256 = {
    "network.json": "42bfb6c6abab7aaab2bbce11b37b0b1dfbe05040c4d1ecd6f4a682bc64b680e7",
    "scenario.json": "efd5718f353cbc6612b4044f30467b6b5a61b07f1baa6d832aa42196e2d24945",
}

# savsim generate with the 400 m city settings CI checks the oracle on, then
# savsim run --replications 1 --verbose on its scenario
CITY_SETTINGS = ["grid_spacing=400", "peripheral_stop_count=56", "central_stop_count=56"]
CITY_RUN_SHA256 = {
    "events.csv": "5328c35061c64a1234c11e9bef3c458cc3deb1b5f4bc3452bf570692d376e8da",
    "replications.csv": "20a82703595998aa0ed63eaf312a4e423d5d52785a298db70877dc9a4721555f",
}

# the stock scenario on the 400 m city, with its corner flows: SHA-256 of
# records_to_csv of a two-replication sweep of these fleets and profiles
CITY_SWEEP = ([4, 8], ["cautious", "aggressive"])
CITY_SWEEP_SHA256 = "06fb89589a32c100a0b161aa1f40876028f31f5aa0a0900d5854b65519bb0ab5"

# the default scenario at demand x4, and at demand x1/2, where most requests
# arrive while a vehicle is idle, one replication with the event log:
# fleet size -> SHA-256 of (records_to_csv, events_to_csv)
HIGH_DEMAND = {"outbound_rate": 36.0, "inbound_rate": 24.0}
HIGH_DEMAND_SHA256 = {
    2: ("369303f7985392ac9052b3f668fe5cfefc5b569b9313b98ee52d35ac3808ddd0",
        "b0797b8e5fed0e345309337c7a801dd3f854d8264c4fe8bcd3e839a7f31f2bc4"),
    8: ("1e0cc54040fed4e3b6d8166181a831a381967747cdca51260fbc4c3037a3ab25",
        "f1a6afbc86e5feb473298b1b1867218ee21e431f3ed3045258d1856981ad6267"),
}
HALF_DEMAND = {"outbound_rate": 4.5, "inbound_rate": 3.0}
HALF_DEMAND_SHA256 = {
    16: ("78dc7d2f047bc09ff8a447b669b48d8d03adf89b11e9505ab29bc7b15d97ef4a",
         "6ffd1d27f32b1396b62992b0b966b26a2a69d02cc772784abe1f6dd34ae5e02d"),
}


def golden_sweep_csv() -> str:
    scenario = dataclasses.replace(default_scenario(), replications=REPLICATIONS)
    return records_to_csv(run_sweep(scenario, FLEET_SIZES, PROFILES).all_records())


def test_sweep_matches_golden_csv():
    with open(GOLDEN, "r", encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert golden_sweep_csv() == want


def test_generated_files_match_their_digests(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--seed", "3"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GENERATED_SHA256}
    assert got == GENERATED_SHA256


def test_city_run_matches_its_digests(tmp_path):
    generate = ["generate", "--out", str(tmp_path / "city")]
    for item in CITY_SETTINGS:
        generate += ["--set", item]
    assert main(generate) == 0
    assert main(["run", "--scenario", str(tmp_path / "city" / "scenario.json"), "--replications", "1",
                 "--verbose", "--out", str(tmp_path / "run")]) == 0
    got = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() for name in CITY_RUN_SHA256}
    assert got == CITY_RUN_SHA256


def test_city_sweep_matches_its_digest():
    spec = SyntheticSpec(grid_spacing=400, peripheral_stop_count=56, central_stop_count=56)
    scenario = dataclasses.replace(default_scenario(spec), replications=2)
    records = run_sweep(scenario, *CITY_SWEEP).all_records()
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == CITY_SWEEP_SHA256


def test_high_demand_runs_match_their_digests():
    base = default_scenario()
    for rates, want in ((HIGH_DEMAND, HIGH_DEMAND_SHA256), (HALF_DEMAND, HALF_DEMAND_SHA256)):
        demand = dataclasses.replace(base.demand, **rates)
        got = {}
        for fleet_size in want:
            scenario = dataclasses.replace(base, demand=demand, fleet_size=fleet_size, replications=1)
            result = run_scenario(scenario, collect_log=True)
            logs = [(rep.record.replication, rep.log) for rep in result.replications]
            got[fleet_size] = tuple(hashlib.sha256(text.encode()).hexdigest()
                                    for text in (records_to_csv(result.records), events_to_csv(logs)))
        assert got == want


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(golden_sweep_csv())
    print(f"wrote {GOLDEN}")
