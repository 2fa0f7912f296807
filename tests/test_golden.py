"""Golden lock: the default-scenario sweep must reproduce a committed CSV byte for byte.

Criterion 9 proves determinism within one build; this file proves that a
change to the code left the simulation's outputs unchanged.  Regenerate the
golden file only on purpose (and say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import os

from savsim.engine import run_sweep
from savsim.metrics import records_to_csv
from savsim.scenario_gen import default_scenario

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "sweep.csv")
FLEET_SIZES = [2, 4, 6, 8, 10]
PROFILES = ["cautious", "normal", "aggressive"]
REPLICATIONS = 3


def golden_sweep_csv() -> str:
    scenario = dataclasses.replace(default_scenario(), replications=REPLICATIONS)
    return records_to_csv(run_sweep(scenario, FLEET_SIZES, PROFILES).all_records())


def test_sweep_matches_golden_csv():
    with open(GOLDEN, "r", encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert golden_sweep_csv() == want


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(golden_sweep_csv())
    print(f"wrote {GOLDEN}")
