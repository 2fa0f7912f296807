"""Exact-count channel: the counts of a traced run repeat exactly for a seed.

    python3 -m pytest -q bench/test_counts.py

Later changes may cite these counts (events by kind, insertion and selection
calls, the route-length histogram, stop-table entries) as exact evidence.
"""

import dataclasses
import os
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import harness  # noqa: E402
from savsim.metrics import records_to_csv  # noqa: E402
from workloads import WORKLOADS, usable_cpus  # noqa: E402

SEED = 3


def traced_counts(name: str, replications: int) -> tuple[dict, str]:
    workload = dataclasses.replace(WORKLOADS[name], trace_replications=replications)
    with tempfile.TemporaryDirectory() as worker_dir:
        tracer, records, _, _, table = harness.traced_unit(
            workload, SEED, workload.jobs(), worker_dir
        )
    return harness.exact_counts(tracer, table), records_to_csv(records)


def test_two_traced_runs_count_the_same():
    first, first_csv = traced_counts("sweep", 1)
    second, second_csv = traced_counts("sweep", 1)
    assert first == second
    assert first_csv == second_csv
    assert first["insert_calls"] > 0 and first["select_calls"] > 0
    assert first["events"]["background_edge_exit"] > 0
    assert first["table_entries"] == 14 * 13
    assert first["runtime_builds"] == 15


@pytest.mark.skipif(usable_cpus() < 2, reason="the pool path needs 2 usable CPUs")
def test_pool_workers_report_the_serial_counts():
    serial, serial_csv = traced_counts("sweep", 2)
    pooled, pooled_csv = traced_counts("sweep-jobs", 2)
    assert pooled_csv == serial_csv
    # the pool builds one runtime per worker chunk instead of one per cell
    assert pooled.pop("runtime_builds") >= serial.pop("runtime_builds")
    assert pooled == serial
