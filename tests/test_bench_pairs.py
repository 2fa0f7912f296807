"""The benchmark pair writer's exit codes; no benchmark run is started."""

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ARGS = ["--parent", "HEAD", "--change", "HEAD", "--workload", "sweep", "--seed", "1", "--seconds", "1"]


def fake_runs(monkeypatch, broken: dict) -> list:
    """Replace the checkout export and the runs; run ``k`` returns ``broken.get(k)`` over a good run."""
    runs = []

    def export(rev, into):
        os.makedirs(into)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)

    def run_once(checkout, workload, seed, seconds):
        good = {"exit": 0, "correct": True, "attempted": 3, "failed": 0, "csv_sha256": "0" * 64,
                "metrics": {"wall_s": 1.0 + len(runs)}}
        runs.append(checkout)
        return {**good, **broken.get(len(runs) - 1, {})}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return runs


def test_fewer_than_two_pairs_is_a_usage_error_before_any_run(monkeypatch, tmp_path):
    runs = fake_runs(monkeypatch, {})
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(ARGS + ["--pairs", "1", "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2 and runs == []


def test_any_failed_run_exits_one_after_writing_the_file(monkeypatch, tmp_path):
    out = tmp_path / "b.json"
    fake_runs(monkeypatch, {})
    assert bench_pairs.main(ARGS + ["--pairs", "2", "--out", str(out)]) == 0
    for broken in ({"exit": 1}, {"correct": False}, {"failed": 1}):
        fake_runs(monkeypatch, {2: broken})
        assert bench_pairs.main(ARGS + ["--pairs", "2", "--out", str(out)]) == 1
        assert len(json.loads(out.read_text())["sets"][0]["runs"]) == 2


def test_same_records_needs_one_digest_on_every_run(monkeypatch, tmp_path):
    out = tmp_path / "b.json"
    for broken, same in (({}, True), ({3: {"csv_sha256": "1" * 64}}, False), ({0: {"csv_sha256": None}}, False)):
        fake_runs(monkeypatch, broken)
        assert bench_pairs.main(ARGS + ["--pairs", "2", "--out", str(out)]) == 0   # records may differ on purpose
        assert json.loads(out.read_text())["sets"][0]["same_records"] is same
    assert bench_pairs.same_records([{"parent": {"csv_sha256": None}, "change": {"csv_sha256": None}}]) is False
