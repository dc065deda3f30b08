"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import workload  # noqa: E402
from run import child_env  # noqa: E402


def _spans(rows, names):
    """rows: (name, start, end, parent index)."""
    return {
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows]),
        "end": np.array([r[2] for r in rows]),
        "parent": np.array([r[3] for r in rows]),
        "trial": np.zeros(len(rows), dtype=np.int64),
    }


def test_self_time_subtracts_direct_children_only():
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    parent = [-1, 0, 1, 0]
    assert layers.self_times(start, end, parent).tolist() == [50, 20, 10, 20]


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    start = [0, 1, 3, 8]
    end = [10, 5, 8, 14]
    parent = [-1, 0, 0, 0]
    # children cover [1, 10] of the parent once: 9 of its 10 units
    assert layers.self_times(start, end, parent).tolist()[0] == 1


def test_layer_metrics_on_a_synthetic_nest():
    names = ["cli.main", "suites.ssa.sample", "suites.ssa.run", "linalg.herm_eig",
             "kernel.eigh", "kernel.svd"]
    rows = [
        ("cli.main", 0, 1000, -1),
        ("suites.ssa.sample", 0, 100, 0),
        ("suites.ssa.run", 100, 400, 0),
        ("linalg.herm_eig", 150, 350, 2),
        ("kernel.svd", 160, 180, 3),
        ("kernel.svd", 180, 200, 3),
        ("kernel.svd", 200, 220, 3),
        ("kernel.eigh", 220, 320, 3),
    ]
    table = layers.SpanTable(_spans(rows, names))
    wanted = ["cli.self_s", "suites.self_s", "linalg.self_s", "kernel.self_s",
              "kernel.svd_per_eigh", "kernel.svd.calls", "linalg.herm_eig.self_s",
              "suites.ssa.ms_per_trial", "suites.sample_s", "channels.kraus_apply.calls",
              "trace.overhead_ratio"]
    values, absent = layers.layer_metrics(table, wanted, {"trace.overhead_ratio": 1.5})
    assert values["cli.self_s"] == pytest.approx(600e-9)
    assert values["suites.self_s"] == pytest.approx(200e-9)
    assert values["linalg.self_s"] == pytest.approx(40e-9)
    assert values["linalg.herm_eig.self_s"] == pytest.approx(40e-9)
    assert values["kernel.self_s"] == pytest.approx(160e-9)
    assert values["kernel.svd_per_eigh"] == 3.0
    assert values["kernel.svd.calls"] == 3
    assert values["suites.ssa.ms_per_trial"] == pytest.approx(400e-6)
    assert values["suites.sample_s"] == pytest.approx(100e-9)
    assert values["trace.overhead_ratio"] == 1.5
    assert values["channels.kraus_apply.calls"] == 0
    assert absent == ["channels.kraus_apply.calls"]


def _reference_entries():
    records = [
        {"checker": "ssa", "trial": 0, "slack": 0.25, "pass": True},
        {"checker": "ssa", "trial": 1, "slack": 0.5, "pass": True},
    ]
    entries = workload.check_records(records, ["ssa"], 2)
    reference = [
        {"key": key, "slack": entry["slack"], "pass": entry["pass"], "tolerance": 1e-8,
         "sha256": hashlib.sha256(entry["bytes"]).hexdigest()}
        for key, (_, entry) in entries.items()
    ]
    return entries, reference


def test_reference_comparison_accepts_matching_outputs():
    entries, reference = _reference_entries()
    assert workload.compare_reference(entries, reference) == (0, 0)


def test_wrong_reference_slack_counts_as_failure():
    entries, reference = _reference_entries()
    reference[1]["slack"] += 1e-6
    assert workload.compare_reference(entries, reference) == (1, 0)


def test_changed_bytes_within_tolerance_only_count_as_changed_records():
    entries, reference = _reference_entries()
    reference[0]["sha256"] = "0" * 64
    assert workload.compare_reference(entries, reference) == (0, 1)


def test_missing_or_failing_records_are_failures():
    records = [{"checker": "ssa", "trial": 0, "slack": float("inf"), "pass": True}]
    entries = workload.check_records(records, ["ssa"], 2)
    assert workload.failures(entries) == 2


def _child(tmp_path, seed, trace=None):
    argv = [sys.executable, os.path.join(BENCH, "workload.py"), "--workload", "check-d8",
            "--seed", str(seed), "--mode", "fixed", "--units", "1", "--workdir", str(tmp_path)]
    if trace:
        argv += ["--trace", str(tmp_path / trace)]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _calls(path):
    with np.load(path) as spans:
        table = layers.SpanTable(spans)
    return dict(zip(table.names, table.calls.tolist()))


def test_same_seed_repeats_outputs_and_call_counts(tmp_path):
    first = _child(tmp_path, 3, trace="a.npz")
    second = _child(tmp_path, 3, trace="b.npz")
    assert first["failed"] == second["failed"] == 0
    assert first["output_sha256"] == second["output_sha256"]
    assert first["herm_eig_repeats"] == second["herm_eig_repeats"]
    calls = _calls(tmp_path / "a.npz")
    assert calls == _calls(tmp_path / "b.npz")
    assert calls["kernel.eigh"] > 0
    assert calls["suites.ssa.run"] == workload.WORKLOADS["check-d8"]["unit_trials"]


def test_tracing_changes_no_output_and_other_seed_changes_inputs(tmp_path):
    traced = _child(tmp_path, 3, trace="a.npz")
    plain = _child(tmp_path, 3)
    other = _child(tmp_path, 4)
    assert plain["output_sha256"] == traced["output_sha256"]
    assert other["output_sha256"] != plain["output_sha256"]
    assert plain["ref_failed"] == other["ref_failed"] == 0
    assert plain["records_changed"] == 0
    assert workload.unit_seed(3, 0) != workload.unit_seed(4, 0)


def test_runner_fails_without_a_qelab_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-d8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
