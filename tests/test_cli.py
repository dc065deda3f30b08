"""End-to-end tests of the ``qelab`` command line driver (subprocess level)."""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qelab import checks, cli, suites
from qelab.channels import random_channel
from qelab.errors import DimMismatch, SingularTerm
from qelab.linalg import kron
from qelab.results import as_record, records_to_json
from qelab.serialize import serialize_instance, serialize_value
from qelab.states import (
    DensityMatrix,
    MarkovSpec,
    markov_state,
    random_density,
    regularize,
)
from qelab.suites import SUITES, run_trial
from qelab.tolerances import DEFAULT_EPS, TOL_INEQ
from test_suites import _flat_reference, _zero_channel, failing_at
from helpers import random_tripartite

CLI = [sys.executable, "-m", "qelab.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def _write_markov_spec(path, seed=0):
    rng = np.random.default_rng(seed)
    spec = MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(0.6, 0.4),
        ab_factors=(
            regularize(random_density(4, rng), 1e-3),
            regularize(random_density(2, rng), 1e-3),
        ),
        bc_factors=(
            regularize(random_density(2, rng), 1e-3),
            regularize(random_density(4, rng), 1e-3),
        ),
    )
    path.write_text(json.dumps(serialize_value(spec)))
    return spec


def test_check_single_suite_passes():
    proc = run_cli("check", "--suite", "ssa", "--dims", "2,2,2",
                   "--trials", "10", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    assert len(records) == 10
    assert all(r["pass"] for r in records)
    assert "[ssa]" in proc.stderr and "PASS" in proc.stderr


def test_a_suite_named_twice_runs_once(capsys):
    # the report and the summary lines of --suite ssa,ssa are those of --suite ssa
    runs = [_main(["check", "--suite", suite, "--trials", "2", "--seed", "7"], capsys)
            for suite in ("ssa", "ssa,ssa", " ssa , ssa")]
    assert runs[1] == runs[2] == runs[0]
    assert runs[0][0] == cli.EXIT_OK
    assert [r["trial"] for r in json.loads(runs[0][1])] == [0, 1]
    assert runs[0][2].count("[ssa]") == 1


def test_a_repeated_suite_keeps_the_order_it_was_first_named(capsys):
    code, out, err = _main(["check", "--suite", "ssa,monotonicity,ssa", "--trials", "1"], capsys)
    assert code == cli.EXIT_OK
    assert [r["checker"] for r in json.loads(out)] == ["ssa", "monotonicity"]
    assert [line.split()[0] for line in err.splitlines()] == ["[ssa]", "[monotonicity]"]


def test_check_rejects_bad_config():
    assert run_cli("check", "--suite", "ssa", "--trials", "0").returncode == 2
    assert run_cli("check", "--suite", "nope").returncode == 2
    assert run_cli("check", "--suite", "ssa", "--dims", "2,x").returncode == 2


def test_check_rejects_bad_dims_before_any_trial():
    # the first suites take any dims; ssa, seventh in order, needs three
    proc = run_cli("check", "--suite", "all", "--dims", "2,2", "--trials", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "[renyi-monotone]" not in proc.stderr
    assert "exactly 3 subsystem dims" in proc.stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tol_is_a_config_error(tol):
    commands = [
        ("check", "--suite", "ssa", "--trials", "1"),
        ("trotter", "--trials", "1", "--nmax", "2"),
        ("explore", "cmi-petz", "--trials", "2"),
    ]
    for command in commands:
        proc = run_cli(*command, f"--tol={tol}")
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stdout == ""
        assert "--tol must be positive and finite" in proc.stderr


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_check_nmax_below_one_is_a_config_error(nmax):
    for command in (("check", "--suite", "trotter-bound"), ("trotter",)):
        proc = run_cli(*command, "--trials", "1", "--nmax", nmax)
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stdout == ""
        assert "--nmax must be >= 1" in proc.stderr


def _assert_config_error(proc, command):
    assert proc.returncode == 2, (command, proc.stderr)
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error:"), (command, proc.stderr)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_alpha_is_a_config_error(bad):
    for suite in ("dw-alpha", "sbw-limit"):
        command = ("check", "--suite", suite, "--trials", "1", f"--alpha=0.5,{bad}")
        proc = run_cli(*command)
        _assert_config_error(proc, command)
        assert "--alpha values must be finite" in proc.stderr


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_t_samples_is_a_config_error(bad, tmp_path):
    spec = tmp_path / "spec.json"
    _write_markov_spec(spec)
    commands = [
        ("check", "--suite", "all", "--trials", "1", f"--t-samples=0.3,{bad}"),
        ("markov", str(spec), f"--t-samples=0.3,{bad}"),
    ]
    for command in commands:
        proc = run_cli(*command)
        _assert_config_error(proc, command)
        assert "--t-samples values must be finite" in proc.stderr


@pytest.mark.parametrize("command", [
    ["check", "--suite", "dw-alpha", "--trials", "1", "--alpha="],
    ["check", "--suite", "markov-roundtrip", "--trials", "1", "--t-samples="],
    ["markov", "SPEC", "--t-samples="],
])
def test_an_empty_grid_flag_is_a_config_error(command, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    _write_markov_spec(spec)
    command = [str(spec) if arg == "SPEC" else arg for arg in command]
    code, out, err = _main(command, capsys)
    assert (code, out) == (cli.EXIT_CONFIG, ""), err
    assert err.startswith("config error: cannot parse --") and len(err.splitlines()) == 1, err


def test_trotter_state_file_with_nan_is_a_config_error(tmp_path):
    state = random_tripartite((2, 2, 2), np.random.default_rng(5))
    blob = serialize_value(state)
    blob["re"][0][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(blob))
    proc = run_cli("trotter", str(path), "--nmax", "4")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "NaN or infinite" in proc.stderr


def test_unexpected_exception_exits_internal_error(monkeypatch, capsys):
    def boom(inst, tol, opts):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.SUITES, "ssa", dataclasses.replace(cli.SUITES["ssa"], run=boom))
    code = cli.main(["check", "--suite", "ssa", "--trials", "1"])
    assert code == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err


@pytest.mark.parametrize("kind, breaks, message", [
    ("ptrace-petz", _flat_reference, "states live on different dims"),
    ("stronger-mono", _zero_channel, "channel output of the reference has ~zero"),
])
def test_an_error_inside_an_exploration_chunk_is_its_trials_error(
    kind, breaks, message, monkeypatch, capsys
):
    # trial 4 of the first chunk breaks, where the chunk stacks (stronger-mono) or cannot
    # (ptrace-petz); the report is the one a one-trial chunk gives: exit 2, one error line
    monkeypatch.setitem(cli.EXPLORATIONS, kind, failing_at(kind, 4, breaks))
    outcomes = []
    for size in (1, suites.CHUNK_TRIALS):
        monkeypatch.setattr(suites, "CHUNK_TRIALS", size)
        outcomes.append(_main(["explore", kind, "--trials", "9", "--seed", "3"], capsys))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"error: {kind} trial 4: {message}")
    assert len(err.splitlines()) == 1


def test_check_two_runs_byte_identical():
    args = ("check", "--suite", "overlap-chain,ssa", "--trials", "4", "--seed", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.fixture(scope="module")
def all_suites_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("all") / "all.json"
    assert cli.main(["check", "--suite", "all", "--trials", "2", "--seed", "5",
                     "--out", str(out)]) == cli.EXIT_OK
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", list(cli.SUITES))
def test_check_records_do_not_depend_on_the_other_suites(name, all_suites_records, tmp_path):
    # spectra cached on shared operator objects must carry no state between
    # trials or suites: one suite alone reports what it reports inside "all"
    out = tmp_path / "one.json"
    assert cli.main(["check", "--suite", name, "--trials", "2", "--seed", "5",
                     "--out", str(out)]) == cli.EXIT_OK
    alone = json.loads(out.read_text())
    assert len(alone) == 2
    assert alone == [r for r in all_suites_records if r["checker"] == alone[0]["checker"]]


def test_check_seed_env_override():
    base = run_cli("check", "--suite", "ssa", "--trials", "3", "--seed", "8")
    overridden = run_cli(
        "check", "--suite", "ssa", "--trials", "3", "--seed", "0",
        env_extra={"QEL_SEED": "8"},
    )
    assert overridden.stdout == base.stdout
    bad = run_cli("check", "--suite", "ssa", "--trials", "1",
                  env_extra={"QEL_SEED": "not-an-int"})
    assert bad.returncode == 2


def test_check_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli("check", "--suite", "golden-thompson", "--trials", "3",
                   "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["checker", "dims", "seed", "trial"]
    assert header[-2:] == ["slack", "pass"]
    assert any(h.startswith("quantity:") for h in header)
    assert len(lines) == 4


def test_check_failure_dumps_worst_instance_and_replays(tmp_path):
    out = tmp_path / "rows.json"
    proc = run_cli(
        "check", "--suite", "sbw-limit", "--trials", "2", "--seed", "5",
        "--alpha", "0.5,0.25", "--out", str(out),
    )
    assert proc.returncode == 1
    dump = out.with_suffix(".json.worst.json")
    assert dump.exists()
    payload = json.loads(dump.read_text())
    assert payload["checker"] == "sbw-limit"
    failing = [r for r in json.loads(out.read_text()) if not r["pass"]]
    worst_slack = min(r["slack"] for r in failing)

    replay = run_cli("replay", str(dump))
    assert replay.returncode == 1
    (record,) = json.loads(replay.stdout)
    assert record["slack"] == worst_slack


def test_sbw_limit_runs_the_alpha_grid_made_descending(tmp_path, monkeypatch, capsys):
    # both checkers receive the grid as written, and sbw-limit runs each order once, in
    # descending order; the dump records the grid once, under "alphas".  Each checker is
    # called once, on the stack of both trials.
    grids = {}
    for checker in ("dw_alpha_profile", "check_sbw_limit"):
        real = getattr(checks, checker)

        def spy(*args, _real=real, _name=checker, **kwargs):
            grids.setdefault(_name, []).append(args[3] if len(args) > 3 else kwargs["alphas"])
            return _real(*args, **kwargs)

        monkeypatch.setattr(checks, checker, spy)
    out = tmp_path / "rows.json"
    argv = ["check", "--suite", "dw-alpha,sbw-limit", "--alpha", "0.5,0.9,0.5",
            "--trials", "2", "--seed", "3", "--out", str(out)]
    code, _, _ = _main(argv, capsys)
    assert code == cli.EXIT_FAILED
    assert grids == {"dw_alpha_profile": [[0.5, 0.9, 0.5]], "check_sbw_limit": [[0.5, 0.9, 0.5]]}
    records = json.loads(out.read_text())
    for record in records:
        if record["checker"] == "sbw-limit":
            assert sorted(k for k in record["quantities"] if k.startswith("e_0")) == [
                "e_0.5", "e_0.9"]
    dump = json.loads(out.with_suffix(".json.worst.json").read_text())
    assert dump["opts"] == {"alphas": [0.5, 0.9, 0.5]}
    code, replayed, _ = _main(["replay", str(out.with_suffix(".json.worst.json"))], capsys)
    assert code == cli.EXIT_FAILED
    (record,) = json.loads(replayed)
    assert record in records and record["trial"] == dump["trial"]


def test_markov_command_reports_residuals(tmp_path):
    spec_path = tmp_path / "spec.json"
    _write_markov_spec(spec_path, seed=1)
    proc = run_cli("markov", str(spec_path))
    assert proc.returncode == 0, proc.stderr
    assert "markov_like = True" in proc.stderr.splitlines()
    values = {
        line.split("=")[0].strip(): line.split("=")[1].strip()
        for line in proc.stderr.splitlines() if "=" in line
    }
    assert float(values["cmi"]) < 1e-10
    for key in ("r_log", "r_petz", "r_recon_ab", "r_recon_bc"):
        assert float(values[key]) < 1e-7


def test_markov_command_single_product_block(tmp_path):
    rng = np.random.default_rng(2)
    spec = MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(1.0,),
        ab_factors=(regularize(random_density(4, rng), 1e-3),),
        bc_factors=(regularize(random_density(4, rng), 1e-3),),
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(serialize_value(spec)))
    proc = run_cli("markov", str(spec_path))
    assert proc.returncode == 0
    cmi_line = next(l for l in proc.stderr.splitlines() if l.strip().startswith("cmi"))
    assert float(cmi_line.split("=")[1]) < 1e-9


def test_trotter_and_markov_write_a_csv_report_to_stdout(tmp_path):
    spec = tmp_path / "spec.json"
    _write_markov_spec(spec, seed=1)
    for command in (("trotter", "--trials", "1", "--nmax", "2"), ("markov", str(spec))):
        proc = run_cli(*command, "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        header, *records = proc.stdout.splitlines()
        assert header.startswith("checker,dims,seed,trial,quantity:")
        assert header.endswith(",slack,pass")
        assert len(records) == 1


def test_markov_command_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("markov", str(bad)).returncode == 2
    assert run_cli("markov", str(tmp_path / "missing.json")).returncode == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"weights": [1.0]}))
    assert run_cli("markov", str(wrong)).returncode == 2


def test_markov_command_refuses_a_nan_weight_in_one_line(tmp_path):
    spec = tmp_path / "spec.json"
    _write_markov_spec(spec)
    data = json.loads(spec.read_text())
    data["blocks"][0]["weight"] = float("nan")  # json writes NaN, and reads it back
    spec.write_text(json.dumps(data))
    proc = run_cli("markov", str(spec))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert "block weights (nan, 0.4)" in line


def _trotter_table(stderr):
    rows = {}
    for line in stderr.splitlines():
        line = line.strip()
        if line.startswith("n=") and "t_n=" in line:
            n = int(line.split("t_n=")[0].split("=")[1])
            rows[n] = float(line.split("t_n=")[1].split()[0])
    return rows


def test_trotter_command_product_state(tmp_path):
    rng = np.random.default_rng(3)
    mats = [regularize(random_density(2, rng), 1e-4).mat for _ in range(3)]
    full = kron(kron(mats[0], mats[1]), mats[2])
    state = DensityMatrix(full, (2, 2, 2))
    path = tmp_path / "product.json"
    path.write_text(json.dumps(serialize_value(state)))
    proc = run_cli("trotter", str(path), "--nmax", "8")
    assert proc.returncode == 0, proc.stderr
    table = _trotter_table(proc.stderr)
    assert set(table) == {1, 2, 4, 8}
    assert all(abs(t - 1.0) < 1e-9 for t in table.values())


def test_trotter_command_markov_state(tmp_path):
    rng = np.random.default_rng(4)
    spec = MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(0.5, 0.5),
        ab_factors=(
            regularize(random_density(4, rng), 1e-3),
            regularize(random_density(2, rng), 1e-3),
        ),
        bc_factors=(
            regularize(random_density(2, rng), 1e-3),
            regularize(random_density(4, rng), 1e-3),
        ),
    )
    state = markov_state(spec)
    path = tmp_path / "markov.json"
    path.write_text(json.dumps(serialize_value(state)))
    proc = run_cli("trotter", str(path), "--nmax", "4")
    assert proc.returncode == 0
    for t in _trotter_table(proc.stderr).values():
        assert abs(t - 1.0) < 1e-8


def test_trotter_command_random_trials():
    proc = run_cli("trotter", "--trials", "2", "--seed", "6", "--nmax", "16")
    assert proc.returncode == 0, proc.stderr
    assert "t_n=" in proc.stderr


def test_trotter_gap_column_is_t_n_minus_trace_surrogate(tmp_path):
    out = tmp_path / "trotter.json"
    proc = run_cli("trotter", "--trials", "2", "--seed", "6", "--nmax", "16", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    rows = [line.split() for line in proc.stderr.splitlines() if line.startswith("  n=")]
    assert len(rows) == 5 * len(records)
    for k, record in enumerate(records):
        q = record["quantities"]
        for n, row in zip((1, 2, 4, 8, 16), rows[5 * k : 5 * k + 5]):
            assert row[:2] == ["n=", str(n)], row
            assert row[-1] == f"t_n-TrS={q[f't_{n}'] - q['trace_surrogate']:+.3e}", row


def test_explore_report_and_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("explore", "cmi-petz", "--trials", "30", "--seed", "9",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    for key in ("kind", "trials", "min_slack", "histogram", "worst_instance"):
        assert key in report, key
    assert report["trials"] == 30
    assert sum(report["histogram"]["counts"]) == 30
    assert len(report["histogram"]["edges"]) == len(report["histogram"]["counts"]) + 1
    assert not report["candidate_counterexample"]

    assert run_cli("explore", "bogus-kind", "--trials", "2").returncode == 2

    replay = run_cli("replay", str(out))
    assert replay.returncode == 0
    assert "slack" in replay.stdout


def test_explore_is_deterministic():
    a = run_cli("explore", "trotter-monotone", "--trials", "10", "--seed", "2")
    b = run_cli("explore", "trotter-monotone", "--trials", "10", "--seed", "2")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def _exploration_blob(kind):
    instance, _ = run_trial(cli.EXPLORATIONS[kind], (2, 2, 2), 0, 0, 1e-6, 1e-8)
    return serialize_instance(instance)


# Each case replaces fields of a well-formed markov-roundtrip dump, rewrites the
# dump, or is the whole file text.  Replay reads a check dump (checker, instance)
# or an exploration report (kind, worst_instance), and no other keys for them.
MALFORMED_DUMPS = {
    "truncated-json": "[1, 2",
    "not-an-object": "[1, 2]",
    "tolerance-text": {"tolerance": "abc"},
    "tolerance-null": {"tolerance": None},
    "tolerance-nan": {"tolerance": float("nan")},
    "tolerance-negative": {"tolerance": -1},
    "t-samples-nan": {"opts": {"t_samples": [float("nan")]}},
    "t-samples-text": {"opts": {"t_samples": ["a"]}},
    "options-not-an-object": {"opts": [0.5]},
    "dims-not-a-list": {"dims": 5},
    "dims-zero": {"dims": [2, 0, 2]},
    "dims-bool": {"dims": [True, 2, 2]},
    "seed-text": {"seed": "x"},
    "seed-negative": {"seed": -1},
    "seed-bool": {"seed": False},
    "trial-null": {"trial": None},
    "trial-negative": {"trial": -1},
    "trial-float": {"trial": 1.0},
    "report-keyed-explore-kind": lambda dump: {
        "explore_kind": "cmi-petz", "worst_instance": _exploration_blob("cmi-petz"),
    },
    "check-dump-with-only-worst-instance": lambda dump: {
        **{k: v for k, v in dump.items() if k != "instance"}, "worst_instance": dump["instance"],
    },
    "checker-not-a-string": {"checker": ["markov-roundtrip"]},
    "kind-not-a-string": lambda dump: {"kind": {}, "worst_instance": dump["instance"]},
}


@pytest.mark.parametrize("case", list(MALFORMED_DUMPS))
def test_replay_rejects_malformed_dump(case, tmp_path):
    bad = MALFORMED_DUMPS[case]
    if not isinstance(bad, str):
        instance, _ = run_trial(SUITES["markov-roundtrip"], (2, 2, 2), 0, 0, 1e-6, 1e-8)
        dump = {
            "checker": "markov-roundtrip", "dims": [2, 2, 2], "seed": 0, "trial": 0,
            "tolerance": 0.0, "opts": {}, "instance": serialize_instance(instance),
        }
        bad = json.dumps(bad(dump) if callable(bad) else {**dump, **bad})
    path = tmp_path / "dump.json"
    path.write_text(bad)
    proc = run_cli("replay", str(path))
    _assert_config_error(proc, case)
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def _tolerances_seen(monkeypatch, checker: str) -> list:
    """The tol of each call of checks.<checker> from here on, the checker still running."""
    seen, real = [], getattr(checks, checker)

    @functools.wraps(real)
    def spy(*args, tol, **kwargs):
        seen.append(tol)
        return real(*args, tol=tol, **kwargs)

    monkeypatch.setattr(checks, checker, spy)
    return seen


def _replay_file(tmp_path, capsys, dump: dict):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    return _main(["replay", str(path)], capsys)


def test_a_check_dump_with_only_its_checker_and_instance_replays(tmp_path, monkeypatch, capsys):
    # tolerance defaults to TOL_INEQ, opts to {}, dims to [] (the record's "dims" reads ""),
    # seed and trial to 0
    instance, _ = run_trial(SUITES["ssa"], (2, 2, 2), 0, 3, 1e-6, 1e-8)
    seen = _tolerances_seen(monkeypatch, "check_ssa_strengthened")
    code, out, err = _replay_file(tmp_path, capsys, {
        "checker": "ssa", "instance": serialize_instance(instance)})
    assert code == cli.EXIT_OK, err
    assert seen == [TOL_INEQ]
    expected = SUITES["ssa"].run(instance, TOL_INEQ, {})
    assert out == records_to_json([as_record(expected, (), 0, 0)])
    [record] = json.loads(out)
    assert (record["dims"], record["seed"], record["trial"]) == ("", 0, 0)


def test_a_check_dump_with_empty_dims_replays(tmp_path, capsys):
    instance, _ = run_trial(SUITES["ssa"], (2, 2, 2), 0, 3, 1e-6, 1e-8)
    code, out, err = _replay_file(tmp_path, capsys, {
        "checker": "ssa", "dims": [], "seed": 5, "trial": 3, "tolerance": 1e-8, "opts": {},
        "instance": serialize_instance(instance)})
    assert code == cli.EXIT_OK, err
    [record] = json.loads(out)
    assert (record["dims"], record["seed"], record["trial"]) == ("", 5, 3)


def test_an_exploration_report_without_a_tolerance_replays_at_tol_ineq(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    argv = ["explore", "cmi-petz", "--trials", "20", "--seed", "9", "--tol", "1e-6"]
    assert _main(argv + ["--out", str(out)], capsys)[0] == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report.pop("tolerance") == 1e-6
    seen = _tolerances_seen(monkeypatch, "explore_cmi_petz")
    code, stdout, err = _replay_file(tmp_path, capsys, report)
    assert code == cli.EXIT_OK, err
    assert seen == [TOL_INEQ]
    assert stdout.startswith("kind = cmi-petz\n")
    assert stdout.endswith(f"slack = {report['min_slack']:.12e}\n")


@pytest.mark.parametrize("checker", ["renyi-monotone", "overlap-chain"])
def test_a_state_with_a_tiny_negative_eigenvalue_replays(checker, tmp_path):
    # the state passes validation, so its matrix functions clip the eigenvalue to zero
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
    instance = {"rho": rho, "sigma": DensityMatrix(np.eye(2) / 2)}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps({
        "checker": checker, "dims": [2], "seed": 0, "trial": 0,
        "tolerance": 1e-8, "opts": {}, "instance": serialize_instance(instance),
    }))
    proc = run_cli("replay", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    [record] = json.loads(proc.stdout)
    if checker == "overlap-chain":
        assert record["quantities"]["relative_entropy"] == pytest.approx(np.log(2.0), abs=1e-9)


def _main(argv, capsys):
    """cli.main in this process, as (exit code, stdout, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spy_rows(monkeypatch) -> list:
    """The trial rows suites._instance_row builds from here on, one entry per call."""
    built = []
    real = suites._instance_row
    monkeypatch.setattr(suites, "_instance_row", lambda instance, i: built.append(i) or real(
        instance, i))
    return built


def _only_in_a_chunk(instance, row):
    """A break that raises in a chunk of several trials and leaves a trial alone as drawn, so
    the chunk runs again trial by trial and every trial gives its usual result."""
    if len(next(iter(instance.values())).mat) > 1:
        raise DimMismatch("raised in a chunk of several trials only")


# Every check suite whose instance values all stack: its chunks build no row to group by.
STACKED_SUITES = [name for name in SUITES
                  if name not in ("overlap-chain", "markov-roundtrip", "twirl-identity")]


def test_a_report_builds_only_the_instance_row_it_writes(tmp_path, monkeypatch, capsys):
    # a 100-trial exploration is one chunk of stacks, and its report serializes the worst
    # trial's row alone; a check that passes writes no instance and builds no row
    built = _spy_rows(monkeypatch)
    out = tmp_path / "explore.json"
    code, _, _ = _main(["explore", "stronger-mono", "--trials", "100", "--seed", "3",
                        "--out", str(out)], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert built == [report["worst_trial"]]
    built.clear()
    argv = ["check", "--suite", ",".join(STACKED_SUITES), "--trials", "5", "--seed", "3",
            "--out", str(tmp_path / "check.json")]
    assert _main(argv, capsys)[0] == cli.EXIT_OK
    assert built == []
    # a failing check builds the one row its dump holds
    out = tmp_path / "sbw.json"
    argv = ["check", "--suite", "sbw-limit", "--alpha", "0.5,0.25", "--trials", "4",
            "--seed", "42", "--out", str(out)]
    assert _main(argv, capsys)[0] == cli.EXIT_FAILED
    dump = json.loads(Path(f"{out}.worst.json").read_text())
    assert built == [dump["trial"]]


@pytest.mark.parametrize("kind, argv, written", [
    ("stronger-mono", ["explore", "stronger-mono", "--trials", "9", "--seed", "3"], [""]),
    ("sbw-limit", ["check", "--suite", "sbw-limit", "--alpha", "0.5,0.25", "--trials", "4",
                   "--seed", "42"], ["", ".worst.json"]),
])
def test_a_chunk_run_again_trial_by_trial_writes_the_same_bytes(
    kind, argv, written, tmp_path, monkeypatch, capsys
):
    # trial 2 breaks its chunk of several, which runs again as chunks of one: the report, the
    # worst instance and the dump are those of the chunk that did not break, and only the
    # worst trial's row is built
    outputs = []
    for broken in (False, True):
        out = tmp_path / f"{broken}.json"
        if broken:
            registry = cli.EXPLORATIONS if kind in cli.EXPLORATIONS else cli.SUITES
            drawn = []
            monkeypatch.setitem(registry, kind, failing_at(kind, 2, _only_in_a_chunk, drawn=drawn))
            built = _spy_rows(monkeypatch)
        code, stdout, stderr = _main(argv + ["--out", str(out)], capsys)
        files = [Path(f"{out}{suffix}").read_bytes() for suffix in written]
        outputs.append((code, stdout, stderr.replace(str(out), "<out>"),
                        [data.replace(str(out).encode(), b"<out>") for data in files]))
    assert [shape for _, _, shape in drawn] == [(int(argv[argv.index("--trials") + 1]),)]
    assert outputs[0] == outputs[1]
    assert built == [0]  # row 0 of the worst trial's chunk of one


def test_replay_of_an_infinite_slack_is_a_failed_check(tmp_path, capsys):
    # two rank-1 states regularized at eps = 1e-6: super-ssa's exp-log reference spans more
    # than 1 / RANK_CUTOFF, so its relative entropy, lhs and slack read +inf
    rng = np.random.default_rng(0)
    rho, sigma = (regularize(random_density(8, rng, rank=1), 1e-6, (2, 2, 2)) for _ in "rs")
    dump = {"checker": "super-ssa", "dims": [2, 2, 2], "seed": 0, "trial": 0, "tolerance": 1e-8,
            "opts": {}, "instance": serialize_instance({"rho": rho, "sigma": sigma})}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code, out, err = _main(["replay", str(path)], capsys)
    [record] = json.loads(out)
    assert record["quantities"]["lhs"] == record["slack"] == float("inf")
    assert (code, record["pass"]) == (cli.EXIT_FAILED, False)
    assert err == "[super-ssa] slack=inf FAIL\n"


def test_replay_of_a_nan_slack_is_a_typed_error(tmp_path, capsys):
    # two rank-1 states regularized at eps = 1e-14 keep eigenvalues of 1.25e-15, under the
    # rank cutoff, so before and after read +inf and the slack inf - inf is NaN
    rng = np.random.default_rng([42, 7])
    rho, sigma = (regularize(random_density(8, rng, rank=1), 1e-14) for _ in "rs")
    instance = {"rho": rho, "sigma": sigma, "channel": random_channel(8, 2, rng)}
    dump = {"checker": "monotonicity", "dims": [8], "seed": 0, "trial": 0, "tolerance": 1e-8,
            "opts": {}, "instance": serialize_instance(instance)}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code, out, err = _main(["replay", str(path)], capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == "error: NaN leaked into the result's slack\n"


@pytest.mark.parametrize("missing", ["mu", "sigma_base"])
def test_replay_of_a_scaled_overlap_reference_needs_both_keys(missing, tmp_path, capsys):
    # seed 42's overlap-chain trial 1 carries a scaled reference: without mu it would replay as
    # a plain chain and pass, and without sigma_base the shift rule had no base to act on
    instance, _ = run_trial(SUITES["overlap-chain"], (2, 2, 2), 42, 1, DEFAULT_EPS, 1e-8)
    assert {"mu", "sigma_base"} <= set(instance)
    blob = _drop(missing)(serialize_instance(instance))
    dump = {"checker": "overlap-chain", "dims": [2, 2, 2], "seed": 42, "trial": 1,
            "tolerance": 1e-8, "opts": {}, "instance": blob}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code, out, err = _main(["replay", str(path)], capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == ("config error: overlap-chain needs sigma_base and mu together, "
                   f"'{missing}' is missing\n")


@pytest.mark.parametrize("command", [
    ["check", "--suite", "ssa", "--trials", "1"],
    ["trotter", "--trials", "1", "--nmax", "2"],
    ["explore", "cmi-petz", "--trials", "2"],
])
@pytest.mark.parametrize("source", ["--seed", "QEL_SEED"])
def test_negative_seed_is_a_config_error(command, source, monkeypatch, capsys):
    if source == "QEL_SEED":
        monkeypatch.setenv("QEL_SEED", "-1")
    else:
        monkeypatch.delenv("QEL_SEED", raising=False)
        command = command + ["--seed", "-1"]
    code, out, err = _main(command, capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"config error: {source} must be an integer >= 0, got -1\n"


def test_a_seed_of_two_to_the_64_runs(monkeypatch, capsys):
    monkeypatch.delenv("QEL_SEED", raising=False)
    seed = 2**64
    code, out, _ = _main(["check", "--suite", "ssa", "--trials", "2", "--seed", str(seed)],
                         capsys)
    assert code == cli.EXIT_OK
    assert [r["seed"] for r in json.loads(out)] == [seed, seed]


def _drop(key):
    return lambda blob: {k: v for k, v in blob.items() if k != key}


def _add(key):
    return lambda blob: {**blob, key: {"type": "scalar", "value": 1}}


def _retype(key, source=None):
    """Edit: the value under key replaced by the scalar 1, or by the value under source."""
    return lambda blob: {**blob, key: blob[source] if source else {"type": "scalar", "value": 1}}


# (suite or exploration kind, edit of its serialized instance, the key the error names)
BAD_INSTANCE_KEYS = {
    "checker-extra": ("sbw-limit", _add("extra"), "extra"),
    "checker-missing": ("sbw-limit", _drop("channel"), "channel"),
    "checker-tol": ("ssa", _add("tol"), "tol"),
    "runner-extra": ("markov-roundtrip", _add("extra"), "extra"),
    "runner-missing": ("markov-roundtrip", _drop("spec"), "spec"),
    "exploration-extra": ("cmi-petz", _add("extra"), "extra"),
    "exploration-missing": ("cmi-petz", _drop("rho"), "rho"),
    "channel-is-a-scalar": ("sbw-limit", _retype("channel"), "channel"),
    "state-is-a-channel": ("sbw-limit", _retype("rho", "channel"), "rho"),
    "runner-state-is-a-scalar": ("bsw-identity", _retype("rho"), "rho"),
    "checker-operand-is-a-scalar": ("carlen-lieb-concavity", _retype("x1"), "x1"),
    # a chunk's weights are an (n,) array, yet one trial's weight is a float
    "weight-is-a-matrix": ("lieb-concavity", _retype("lam", "h"), "lam"),
    "exploration-state-is-a-scalar": ("stronger-mono", _retype("sigma"), "sigma"),
}


@pytest.mark.parametrize("case", list(BAD_INSTANCE_KEYS))
def test_replay_names_a_missing_or_unexpected_instance_key(case, tmp_path, capsys):
    name, edit, key = BAD_INSTANCE_KEYS[case]
    exploring = name in cli.EXPLORATIONS
    suite = (cli.EXPLORATIONS if exploring else SUITES)[name]
    instance, _ = run_trial(suite, (2, 2, 2), 0, 0, 1e-6, 1e-8)
    blob = edit(serialize_instance(instance))
    dump = {"kind": name, "worst_instance": blob} if exploring else {
        "checker": name, "dims": [2, 2, 2], "seed": 0, "trial": 0,
        "tolerance": 1e-8, "opts": {}, "instance": blob,
    }
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code, out, err = _main(["replay", str(path)], capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"config error: {name} instance does not fit its checker:")
    assert f"'{key}'" in err and len(err.splitlines()) == 1, err


def _edit(path, value=None):
    """The edit of a JSON blob that sets the entry at ``path`` to value, or
    deletes it when value is None."""

    def apply(blob):
        blob = json.loads(json.dumps(blob))
        node = blob
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return blob

    return apply


def _malformed_template(command):
    """A well-formed file for ``command``: an sbw-limit dump, a state, a spec."""
    if command == "replay":
        instance, _ = run_trial(SUITES["sbw-limit"], (2, 2, 2), 0, 0, 1e-6, 1e-8)
        return {"checker": "sbw-limit", "dims": [2, 2, 2], "seed": 0, "trial": 0,
                "tolerance": 0.0, "opts": {}, "instance": serialize_instance(instance)}
    if command == "trotter":
        return serialize_value(random_tripartite((2, 2, 2), np.random.default_rng(5)))
    rng = np.random.default_rng(0)
    factor = regularize(random_density(4, rng), 1e-3)
    return serialize_value(MarkovSpec(2, 2, (1.0,), (factor,), (factor,)))


# (command, edit of its well-formed file, what the message must name)
MALFORMED_FILES = {
    "dump-value-without-re": ("replay", _edit(("instance", "rho", "re")), "'re'"),
    "dump-value-dims-text": ("replay", _edit(("instance", "rho", "dims"), "x"), "rho.dims"),
    "dump-value-ragged-re": ("replay", _edit(("instance", "rho", "re", 0), [0.5]), "rho.re"),
    "dump-channel-without-kraus": ("replay", _edit(("instance", "channel", "kraus")), "'kraus'"),
    "dump-channel-d-in-text": ("replay", _edit(("instance", "channel", "d_in"), "a"), "d_in"),
    "dump-value-not-an-object": ("replay", _edit(("instance", "rho"), 5), "instance.rho"),
    "state-without-re": ("trotter", _edit(("re",)), "'re'"),
    "state-dims-text": ("trotter", _edit(("dims",), "x"), "state.dims"),
    "state-ragged": ("trotter", _edit(("im", 1), [0.0]), "state.im"),
    "state-top-level-list": ("trotter", lambda blob: [blob], "JSON object"),
    "state-text-entry": ("trotter", _edit(("re", 0, 0), "a"), "state.re"),
    "spec-top-level-list": ("markov", lambda blob: [blob], "JSON object"),
    "spec-blocks-text": ("markov", _edit(("blocks",), "x"), "spec.blocks"),
    "spec-without-blocks": ("markov", _edit(("blocks",)), "'blocks'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_input_file_is_one_config_error(case, tmp_path, capsys):
    command, edit, names = MALFORMED_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(edit(_malformed_template(command))))
    argv = [command, str(path)] + (["--nmax", "2"] if command == "trotter" else [])
    code, out, err = _main(argv, capsys)
    assert (code, out) == (cli.EXIT_CONFIG, ""), err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err
    assert names in err, err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("name,key", [
    ("golden-thompson", "a"),
    ("golden-thompson", "b"),
    ("lieb-concavity", "h"),
    ("carlen-lieb-concavity", "m"),
    ("twirl-identity", "x"),
])
def test_replayed_raw_matrix_with_a_nan_or_inf_is_one_error(name, key, bad, tmp_path, capsys):
    instance, _ = run_trial(SUITES[name], (2, 2, 2), 0, 0, 1e-6, 1e-8)
    blob = serialize_instance(instance)
    assert blob[key]["type"] == "matrix"
    blob[key]["re"][0][0] = bad
    dump = {"checker": name, "dims": [2, 2, 2], "seed": 0, "trial": 0,
            "tolerance": 1e-8, "opts": {}, "instance": blob}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))  # written as NaN / Infinity, which JSON readers accept
    code, out, err = _main(["replay", str(path)], capsys)
    assert (code, out, err) == (cli.EXIT_CONFIG, "", "error: matrix has a NaN or infinite entry\n")


def test_a_replayed_overflow_is_non_finite_and_exits_2(tmp_path, capsys):
    # exp(A + B) overflows at the eigenvalue 801: not a singular input
    instance = {"a": np.diag([800.0, 0.0]), "b": np.eye(2)}
    code, out, err = _replay_file(tmp_path, capsys, {
        "checker": "golden-thompson", "instance": serialize_instance(instance)})
    assert (code, out, err) == (
        cli.EXIT_CONFIG, "", "error: matrix function is not finite at eigenvalue 8.010e+02\n")


def _one_part(*keys):
    """Edit: the states under keys relabelled as living on one subsystem."""
    return lambda blob: {**blob, **{k: {**blob[k], "dims": [len(blob[k]["re"])]} for k in keys}}


@pytest.mark.parametrize("name,edit,message", [
    ("monotonicity",
     lambda blob: {**blob, "sigma": serialize_value(random_density(4, np.random.default_rng(0)))},
     "shape mismatch (8, 8) vs (4, 4)"),
    ("ssa", _one_part("rho"), "need exactly 3 subsystems, got 1"),
    ("ptrace-strengthening", _one_part("rho_ab", "sigma_ab"), "need a bipartite split, got 1 parts"),
], ids=["sizes", "ssa-one-part", "ptrace-one-part"])
def test_replayed_states_that_do_not_fit_are_one_error(name, edit, message, tmp_path, capsys):
    instance, _ = run_trial(SUITES[name], (2, 2, 2), 0, 0, 1e-6, 1e-8)
    dump = {"checker": name, "dims": [2, 2, 2], "seed": 0, "trial": 0,
            "tolerance": 1e-8, "opts": {}, "instance": edit(serialize_instance(instance))}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code, out, err = _main(["replay", str(path)], capsys)
    assert (code, out, err) == (cli.EXIT_CONFIG, "", f"error: {message}\n")


# Every option string and positional of each subcommand.  A flag added or removed
# changes this table.
CLI_SURFACE = {
    "check": ["--alpha", "--dims", "--eps", "--format", "--help", "--nmax", "--out", "--seed",
              "--suite", "--t-samples", "--tol", "--trials", "-h"],
    "markov": ["--format", "--help", "--out", "--t-samples", "-h", "spec"],
    "trotter": ["--dims", "--eps", "--format", "--help", "--nmax", "--out", "--seed", "--tol",
                "--trials", "-h", "state"],
    "explore": ["--dims", "--eps", "--help", "--out", "--seed", "--tol", "--trials", "-h",
                "kind"],
    "replay": ["--help", "-h", "dump"],
}


def test_cli_surface_is_pinned():
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: sorted(s for a in sub._actions for s in (a.option_strings or [a.dest]))
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE


# A failing check that dumps, the same check without its --alpha, an exploration, a config
# error and the dump's replay: each option is set in one call and left out of the next.
SEQUENCE = [
    ["check", "--suite", "sbw-limit", "--alpha", "0.9,0.5", "--trials", "4", "--seed", "42",
     "--out", "sbw.json"],
    ["check", "--suite", "sbw-limit", "--trials", "4", "--seed", "42", "--out", "plain.json"],
    ["explore", "cmi-petz", "--trials", "20", "--seed", "3", "--out", "explore.json"],
    ["check", "--suite", "ssa", "--dims", "2,x", "--trials", "2"],
    ["replay", "sbw.json.worst.json"],
]


def _run_in(directory, argv_list, capsys) -> list:
    """(exit code, stdout, stderr, every file written) of each call, run in turn in directory."""
    os.chdir(directory)
    outcomes = []
    for argv in argv_list:
        code, out, err = _main(argv, capsys)
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        outcomes.append((code, out, err, files))
    return outcomes


def test_main_reuses_one_parser_and_gives_a_fresh_parsers_outcomes(tmp_path, monkeypatch, capsys):
    real_build = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    monkeypatch.chdir(tmp_path)
    fresh = []
    for argv in SEQUENCE:  # each call on a parser built for it alone
        (tmp_path / "fresh").mkdir(exist_ok=True)
        cli._parser.cache_clear()
        fresh += _run_in(tmp_path / "fresh", [argv], capsys)
    assert len(built) == len(SEQUENCE)

    cli._parser.cache_clear()
    built.clear()
    (tmp_path / "reused").mkdir()
    reused = _run_in(tmp_path / "reused", SEQUENCE[:1], capsys)
    # a cmd_<name> rebound after the first call is the one that runs
    ran = []

    def recorded(name):
        real = getattr(cli, name)
        return lambda args: ran.append(name) or real(args)

    for name in ("cmd_check", "cmd_explore", "cmd_replay"):
        monkeypatch.setattr(cli, name, recorded(name))
    reused += _run_in(tmp_path / "reused", SEQUENCE[1:], capsys)
    assert built == [1]
    assert ran == ["cmd_check", "cmd_explore", "cmd_check", "cmd_replay"]
    assert [outcome[0] for outcome in reused] == [cli.EXIT_FAILED, cli.EXIT_OK, cli.EXIT_OK,
                                                  cli.EXIT_CONFIG, cli.EXIT_FAILED]
    assert reused == fresh


def test_a_command_runs_with_blas_on_one_thread_and_restores_its_count(monkeypatch, capsys):
    get, set_ = cli._blas_threads()
    before = get()
    if before is None:
        pytest.skip("numpy's OpenBLAS exports no scipy_openblas_*_num_threads64_ symbols")
    seen = []
    real = cli.cmd_explore
    monkeypatch.setattr(cli, "cmd_explore", lambda args: seen.append(get()) or real(args))
    set_(2)
    try:
        threads = get()  # 2, unless this OpenBLAS caps it
        assert _main(["explore", "cmi-petz", "--trials", "2"], capsys)[0] == cli.EXIT_OK
        assert (seen, get()) == ([1], threads)
    finally:
        set_(before)


def test_the_blas_symbols_are_resolved_once_per_process(monkeypatch, capsys):
    opened, real = [], ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: opened.append(args[0])
                        or real(*args, **kwargs))
    cli._blas_threads.cache_clear()
    try:
        for _ in range(2):
            assert _main(["explore", "cmi-petz", "--trials", "2"], capsys)[0] == cli.EXIT_OK
    finally:
        cli._blas_threads.cache_clear()  # the next call resolves them with the real CDLL
    assert opened == [np.linalg._umath_linalg.__file__]


def test_reports_do_not_depend_on_the_blas_thread_count():
    # markov-roundtrip's d = 36 factors at 3,2,4 (trials 34 and 36 of seed 42) take GEMMs that
    # OpenBLAS splits over 2 threads, with other sums than on one
    argv = ["check", "--suite", "markov-roundtrip,overlap-chain", "--dims", "3,2,4",
            "--trials", "40", "--seed", "42"]
    outputs = [run_cli(*argv, env_extra={"OPENBLAS_NUM_THREADS": threads})
               for threads in ("1", "2")]
    assert [proc.returncode for proc in outputs] == [0, 0]
    assert outputs[0].stdout and outputs[0].stdout == outputs[1].stdout


@pytest.mark.parametrize("eps", ["5", "1", "0", "-0.5", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["check", "--suite", "golden-thompson", "--trials", "1"],
    ["check", "--suite", "twirl-identity,markov-roundtrip", "--trials", "1"],
    ["trotter", "--trials", "1", "--nmax", "2"],
    ["explore", "cmi-petz", "--trials", "2"],
])
def test_eps_outside_the_open_unit_interval_is_a_config_error(command, eps, monkeypatch, capsys):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("qelab.suites.run_trial", no_trial)
    code, out, err = _main(command + [f"--eps={eps}"], capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"config error: --eps must lie strictly between 0 and 1, got {float(eps)}\n"


def test_error_inside_a_trial_names_its_suite_and_trial(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise SingularTerm("term 0 is singular")

    monkeypatch.setattr(checks, "check_ssa_strengthened", singular)
    code, out, err = _main(["check", "--suite", "renyi-monotone,ssa", "--trials", "2"], capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.splitlines()[-1] == "error: ssa trial 0: term 0 is singular"
    with pytest.raises(SingularTerm, match="^ssa trial 1: term 0 is singular$"):
        run_trial(SUITES["ssa"], (2, 2, 2), 0, 1, 1e-6, 1e-8)
