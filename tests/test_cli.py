"""End-to-end tests of the ``qelab`` command line driver (subprocess level)."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qelab import checks, cli, suites
from qelab.errors import SingularTerm
from qelab.linalg import kron
from qelab.serialize import serialize_instance, serialize_value
from qelab.states import (
    DensityMatrix,
    MarkovSpec,
    markov_state,
    random_density,
    random_tripartite,
    regularize,
)
from qelab.suites import SUITES, run_trial
from test_suites import _flat_reference, _zero_channel, failing_at

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
    # dw-alpha takes the grid as written, sbw-limit the same grid sorted, unique and
    # descending; the dump records the grid once, under "alphas".  Each checker is called
    # once, on the stack of both trials.
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
    assert grids == {"dw_alpha_profile": [[0.5, 0.9, 0.5]], "check_sbw_limit": [[0.9, 0.5]]}
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


# Each case replaces fields of a well-formed markov-roundtrip dump, or is the
# whole file text.
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
}


@pytest.mark.parametrize("case", list(MALFORMED_DUMPS))
def test_replay_rejects_malformed_dump(case, tmp_path):
    bad = MALFORMED_DUMPS[case]
    if isinstance(bad, dict):
        instance, _ = run_trial(SUITES["markov-roundtrip"], (2, 2, 2), 0, 0, 1e-6, 1e-8)
        dump = {
            "checker": "markov-roundtrip", "dims": [2, 2, 2], "seed": 0, "trial": 0,
            "tolerance": 0.0, "opts": {}, "instance": serialize_instance(instance),
        }
        bad = json.dumps({**dump, **bad})
    path = tmp_path / "dump.json"
    path.write_text(bad)
    proc = run_cli("replay", str(path))
    _assert_config_error(proc, case)
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def _main(argv, capsys):
    """cli.main in this process, as (exit code, stdout, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    "runner-state-is-a-scalar": ("carlen-lieb-concavity", _retype("x1"), "x1"),
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
