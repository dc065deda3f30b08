"""Tests for the seeded suite registry: sampling, replay, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qelab.errors import BadConfig
from qelab.results import as_record, records_to_csv, records_to_json
from qelab.serialize import deserialize_instance, serialize_instance
from qelab import checks
from qelab.suites import (
    EXPLORATIONS,
    SUITES,
    explore_conjecture,
    run_suite,
    run_trial,
    trial_rng,
)
from qelab.tolerances import DEFAULT_EPS, TOL_IDENTITY, TOL_INEQ

EXPECTED_ORDER = [
    "renyi-monotone",
    "overlap-chain",
    "monotonicity",
    "stronger-monotonicity",
    "unital-trace-bound",
    "ptrace-strengthening",
    "ssa",
    "trace-exp-bound",
    "bsw-identity",
    "super-ssa",
    "three-state-chain",
    "subadd-exp",
    "markov-roundtrip",
    "trotter-bound",
    "dw-alpha",
    "dw-tripartite",
    "sbw-limit",
    "lieb-concavity",
    "carlen-lieb-concavity",
    "golden-thompson",
    "audenaert-powers-stormer",
    "squashed-proxy",
    "twirl-identity",
]
EXPLORATION_ORDER = ["stronger-mono", "ptrace-petz", "cmi-petz", "trotter-monotone"]

# Each sampler's instance keys: the dump format, and the keyword arguments of
# the suite's checker.  overlap-chain adds sigma_base and mu on some trials.
INSTANCE_KEYS = {
    "renyi-monotone": {"rho", "sigma"},
    "overlap-chain": {"rho", "sigma"},
    "monotonicity": {"rho", "sigma", "channel"},
    "stronger-monotonicity": {"rho", "sigma", "channel"},
    "unital-trace-bound": {"rho", "sigma", "channel"},
    "ptrace-strengthening": {"rho_ab", "sigma_ab"},
    "ssa": {"rho"},
    "trace-exp-bound": {"rho", "sigma", "tau"},
    "bsw-identity": {"rho", "sigma", "tau", "omega"},
    "super-ssa": {"rho", "sigma"},
    "three-state-chain": {"rho", "sigma", "tau", "omega"},
    "subadd-exp": {"rho"},
    "markov-roundtrip": {"spec"},
    "trotter-bound": {"rho"},
    "dw-alpha": {"rho", "sigma", "channel"},
    "dw-tripartite": {"rho"},
    "sbw-limit": {"rho", "sigma", "channel"},
    "lieb-concavity": {"h", "x1", "x2", "lam"},
    "carlen-lieb-concavity": {"m", "x1", "x2", "lam"},
    "golden-thompson": {"a", "b"},
    "audenaert-powers-stormer": {"m", "n"},
    "squashed-proxy": {"rho"},
    "twirl-identity": {"x", "d_a", "d_b", "mc_seed", "samples"},
    "stronger-mono": {"rho", "sigma", "channel"},
    "ptrace-petz": {"rho_ab", "sigma_ab"},
    "cmi-petz": {"rho"},
    "trotter-monotone": {"rho"},
}
OPTIONAL_KEYS = {"overlap-chain": {"sigma_base", "mu"}}
# The tolerance a suite's result carries when run at tol=1e-3; every other
# suite carries the tol it was given.
OWN_TOLERANCE = {
    "bsw-identity": TOL_IDENTITY,
    "markov-roundtrip": 0.0,
    "sbw-limit": 0.0,
    "twirl-identity": 0.0,
}


def test_registry_names_and_order():
    assert list(SUITES) == EXPECTED_ORDER
    assert list(EXPLORATIONS) == EXPLORATION_ORDER
    for name, suite in {**SUITES, **EXPLORATIONS}.items():
        assert suite.name == name
        assert suite.description
    # the exploration registry lives in suites only
    assert not hasattr(checks, "EXPLORE_KINDS")


@pytest.mark.parametrize("name", EXPECTED_ORDER + EXPLORATION_ORDER)
def test_sampler_keys_are_the_instance_format(name):
    suite = {**SUITES, **EXPLORATIONS}[name]
    required, optional = INSTANCE_KEYS[name], OPTIONAL_KEYS.get(name, set())
    seen = set()
    for trial in range(8):
        keys = set(suite.sample(trial_rng(3, name, trial), (2, 2, 2), DEFAULT_EPS))
        assert required <= keys <= required | optional, (trial, keys)
        seen |= keys
    assert seen == required | optional


@pytest.mark.parametrize("name", EXPECTED_ORDER)
def test_result_tolerance_is_tol_unless_the_suite_fixes_its_own(name):
    ((_, _, result),) = run_suite(name, (2, 2, 2), 1, 5, tol=1e-3)
    assert result.tolerance == OWN_TOLERANCE.get(name, 1e-3)


@pytest.mark.parametrize(
    "name, checker, forwarded",
    [
        ("renyi-monotone", "check_renyi_monotonicity", set()),
        ("dw-alpha", "dw_alpha_profile", {"alphas"}),
        ("trotter-bound", "trotter_sequence", {"n_values"}),
        ("cmi-petz", "explore_cmi_petz", set()),
    ],
    ids=["renyi-monotone", "dw-alpha", "trotter-bound", "cmi-petz"],
)
def test_row_calls_the_checker_bound_at_call_time(monkeypatch, name, checker, forwarded):
    # a rebound checks.<name> (a tracer's wrapper) must be the function that runs,
    # and only the run options the suite reads reach it
    calls = []
    real = getattr(checks, checker)

    def spy(**kwargs):
        calls.append(set(kwargs))
        return real(**kwargs)

    monkeypatch.setattr(checks, checker, spy)
    opts = {"alphas": [0.5, 0.25], "sbw_alphas": [0.5], "t_samples": [0.3], "n_values": [1, 2]}
    suite = {**SUITES, **EXPLORATIONS}[name]
    instance, result = run_trial(suite, (2, 2, 2), 1, 0, DEFAULT_EPS, 1e-3, opts)
    assert calls == [set(instance) | forwarded | {"tol"}]
    assert result.tolerance == 1e-3


def test_trial_rng_streams_are_distinct():
    a = trial_rng(0, "ssa", 0).integers(1 << 60)
    b = trial_rng(0, "ssa", 1).integers(1 << 60)
    c = trial_rng(0, "bsw-identity", 0).integers(1 << 60)
    d = trial_rng(1, "ssa", 0).integers(1 << 60)
    assert len({int(a), int(b), int(c), int(d)}) == 4


def test_run_suite_rejects_bad_config():
    with pytest.raises(BadConfig):
        run_suite("no-such-suite", (2, 2, 2), 1, 0)
    with pytest.raises(BadConfig):
        run_suite("ssa", (2, 2, 2), 0, 0)
    with pytest.raises(BadConfig):
        run_suite("ssa", (2, 2), 1, 0)


@pytest.mark.parametrize("name", EXPECTED_ORDER)
def test_every_suite_passes_small_batch(name):
    for trial, _, result in run_suite(name, (2, 2, 2), 3, 0):
        assert result.passed, (name, trial, result.slack)


def test_run_suite_is_deterministic():
    first = run_suite("three-state-chain", (2, 2, 2), 4, 9)
    second = run_suite("three-state-chain", (2, 2, 2), 4, 9)
    for (_, _, r1), (_, _, r2) in zip(first, second):
        assert r1.slack == r2.slack
        assert r1.quantities == r2.quantities


@pytest.mark.parametrize("name", EXPECTED_ORDER)
def test_serialized_instance_replays_to_same_slack(name):
    suite = SUITES[name]
    instance, result = run_trial(suite, (2, 2, 2), 11, 0, 1e-6, 1e-8)
    payload = json.loads(json.dumps(serialize_instance(instance)))
    replayed = suite.run(deserialize_instance(payload), 1e-8, {})
    assert replayed.slack == result.slack
    assert replayed.quantities == result.quantities


def test_records_roundtrip_through_json_and_csv():
    rows = [
        as_record(result, (2, 2, 2), 13, trial)
        for trial, _, result in run_suite("overlap-chain", (2, 2, 2), 3, 13)
    ]
    text = records_to_json(rows)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert [r["trial"] for r in parsed] == [0, 1, 2]
    assert all(r["dims"] == "2x2x2" for r in parsed)
    csv_text = records_to_csv(rows)
    header = csv_text.splitlines()[0].split(",")
    assert header[:4] == ["checker", "dims", "seed", "trial"]
    assert header[-2:] == ["slack", "pass"]
    assert len(csv_text.splitlines()) == 4


def test_suite_options_are_threaded():
    # shallow dyadic grid stops far from the operator limit -> suite fails
    rows = run_suite("sbw-limit", (2, 2, 2), 2, 17, opts={"sbw_alphas": (0.5, 0.25)})
    assert all(not result.passed for _, _, result in rows)
    # deep default grid passes on the same seeds
    rows = run_suite("sbw-limit", (2, 2, 2), 2, 17)
    assert all(result.passed for _, _, result in rows)


def test_trotter_suite_option_controls_orders():
    rows = run_suite("trotter-bound", (2, 2, 2), 1, 19, opts={"n_values": (1, 2, 4)})
    _, _, result = rows[0]
    assert [k for k in result.quantities if k.startswith("t_")] == ["t_1", "t_2", "t_4"]


def test_markov_suite_uses_custom_t_samples():
    rows = run_suite("markov-roundtrip", (2, 2, 2), 1, 21, opts={"t_samples": (0.5,)})
    _, instance, result = rows[0]
    assert result.passed
    assert len(instance["spec"].weights) >= 1
    assert result.quantities["r_petz"] < 1e-7


@pytest.mark.parametrize("index, kind", list(enumerate(EXPLORATION_ORDER)))
def test_exploration_worst_trial_replays_alone(index, kind):
    seed, dims = 7, (2, 3, 2)
    report = explore_conjecture(kind, 12, dims, seed)
    # exploration streams are keyed [seed, 100 + kind index, trial]
    rng = trial_rng(seed, kind, report.worst_trial)
    expected = np.random.default_rng([seed, 100 + index, report.worst_trial])
    assert rng.bit_generator.state == expected.bit_generator.state
    suite = EXPLORATIONS[kind]
    instance = suite.sample(rng, dims, DEFAULT_EPS)
    assert serialize_instance(instance) == report.worst_instance
    payload = json.loads(json.dumps(report.worst_instance))
    replayed = suite.run(deserialize_instance(payload), TOL_INEQ, {})
    assert replayed.slack == report.min_slack
