"""Tests for the seeded suite registry: sampling, replay, determinism."""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab.channels import KrausChannel, PetzMap
from qelab.errors import BadConfig, DimMismatch, MarginalMismatch, QelabError, SingularSigma
from qelab.linalg import trace_norm
from qelab.results import as_record, records_to_csv, records_to_json
from qelab.serialize import deserialize_instance, serialize_instance
from qelab import checks, suites
from qelab.suites import (
    EXPLORATIONS,
    SUITES,
    explore_conjecture,
    iter_trials,
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
# The check rows whose instance values all have a stack, so that a chunk of them is evaluated
# as (n, d, d) stacks; the other seven run one trial at a time.
STACKED_ROWS = [
    "renyi-monotone", "monotonicity", "stronger-monotonicity", "unital-trace-bound",
    "ptrace-strengthening", "ssa", "trace-exp-bound", "bsw-identity", "super-ssa",
    "three-state-chain", "subadd-exp", "trotter-bound", "dw-alpha", "dw-tripartite",
    "sbw-limit", "squashed-proxy",
]

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
    opts = {"alphas": [0.5, 0.25], "t_samples": [0.3], "n_values": [1, 2]}
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
    rows = run_suite("sbw-limit", (2, 2, 2), 2, 17, opts={"alphas": (0.5, 0.25)})
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


def _bits(result):
    return [result.name, result.slack.hex(), result.tolerance, bool(result.extra_ok)] + [
        (key, value.hex()) for key, value in result.quantities.items()
    ]


def test_the_stacked_rows_are_those_whose_values_all_stack():
    instances = {name: SUITES[name].sample(trial_rng(0, name, 0), (2, 2, 2), DEFAULT_EPS)
                 for name in SUITES}
    stacked = [name for name, inst in instances.items()
               if all(hasattr(value, "stack") for value in inst.values())]
    # overlap-chain stacks too in a chunk where no trial drew its scaled reference
    assert [name for name in stacked if name != "overlap-chain"] == STACKED_ROWS


@pytest.mark.parametrize("kind", EXPLORATION_ORDER + STACKED_ROWS + ["overlap-chain"])
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 3, 50]),
    dims=st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2, 2)]),
)
def test_a_chunk_gives_each_trial_the_bits_it_gets_alone(kind, seed, chunk, dims):
    # 7 trials: a chunk of 3 does not divide them, one of 50 holds them all
    suite = EXPLORATIONS.get(kind) or SUITES[kind]
    with mock.patch.object(suites, "CHUNK_TRIALS", chunk):
        triples = list(iter_trials(suite, dims, 7, seed))
    assert [trial for trial, _, _ in triples] == list(range(7))
    for trial, instance, result in triples:
        alone_instance, alone = run_trial(suite, dims, seed, trial, DEFAULT_EPS, TOL_INEQ)
        assert serialize_instance(instance) == serialize_instance(alone_instance)
        assert _bits(result) == _bits(alone)


def _flat_reference(instance):
    """ptrace-petz's reference on one flat subsystem: its chunk cannot be stacked, and alone
    the trial fails in the evaluator (DimMismatch)."""
    sigma = instance["sigma_ab"]
    instance["sigma_ab"] = type(sigma)(sigma, (sigma.dim,))


def _zero_channel(instance):
    """stronger-mono's channel with every Kraus operator scaled to zero (past the trace-
    preservation check of the constructor): the chunk stacks, and then PetzMap finds a
    reference image of zero trace in this row only (SingularSigma)."""
    channel = instance["channel"]
    zero = KrausChannel.__new__(KrausChannel)
    vars(zero).update(vars(channel), kraus=tuple(0 * k for k in channel.kraus))
    instance["channel"] = zero


def _unmatched_middle(instance):
    """three-state-chain's tau replaced by rho: the chunk stacks, and then neither
    sigma_B = tau_B nor tau_B = omega_B holds in this row only (MarginalMismatch)."""
    instance["tau"] = instance["rho"]


def failing_at(kind, bad_trial, breaks, raised=None):
    """The exploration or suite ``kind`` with a sampler that passes trial bad_trial's instance
    to ``breaks``; each call of its evaluator that raises appends the lead shape of its first
    state's matrix ((n,) for a stacked chunk of n trials, () for one trial) to raised."""
    suite = EXPLORATIONS.get(kind) or SUITES[kind]

    def sample(rng, dims, eps):
        instance = suite.sample(rng, dims, eps)
        if int(rng.bit_generator.seed_seq.entropy[-1]) == bad_trial:
            breaks(instance)
        return instance

    def run(instance, tol, opts):
        try:
            return suite.run(instance, tol, opts)
        except QelabError:
            if raised is not None:
                raised.append(next(iter(instance.values())).mat.shape[:-2])
            raise

    return dataclasses.replace(suite, sample=sample, run=run)


@pytest.mark.parametrize("chunk", [3, 50])
@pytest.mark.parametrize("kind, breaks, error, message", [
    ("ptrace-petz", _flat_reference, DimMismatch, "states live on different dims"),
    ("stronger-mono", _zero_channel, SingularSigma, "channel output of the reference has ~zero"),
    ("three-state-chain", _unmatched_middle, MarginalMismatch,
     "need sigma_B = tau_B or tau_B = omega_B"),
])
def test_an_error_inside_a_chunk_raises_as_its_trial_alone(
    kind, breaks, error, message, chunk, monkeypatch
):
    raised = []
    registry = EXPLORATIONS if kind in EXPLORATIONS else SUITES
    monkeypatch.setitem(registry, kind, failing_at(kind, 4, breaks, raised))
    errors = []
    for size in (1, chunk):
        monkeypatch.setattr(suites, "CHUNK_TRIALS", size)
        with pytest.raises(error) as info:
            list(iter_trials(registry[kind], (2, 2, 2), 9, 3))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(f"{kind} trial 4: {message}")
    # trial 4's chunk of several trials raises in the evaluator when it stacks, and never
    # reaches it when it cannot
    assert ((min(chunk, 9),) in raised) == (breaks is not _flat_reference)


@pytest.mark.parametrize("name, registry, trials, chunks", [
    ("ptrace-petz", EXPLORATIONS, 40, [32, 8]),
    ("stronger-monotonicity", SUITES, 3, [2, 1]),
])
def test_a_chunk_is_sized_by_the_operators_its_sampler_built(name, registry, trials, chunks):
    # at dims 4,4,4 ptrace-petz's states act on the first two subsystems (16 x 16), and
    # stronger-monotonicity's on all three (64 x 64): 128 KiB holds 32 and 2 such operands.
    # The runner is called once per trial, on its row of its chunk's stacks.
    seen = []

    def run(instance, tol, opts):
        lead = next(iter(instance.values())).mat.shape[:-2]
        seen.append(lead[0] if lead else 1)

    suite = dataclasses.replace(registry[name], run=run)
    assert len(list(iter_trials(suite, (4, 4, 4), trials, 0))) == trials
    assert seen == [size for size in chunks for _ in range(size)]


def test_a_stacked_chunk_runs_once_per_trial_and_evaluates_once():
    # ssa's 5 trials at 2,2,2 are one stacked chunk: its runner is called per trial, so a
    # suite's run calls count its trials, and its checker once, on the stacks
    runs = []
    suite = SUITES["ssa"]

    def run(instance, tol, opts):
        runs.append(instance)
        return suite.run(instance, tol, opts)

    checker = checks.check_ssa_strengthened
    with mock.patch.object(checks, "check_ssa_strengthened", side_effect=checker) as spy:
        triples = list(iter_trials(dataclasses.replace(suite, run=run), (2, 2, 2), 5, 3))
    assert len(runs) == 5
    assert spy.call_count == 1
    assert [trial for trial, _, _ in triples] == list(range(5))


def test_stronger_mono_pushes_each_state_through_the_channel_once():
    apply = KrausChannel.apply
    with mock.patch.object(KrausChannel, "apply", autospec=True, side_effect=apply) as spy:
        triples = list(iter_trials(EXPLORATIONS["stronger-mono"], (2, 2, 2), 7, 5))
    assert spy.call_count == 2  # rho and sigma of the one chunk of 7
    for _, inst, result in triples:
        # the recovery from a PetzMap that pushes sigma through the channel itself
        rho, channel = inst["rho"], inst["channel"]
        recovered = PetzMap(channel, inst["sigma"]).apply(channel.apply(rho.mat))
        dist = result.quantities["recovery_distance"]
        assert trace_norm(rho.mat - recovered).hex() == dist.hex()
