"""Tests for the seeded suite registry: sampling, replay, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab.channels import KrausChannel, PetzMap
from qelab.errors import (
    BadConfig,
    BadTrace,
    DimMismatch,
    MarginalMismatch,
    NonFinite,
    NotHermitian,
    NotPSD,
    QelabError,
    SingularSigma,
)
from qelab.linalg import trace_norm
from qelab.results import as_record, records_to_csv, records_to_json
from qelab.serialize import deserialize_instance, serialize_instance
from qelab.states import DensityMatrix
from qelab import checks, states, suites
from qelab.suites import (
    EXPLORATIONS,
    SUITES,
    explore_conjecture,
    iter_results,
    run_suite,
    run_trial,
    trial_rng,
)
from qelab.tolerances import DEFAULT_EPS, TOL_IDENTITY, TOL_INEQ
from helpers import markov_spec

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
README = Path(__file__).resolve().parents[1] / "README.md"
EXPLORATION_ORDER = ["stronger-mono", "ptrace-petz", "cmi-petz", "trotter-monotone"]
# The check rows with a value that has no stack: their sampler returns it as a list, one
# item per trial.  A chunk of them is split by the key sets of its trials' instances, and a
# group whose values stack (overlap-chain's, with or without sigma_base and mu) is evaluated
# on stacks; markov-roundtrip's MarkovSpec and twirl-identity's ints and raw matrix run one
# trial at a time.  A chunk of any other row is evaluated on its stacks.
LIST_ROWS = ["overlap-chain", "markov-roundtrip", "twirl-identity"]

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
    instance = suite.sample([trial_rng(3, name, trial) for trial in range(8)], (2, 2, 2),
                            DEFAULT_EPS)
    for trial in range(8):
        keys = set(suites._instance_row(instance, trial))
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


def _is_the_generator_of_its_key(ours, seed, name, trial):
    theirs = np.random.default_rng([seed, suites.SUITE_INDEX[name], trial])
    assert ours.bit_generator.state == theirs.bit_generator.state
    # the trial is the last entry of the key, which failing_at reads
    assert ours.bit_generator.seed_seq.entropy == theirs.bit_generator.seed_seq.entropy
    assert ours.bit_generator.seed_seq.entropy[-1] == trial
    assert ours.integers(1 << 62, size=4).tolist() == theirs.integers(1 << 62, size=4).tolist()
    assert ours.random(3).tolist() == theirs.random(3).tolist()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 10**30])
def test_trial_rng_is_the_generator_of_its_key(seed):
    for name, trial in itertools.product(("ssa", "stronger-mono"), (0, 31, 10**5)):
        _is_the_generator_of_its_key(trial_rng(seed, name, trial), seed, name, trial)
    # chunks whose keys have one, two and three words for the trial, shorter and longer than
    # _VECTOR_MIX_TRIALS: a trial of more than one word takes one SeedSequence a key at any length
    few = [0, 31, 2**32 - 1, 2**32, 10**5, 2**64 + 3, 2**40]
    many = few + [2**32 + 7 * k if k % 3 else 2**64 + k for k in range(suites._VECTOR_MIX_TRIALS)]
    for name, trials in itertools.product(("ssa", "stronger-mono"), (few, many)):
        for ours, trial in zip(suites.trial_rngs(seed, name, trials), trials, strict=True):
            _is_the_generator_of_its_key(ours, seed, name, trial)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        trial_rng(-1 - seed, "ssa", 0)
    for n in (5, suites._VECTOR_MIX_TRIALS, 100):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            suites.trial_rngs(-1 - seed, "ssa", range(n))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            suites.trial_rngs(seed, "ssa", [*range(n - 1), -1 - seed])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("first", [0, 2**32 - 19, 2**32 - 8, 2**64 - 8])
def test_a_chunk_at_the_vectorised_mix_size_holds_the_generators_of_its_keys(first, offset):
    # the chunk sizes either side of the switch to the vectorised mix, with one-word keys (up to
    # 2**32 - 1 at first = 2**32 - 19) and with keys of two or three words, which never switch
    trials = range(first, first + suites._VECTOR_MIX_TRIALS + offset)
    for seed in (3, 2**33):
        for ours, trial in zip(suites.trial_rngs(seed, "ptrace-petz", trials), trials, strict=True):
            _is_the_generator_of_its_key(ours, seed, "ptrace-petz", trial)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 10**30]) | st.integers(0, 2**80),
    trials=st.one_of(*(st.lists(st.sampled_from([t for t in (0, 2**32 - 1, 2**32) if t <= top])
                                | st.integers(0, top), min_size=low, max_size=high)
                       for low, high, top in ((1, 12, 2**48), (40, 48, 2**32 - 1), (40, 48, 2**48)))),
    name=st.sampled_from(sorted(suites.SUITE_INDEX)),
)
def test_trial_rngs_are_the_generators_of_their_keys(seed, trials, name):
    # each stream of a chunk is seeded as default_rng seeds its key alone, in chunks short
    # enough for one SeedSequence a key and long enough for the vectorised mix, which a chunk
    # of one-word trials takes and one with a larger trial does not
    for ours, trial in zip(suites.trial_rngs(seed, name, trials), trials, strict=True):
        _is_the_generator_of_its_key(ours, seed, name, trial)


# The SVDs a 32-trial exploration chunk at 2,2,2 takes: the trace norms it reports.  Its
# tolerance verdicts (Hermiticity, trace preservation, unitality) take none, and its relative
# entropies take no support-leak verdict at all: every sigma they see has full support.
EXPLORATION_SVDS = {
    "stronger-mono": [("trace_norm", (32, 8, 8))],
    "ptrace-petz": [("trace_norm", (32, 4, 4))],
    "cmi-petz": [("trace_norm", (1, 32, 8, 8))],
    "trotter-monotone": [],
}


@pytest.mark.parametrize("kind", sorted(EXPLORATIONS))
def test_an_exploration_chunk_takes_only_the_svds_it_reports(kind, monkeypatch):
    calls = []
    real = np.linalg.svd
    # frame 1 is linalg._singular_values, through which max_sv and trace_norm take an SVD
    monkeypatch.setattr(np.linalg, "svd", lambda x, *a, **k: calls.append(
        (sys._getframe(2).f_code.co_name, np.shape(x))) or real(x, *a, **k))
    suites._run_chunk(EXPLORATIONS[kind], (2, 2, 2), 0, range(32), DEFAULT_EPS, TOL_INEQ, {})
    assert calls == EXPLORATION_SVDS[kind]


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


def test_the_markov_roundtrip_checker_gives_the_suites_record():
    suite = SUITES["markov-roundtrip"]
    instance, result = run_trial(suite, (2, 2, 2), 42, 0, DEFAULT_EPS, TOL_INEQ)
    assert _bits(checks.check_markov_roundtrip(instance["spec"])) == _bits(result)
    q, residuals = result.quantities, ["r_log", "r_petz", "r_recon_ab", "r_recon_bc", "r_surrogate"]
    assert result.passed and list(q) == ["cmi"] + residuals
    assert result.slack == min([checks.MARKOV_CMI_TOL - q["cmi"]]
                               + [checks.MARKOV_RESIDUAL_TOL - q[key] for key in residuals])


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
    rng = trial_rng(seed, kind, report["worst_trial"])
    expected = np.random.default_rng([seed, 100 + index, report["worst_trial"]])
    assert rng.bit_generator.state == expected.bit_generator.state
    suite = EXPLORATIONS[kind]
    instance = suites._instance_row(suite.sample([rng], dims, DEFAULT_EPS), 0)
    assert serialize_instance(instance) == report["worst_instance"]
    payload = json.loads(json.dumps(report["worst_instance"]))
    replayed = suite.run(deserialize_instance(payload), TOL_INEQ, {})
    assert replayed.slack == report["min_slack"]


def _bits(result):
    return [result.name, result.slack.hex(), result.tolerance, bool(result.extra_ok)] + [
        (key, value.hex()) for key, value in result.quantities.items()
    ]


def _lead(value):
    """The lead shape of a list or array, of a state's matrix or of a channel's Kraus
    operators: (n,) for n rows."""
    if isinstance(value, (list, np.ndarray)):
        return (len(value),)
    return (value.mat if hasattr(value, "mat") else value.kraus[0]).shape[:-2]


def _list_valued(name):
    """The rows whose sampler returns a value as a list, seen on a chunk of one."""
    instance = SUITES[name].sample([trial_rng(0, name, 0)], (2, 2, 2), DEFAULT_EPS)
    return any(isinstance(value, list) for value in instance.values())


def test_the_stacked_rows_are_those_whose_values_all_stack():
    # every sampler draws a chunk's instance with one row per stream: a stack, an array or,
    # for a value with no stack, a list
    assert [name for name in SUITES if _list_valued(name)] == LIST_ROWS
    for name in EXPECTED_ORDER + EXPLORATION_ORDER:
        suite = EXPLORATIONS.get(name) or SUITES[name]
        rngs = [trial_rng(0, name, trial) for trial in range(3)]
        instance = suite.sample(rngs, (2, 2, 2), DEFAULT_EPS)
        assert set(instance) == INSTANCE_KEYS[name] | OPTIONAL_KEYS.get(name, set())
        assert all(_lead(value) == (3,) for value in instance.values()), name
        # on no streams the sampler draws nothing and still builds every operator
        empty = suite.sample([], (2, 2, 2), DEFAULT_EPS)
        assert all(_lead(value) == (0,) for value in empty.values()), name


def test_readme_names_the_rows_that_run_one_trial_at_a_time():
    # the table under README's "Trials are evaluated in chunks", one row per value type
    section = README.read_text(encoding="utf-8").split("### Trials are evaluated in chunks")[1]
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    listed = [name for line in table for name in re.findall(r"`([a-z-]+)`", line.split("|")[1])]
    assert sorted(listed) == sorted(name for name in SUITES if _list_valued(name))


@pytest.mark.parametrize("kind", EXPLORATION_ORDER + EXPECTED_ORDER)
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
        triples = [(t, inst(), r) for t, inst, r in iter_results(suite, dims, 7, seed)]
    assert [trial for trial, _, _ in triples] == list(range(7))
    for trial, instance, result in triples:
        alone_instance, alone = run_trial(suite, dims, seed, trial, DEFAULT_EPS, TOL_INEQ)
        assert serialize_instance(instance) == serialize_instance(alone_instance)
        assert _bits(result) == _bits(alone)
        # alone is itself a chunk (of one), so each trial is also held to the 2-D
        # evaluation that replay runs on its dumped instance
        blob = json.loads(json.dumps(serialize_instance(instance)))
        assert _bits(result) == _bits(suite.run(deserialize_instance(blob), TOL_INEQ, {}))


def _flat_reference(instance, row):
    """ptrace-petz's reference on one flat subsystem.  A stack holds one dims for all its
    rows, so a chunk of several cannot hold it and its sampler raises; alone, in the chunk of
    one, the trial fails in the evaluator (DimMismatch)."""
    sigma = instance["sigma_ab"]
    if len(sigma.mat) > 1:
        raise DimMismatch("a stack holds one dims for all its rows")
    instance["sigma_ab"] = type(sigma)(sigma, (sigma.dim,))


def _zero_channel(instance, row):
    """stronger-mono's channel with every Kraus operator of the row scaled to zero (past the
    trace-preservation check of the constructor): the chunk stacks, and then PetzMap finds a
    reference image of zero trace in this row only (SingularSigma)."""
    channel = instance["channel"]
    kraus = tuple(np.array(k) for k in channel.kraus)
    for k in kraus:
        k[row] = 0
    zero = KrausChannel.__new__(KrausChannel)
    vars(zero).update(vars(channel), kraus=kraus)
    instance["channel"] = zero


def _unmatched_middle(instance, row):
    """three-state-chain's tau replaced by rho in the row: the chunk stacks, and then neither
    sigma_B = tau_B nor tau_B = omega_B holds in this row only (MarginalMismatch)."""
    tau = np.array(instance["tau"].mat)
    tau[row] = instance["rho"].mat[row]
    instance["tau"] = DensityMatrix(tau, instance["tau"].dims)


def _redrawn(key, corrupt):
    """A break that builds the value under ``key`` again from its matrices with the row's
    matrices passed through ``corrupt``, as if that row's draw had come out so: on a chunk of
    several the constructor validates the stack and meets the bad draw in that row."""

    def breaks(instance, row):
        value = instance[key]
        if isinstance(value, KrausChannel):
            kraus = [np.array(k) for k in value.kraus]
            for k in kraus:
                k[row] = corrupt(k[row])
            instance[key] = KrausChannel(kraus)
        else:
            mat = np.array(value.mat)
            mat[row] = corrupt(mat[row])
            instance[key] = DensityMatrix(mat, value.dims)

    return breaks


def _with_nan(m):
    m = m.copy()
    m[0, 1] = np.nan
    return m


def _skewed(m):
    m = m.copy()
    m[0, 1] += 1e-3
    return m


def _negative_eigenvalue(m):
    return np.diag([1.5, -0.5] + [0.0] * (len(m) - 2)).astype(complex)


def failing_at(kind, bad_trial, breaks, raised=None, drawn=None):
    """The exploration or suite ``kind`` with a sampler that passes its instance and trial
    bad_trial's row in it, its index in the chunk's stacks, to ``breaks``.  Each call of its
    evaluator that raises appends the lead shape of its first state's matrix ((n,) for a
    chunk of n trials, (1,) for a trial alone) to raised; each sampler call whose break
    raises appends (class, message, lead shape) to drawn."""
    suite = EXPLORATIONS.get(kind) or SUITES[kind]

    def sample(rngs, dims, eps):
        instance = suite.sample(rngs, dims, eps)
        for row, stream in enumerate(rngs):
            if int(stream.bit_generator.seed_seq.entropy[-1]) == bad_trial:
                try:
                    breaks(instance, row)
                except QelabError as exc:
                    if drawn is not None:
                        drawn.append((type(exc), str(exc), (len(rngs),)))
                    raise
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
            list(iter_results(registry[kind], (2, 2, 2), 9, 3))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(f"{kind} trial 4: {message}")
    # trial 4's chunk of several trials raises in the evaluator when it stacks, and never
    # reaches it when it cannot
    assert ((min(chunk, 9),) in raised) == (breaks is not _flat_reference)


@pytest.mark.parametrize("chunk", [3, 50])
@pytest.mark.parametrize("kind, breaks, error, message", [
    ("cmi-petz", _redrawn("rho", _with_nan), NonFinite, "matrix has a NaN or infinite entry"),
    ("ptrace-petz", _redrawn("sigma_ab", _skewed), NotHermitian,
     "matrix deviates from Hermitian by"),
    ("trotter-bound", _redrawn("rho", _negative_eigenvalue), NotPSD,
     "minimum eigenvalue -5.000e-01 below"),
    ("bsw-identity", _redrawn("omega", lambda m: 1.5 * m), BadTrace,
     "trace 1.5 deviates from 1"),
    ("stronger-mono", _redrawn("channel", lambda k: 1.1 * k), DimMismatch,
     "Kraus operators violate trace preservation by"),
    # sum K^dag K overflows: NonFinite, with no numpy warning on the way
    ("stronger-mono", _redrawn("channel", lambda k: 1e200 * k), NonFinite,
     "matrix has a NaN or infinite entry"),
], ids=["nan", "not-hermitian", "not-psd", "bad-trace", "not-trace-preserving",
        "kraus-overflow"])
def test_a_bad_draw_inside_a_chunk_raises_as_its_trial_alone(
    kind, breaks, error, message, chunk, monkeypatch
):
    drawn = []
    registry = EXPLORATIONS if kind in EXPLORATIONS else SUITES
    monkeypatch.setitem(registry, kind, failing_at(kind, 4, breaks, drawn=drawn))
    errors = []
    for size in (1, chunk):
        monkeypatch.setattr(suites, "CHUNK_TRIALS", size)
        with pytest.raises(error) as info:
            list(iter_results(registry[kind], (2, 2, 2), 9, 3))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    prefix = f"{kind} trial 4: "
    assert errors[0][1].startswith(prefix + message)
    # the chunk's stacked validation met the bad draw first, with the class and message
    # that the trial gets alone
    alone = errors[0][1][len(prefix):]
    assert drawn[0] == (error, alone, (1,))
    assert (error, alone, (min(chunk, 9),)) in drawn


@pytest.mark.parametrize("name, registry, trials, chunks, dims", [
    ("ptrace-petz", EXPLORATIONS, 40, [32, 8], (4, 4, 4)),
    ("stronger-monotonicity", SUITES, 3, [2, 1], (4, 4, 4)),
    ("stronger-mono", EXPLORATIONS, 100, [100], (2, 2, 2)),
])
def test_a_chunk_is_sized_by_the_operators_its_sampler_built(name, registry, trials, chunks, dims):
    # at dims 4,4,4 ptrace-petz's states act on the first two subsystems (16 x 16), and
    # stronger-monotonicity's on all three (64 x 64): 128 KiB holds 32 and 2 such operands.
    # At 2,2,2 it holds 128 operands of 8 x 8, so a 100-trial exploration is one chunk.
    # The runner is called once per trial, on its row of its chunk's stacks.
    seen = []

    def run(instance, tol, opts):
        (n,) = next(iter(instance.values())).mat.shape[:-2]
        seen.append(n)

    suite = dataclasses.replace(registry[name], run=run)
    assert len(list(iter_results(suite, dims, trials, 0))) == trials
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
        triples = list(iter_results(dataclasses.replace(suite, run=run), (2, 2, 2), 5, 3))
    assert len(runs) == 5
    assert spy.call_count == 1
    assert [trial for trial, _, _ in triples] == list(range(5))


@pytest.mark.parametrize("name, checker", [
    ("lieb-concavity", "check_lieb_concavity"),
    ("carlen-lieb-concavity", "check_cl_concavity"),
    ("golden-thompson", "check_golden_thompson"),
    ("audenaert-powers-stormer", "check_audenaert_ps"),
])
def test_an_appendix_chunk_evaluates_once_on_its_stacks(name, checker):
    # the appendix rows stack like the others: 5 trials at 2,2,2 are one chunk, and their
    # checker runs once, on (5, 6, 6) stacks, and returns one result per trial
    real = getattr(checks, checker)
    with mock.patch.object(checks, checker, side_effect=real) as spy:
        triples = run_suite(name, (2, 2, 2), 5, 3)
    assert spy.call_count == 1
    assert all(_lead(value) == (5,) for key, value in spy.call_args.kwargs.items() if key != "tol")
    assert [trial for trial, _, _ in triples] == list(range(5))


@pytest.mark.parametrize("name, dims, size", [
    ("twirl-identity", (16, 16), 1),  # x is 256 x 256
    ("twirl-identity", (8, 8), 2),
    ("twirl-identity", (2, 2, 2), 128),
    ("golden-thompson", (2, 2, 2), 128),  # a and b are 6 x 6
])
def test_a_chunk_is_sized_by_the_raw_matrices_its_sampler_drew(name, dims, size):
    # the last axis of an array value counts as an operator dimension
    assert suites._chunk_size(SUITES[name], dims) == size


def _probed_chunk_size(suite, dims):
    """The chunk size read from the suite's instance on no streams, which draws nothing: the
    largest operator (a state's or channel's dimension, an array's last axis) among its
    values, 1 when that instance raises.  The reference for the rule of Suite.dim."""
    try:
        instance = suite.sample([], dims, DEFAULT_EPS)
    except QelabError:
        return 1
    d = max(1, *(v.shape[-1] if isinstance(v, np.ndarray) else
                 max(getattr(v, "dim", 1), getattr(v, "d_in", 1), getattr(v, "d_out", 1))
                 for v in instance.values()))
    return max(1, min(suites.CHUNK_TRIALS, states._CHUNK_ENTRIES // (d * d)))


CHUNK_DIMS = [(2, 2, 2), (4, 4, 4), (2, 3, 2), (3, 2, 4), (3, 3, 3), (2, 2), (8, 8), (16, 16)]


@pytest.mark.parametrize("name", list(SUITES) + list(EXPLORATIONS))
def test_a_chunk_is_sized_from_the_dims_as_a_probe_instance_sizes_it(name):
    suite = EXPLORATIONS.get(name) or SUITES[name]
    sizes = []
    for dims in CHUNK_DIMS:
        try:
            dims = suite.check_dims(dims)
        except BadConfig:
            continue
        sizes.append((dims, suites._chunk_size(suite, dims), _probed_chunk_size(suite, dims)))
    assert sizes and all(rule == probed for _, rule, probed in sizes), sizes


def _stacked_operands(value):
    """The arrays an instance value stacks: an operator's matrix (for a row, the stack it is
    a view of), each Kraus operator of a channel, an array, and those of a list's items and
    of a MarkovSpec's block factors."""
    if isinstance(value, states.SubnormalizedOperator):
        yield value.mat if value.mat.ndim > 2 or value.mat.base is None else value.mat.base
    elif isinstance(value, KrausChannel):
        yield from value.kraus
    elif isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, states.MarkovSpec)):
        items = value if isinstance(value, list) else value.ab_factors + value.bc_factors
        for item in items:
            yield from _stacked_operands(item)


@pytest.mark.parametrize("name", list(SUITES) + list(EXPLORATIONS))
def test_a_full_chunk_keeps_each_stacked_operand_within_the_entry_cap(name):
    # a chunk of several trials holds no stacked operand of more than _CHUNK_ENTRIES entries
    # (128 KiB), a Kraus stack counted per operator; a chunk of one is a lone trial, whose
    # operator may be larger
    suite = EXPLORATIONS.get(name) or SUITES[name]
    sizes = []
    for dims in CHUNK_DIMS:
        try:
            dims = suite.check_dims(dims)
        except BadConfig:
            continue
        n = suites._chunk_size(suite, dims)
        if n > 1:
            rngs = [trial_rng(0, name, trial) for trial in range(n)]
            instance = suite.sample(rngs, dims, DEFAULT_EPS)
            sizes.append((dims, n, max(a.size for v in instance.values()
                                       for a in _stacked_operands(v))))
    assert sizes and all(size <= states._CHUNK_ENTRIES for _, _, size in sizes), sizes


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 4)])
def test_markov_dim_is_the_largest_block_factor_its_sampler_draws(dims):
    # a MarkovSpec's factors are d_a * dl and dr * d_c with dl, dr in {1, 2}; 40 trials reach 2
    specs = SUITES["markov-roundtrip"].sample([trial_rng(0, "markov-roundtrip", t)
                                               for t in range(40)], dims, DEFAULT_EPS)["spec"]
    drawn = {f.dim for spec in specs for f in spec.ab_factors + spec.bc_factors}
    assert max(drawn) == SUITES["markov-roundtrip"].dim(dims)


@pytest.mark.parametrize("name, traces", [
    ("ssa", 3),
    ("bsw-identity", 6),
    ("super-ssa", 6),
    ("squashed-proxy", 4),  # AB, B, BC and AC; the surrogate's AC is no state's marginal
    ("trotter-bound", 3),
    ("markov-roundtrip", 15),  # one state per trial
])
def test_a_chunk_takes_each_partial_trace_of_a_state_once(name, traces, monkeypatch):
    real, taken = states.ptrace, []
    monkeypatch.setattr(states, "ptrace", lambda x, dims, keep: taken.append(
        (x, tuple(dims), tuple(sorted(keep)))) or real(x, dims, keep))
    triples = run_suite(name, (2, 2, 2), 5, 3)
    assert len(triples) == 5
    assert len({(id(x), dims, keep) for x, dims, keep in taken}) == len(taken) == traces


def test_stronger_mono_pushes_each_state_through_the_channel_once():
    apply = KrausChannel.apply
    with mock.patch.object(KrausChannel, "apply", autospec=True, side_effect=apply) as spy:
        runs = iter_results(EXPLORATIONS["stronger-mono"], (2, 2, 2), 7, 5)
        triples = [(t, inst(), r) for t, inst, r in runs]
    assert spy.call_count == 2  # rho and sigma of the one chunk of 7
    for _, inst, result in triples:
        # the recovery from a PetzMap that pushes sigma through the channel itself
        rho, channel = inst["rho"], inst["channel"]
        recovered = PetzMap(channel, inst["sigma"]).apply(channel.apply(rho.mat))
        dist = result.quantities["recovery_distance"]
        assert trace_norm(rho.mat - recovered).hex() == dist.hex()


def test_stronger_mono_decomposes_each_operator_once(monkeypatch):
    # rho, sigma and their two channel images, each one stacked eigh for the chunk of 7: the
    # Petz map reads the image of sigma that the relative entropy of the images decomposed
    real, taken = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: taken.append(
        (np.shape(a), np.asarray(a).tobytes())) or real(a, *args, **kw))
    assert len(list(iter_results(EXPLORATIONS["stronger-mono"], (2, 2, 2), 7, 5))) == 7
    assert len(set(taken)) == len(taken) == 4


def test_three_state_chain_decomposes_its_surrogate_once(monkeypatch):
    # one stacked eigh per operator of the chunk of 5: the embedded log terms, the exponent,
    # the surrogate and rho; the surrogate's relative entropy and root links share its one
    real, taken = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: taken.append(
        (np.shape(a), np.asarray(a).tobytes())) or real(a, *args, **kw))
    assert len(run_suite("three-state-chain", (2, 2, 2), 5, 3)) == 5
    assert len(set(taken)) == len(taken) == 4


def _spec_bits(spec):
    """float.hex of every weight and of every entry of every block factor of a MarkovSpec."""
    factors = [f.mat for f in spec.ab_factors + spec.bc_factors]
    return ([w.hex() for w in spec.weights], [f.shape for f in factors],
            [float(x).hex() for f in factors for x in np.concatenate([f.real, f.imag]).ravel()])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    dims=st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2, 4)]),
)
def test_the_markov_sampler_draws_each_spec_as_one_stream_alone(seed, n, dims):
    # the factors of one dimension are formed as one stack, with each factor's bits and each
    # stream left where the block-by-block loop of one stream leaves it
    rngs = [trial_rng(seed, "markov-roundtrip", trial) for trial in range(n)]
    alone = [trial_rng(seed, "markov-roundtrip", trial) for trial in range(n)]
    specs = suites._sample_markov(rngs, dims, DEFAULT_EPS)["spec"]
    loop = [markov_spec(rng, dims[0], dims[2]) for rng in alone]
    assert [_spec_bits(spec) for spec in specs] == [_spec_bits(spec) for spec in loop]
    assert [spec.d_b for spec in specs] == [spec.d_b for spec in loop]
    assert [rng.bit_generator.state for rng in rngs] == [rng.bit_generator.state for rng in alone]


@pytest.mark.parametrize("scaled", ["all", "none", "some"])
def test_an_overlap_chain_chunk_is_evaluated_by_key_set_with_each_trials_bits(scaled, monkeypatch):
    suite, seed = SUITES["overlap-chain"], 11
    with_mu = [suite.sample([trial_rng(seed, "overlap-chain", t)], (2, 2, 2), DEFAULT_EPS)["mu"][0]
               is not None for t in range(40)]
    pick = {"all": [t for t in range(40) if with_mu[t]][:5],
            "none": [t for t in range(40) if not with_mu[t]][:5], "some": list(range(8))}[scaled]
    assert {"all": {True}, "none": {False}, "some": {True, False}}[scaled] == {with_mu[t] for t in pick}
    stacks = []
    check = checks.check_overlap_chain
    monkeypatch.setattr(checks, "check_overlap_chain",
                        lambda rho, sigma, tol, **scaled: stacks.append(rho.mat.shape)
                        or check(rho, sigma, tol, **scaled))
    chunk, stacked, results = suites._run_chunk(suite, (2, 2, 2), seed, pick, DEFAULT_EPS,
                                                TOL_INEQ, {})
    rows = [(trial, suites._instance_row(stacked, row), result)
            for row, (trial, result) in enumerate(zip(chunk, results))]
    # one stacked evaluation per key set, its rows in trial order
    assert sorted(stacks) == sorted((sum(with_mu[t] == m for t in pick), 8, 8)
                                    for m in {with_mu[t] for t in pick})
    assert [trial for trial, _, _ in rows] == pick
    for trial, instance, result in rows:
        assert ("mu" in instance) == with_mu[trial] and ("sigma_base" in instance) == with_mu[trial]
        alone_instance, alone = run_trial(suite, (2, 2, 2), seed, trial, DEFAULT_EPS, TOL_INEQ)
        assert serialize_instance(instance) == serialize_instance(alone_instance)
        assert _bits(result) == _bits(alone)
        blob = json.loads(json.dumps(serialize_instance(instance)))
        assert _bits(result) == _bits(suite.run(deserialize_instance(blob), TOL_INEQ, {}))

