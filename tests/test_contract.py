"""The operand-size, split and form contracts: an operand of another size, a state on another
subsystem split, a 4-D operand or one with a NaN or infinite entry, is one typed error at every
entry.

Each row of SUITES and EXPLORATIONS, with one operand taken from the same trial sampled on
another total dimension, raises a QelabError in process and exits 2 through ``qelab replay``
with one ``error:`` line; the public constructors and entropy functionals raise DimMismatch.
With one state relabelled on another split of its dimension, a row either gives the bits it
gave before (it does not read the split) or raises a QelabError and replays to one
``error: split mismatch`` line and exit 2.  A 4-D operand, or a NaN or infinite entry, of a
public constructor, entropy functional or checker raises DimMismatch or NonFinite, and a dump
whose first matrix holds NaN or Infinity replays to one ``error:`` line and exit 2.  Each rule is
written once, in linalg, and no other module spells it.

The parameter contract: an order, weight, count or grid that is empty, NaN, infinite, outside
its window, not whole where it counts, or 10**400, is the entry's own QelabError at every
public entry and CLI flag, and a dump that holds one replays to one error line and exit 2.  Its
rule is written once, errors.need, and no other module raises BadAlpha or defines need.
"""

from __future__ import annotations

import ast
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import qelab
from qelab import cli, suites
from qelab.channels import (
    KrausChannel,
    PetzMap,
    random_channel,
    random_unital_channel,
    twirl_mc,
)
from qelab.checks import (
    check_audenaert_ps,
    check_cl_concavity,
    check_dw_tripartite,
    check_golden_thompson,
    check_lieb_concavity,
    check_markov_roundtrip,
    check_monotonicity,
    check_renyi_monotonicity,
    check_sbw_limit,
    check_twirl_identity,
    dw_alpha_profile,
    markov_characterizations,
    trotter_sequence,
)
from qelab.entropy import (
    exp_log_combination,
    overlap_lower_bound,
    relative_entropy,
    renyi,
    von_neumann,
)
from qelab.errors import (
    BadAlpha,
    BadConfig,
    BadRank,
    DimMismatch,
    NonFinite,
    QelabError,
)
from qelab.linalg import Hermitian, embed
from qelab.serialize import serialize_instance
from qelab.states import (
    DensityMatrix,
    SubnormalizedOperator,
    random_density,
    random_unitaries,
    regularize,
)
from qelab.suites import EXPLORATIONS, SUITES, bind_instance, iter_results, trial_rng

DIMS = (2, 2, 2)
# Other dims, in order of preference: a suite takes the first it accepts that gives the operand
# another size.  Bipartite samplers read the first two dims, and the appendix suites run at
# d = min(prod(dims), 6), so (3, 2, 2) would give them the d of (2, 2, 2).
OTHER_DIMS = [(2, 2), (3, 2), (3, 2, 2)]


def _instance(name: str, dims) -> dict:
    suite = (SUITES | EXPLORATIONS)[name]
    return suites._instance_row(suite.sample([trial_rng(0, name, 0)], dims, 1e-6), 0)


def _resized(name: str, key: str):
    """Trial 0's instance at DIMS with the operand under key taken from trial 0 at the first of
    OTHER_DIMS that the suite accepts and that gives the operand another shape."""
    suite, instance = (SUITES | EXPLORATIONS)[name], _instance(name, DIMS)
    for dims in OTHER_DIMS:
        try:
            suite.check_dims(dims)
        except BadConfig:
            continue
        other = _instance(name, dims)[key]
        if _shape(other) != _shape(instance[key]):
            return {**instance, key: other}
    raise AssertionError(f"no other dims resize {name}'s {key}")


def _shape(value):
    return value.d_in if hasattr(value, "kraus") else np.shape(getattr(value, "mat", value))


def _operands(name: str) -> list[str]:
    """The keys whose values carry a size, when there are two or more to disagree; the twirl's
    one matrix x disagrees with the dims d_a and d_b its instance holds."""
    keys = [key for key, value in _instance(name, DIMS).items() if _shape(value) != ()]
    return keys if len(keys) > 1 or name == "twirl-identity" else []


def _replay(name: str, blob: dict, tmp_path, capsys) -> tuple[int, str, str]:
    """cli.main(["replay", ...]) of a dump of trial 0 at DIMS with this serialized instance."""
    dump = {"kind": name, "worst_instance": blob} if name in EXPLORATIONS else {
        "checker": name, "dims": list(DIMS), "seed": 0, "trial": 0, "tolerance": 1e-8,
        "opts": {}, "instance": blob}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code = cli.main(["replay", str(path)])
    return (code, *capsys.readouterr())


CASES = [(name, key) for name in SUITES | EXPLORATIONS for key in _operands(name)]
# The replays that exited 4 with a numpy traceback before the rule was written once.
WERE_INTERNAL = {
    ("renyi-monotone", "rho"), ("renyi-monotone", "sigma"),
    ("lieb-concavity", "h"), ("lieb-concavity", "x1"), ("lieb-concavity", "x2"),
    ("carlen-lieb-concavity", "m"), ("carlen-lieb-concavity", "x1"),
    ("carlen-lieb-concavity", "x2"), ("golden-thompson", "a"), ("golden-thompson", "b"),
    ("audenaert-powers-stormer", "m"), ("audenaert-powers-stormer", "n"),
}


def test_the_table_covers_every_row_and_the_replays_that_were_internal_errors():
    assert WERE_INTERNAL <= set(CASES)
    with_operands = {name for name, _ in CASES}
    alone = {"markov-roundtrip", "ssa", "subadd-exp", "trotter-bound", "dw-tripartite",
             "squashed-proxy", "cmi-petz", "trotter-monotone"}  # one state, nothing to disagree
    assert with_operands | alone == set(SUITES | EXPLORATIONS)


@pytest.mark.parametrize("name,key", CASES, ids=[f"{name}-{key}" for name, key in CASES])
def test_an_operand_of_another_size_is_one_typed_error(name, key, tmp_path, capsys):
    suite, instance = (SUITES | EXPLORATIONS)[name], _resized(name, key)
    bind_instance(suite, instance, {})
    with pytest.raises(QelabError):
        suite.run(instance, 1e-8, {})

    code, out, err = _replay(name, serialize_instance(instance), tmp_path, capsys)
    assert (code, out) == (cli.EXIT_CONFIG, ""), err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    if (name, key) in WERE_INTERNAL:
        assert err.startswith("error: shape mismatch: "), err


def _splits(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The splits of a state's dimension d into one part and into two, (p, d / p) for the
    least factor p > 1, other than the state's own."""
    d = math.prod(dims)
    p = next(k for k in range(2, d + 1) if d % k == 0)
    return [other for other in [(d,), (p, d // p)] if other != dims]


SPLIT_CASES = [(name, key, other) for name in SUITES | EXPLORATIONS
               for key, value in _instance(name, DIMS).items() if isinstance(value, DensityMatrix)
               for other in _splits(value.dims)]


@pytest.mark.parametrize("name,key,other", SPLIT_CASES,
                         ids=[f"{name}-{key}-{'x'.join(map(str, other))}"
                              for name, key, other in SPLIT_CASES])
def test_a_state_on_another_split_gives_its_bits_or_one_split_error(
    name, key, other, tmp_path, capsys
):
    suite, instance = (SUITES | EXPLORATIONS)[name], _instance(name, DIMS)
    relabelled = {**instance, key: DensityMatrix(instance[key], other)}
    bind_instance(suite, relabelled, {})
    try:
        result = suite.run(relabelled, 1e-8, {})
    except QelabError:
        code, out, err = _replay(name, serialize_instance(relabelled), tmp_path, capsys)
        assert (code, out) == (cli.EXIT_CONFIG, ""), err
        assert err.startswith("error: split mismatch: ") and len(err.splitlines()) == 1, err
    else:  # the row does not read the split
        assert repr(result) == repr(suite.run(instance, 1e-8, {}))


def test_the_split_table_covers_every_row_with_a_state():
    with_states = {name for name, _, _ in SPLIT_CASES}
    assert with_states == {name for name in SUITES | EXPLORATIONS
                           if any(isinstance(v, DensityMatrix)
                                  for v in _instance(name, DIMS).values())}
    assert {(name, key) for name, key, other in SPLIT_CASES if len(other) == 2} >= {
        ("ssa", "rho"), ("trotter-bound", "rho"), ("bsw-identity", "omega")}


def _states():
    rng = np.random.default_rng(0)
    return (DensityMatrix(random_density(8, rng), DIMS),
            DensityMatrix(random_density(4, rng), (2, 2)))


API_CASES = {
    "exp-log-terms-on-8-and-4": lambda r8, s4: exp_log_combination([(1.0, r8, (0, 1)),
                                                                    (1.0, s4, (0, 1))]),
    "state-of-one-axis": lambda r8, s4: DensityMatrix(np.ones(4)),
    "kraus-of-one-axis": lambda r8, s4: KrausChannel([np.ones(2)]),
    "renyi-on-8-and-4": lambda r8, s4: renyi(0.5, r8, s4),
    "overlap-on-8-and-4": lambda r8, s4: overlap_lower_bound(r8, s4),
    # the leak test pairs the rows of rho and sigma, so a stack of rho takes a stack of sigma
    "relative-entropy-stack-on-one": lambda r8, s4: relative_entropy(
        DensityMatrix.stack([s4, s4]), DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))),
    # the same row pairing in renyi and the overlap: stacks of 3 and of 2 rows
    "renyi-stacks-of-3-and-2": lambda r8, s4: renyi(
        0.5, DensityMatrix.stack([s4] * 3), DensityMatrix.stack([s4] * 2)),
    "overlap-stacks-of-3-and-2": lambda r8, s4: overlap_lower_bound(
        DensityMatrix.stack([s4] * 3), DensityMatrix.stack([s4] * 2)),
    # splits: negative dims whose product is the side, and two unknown axes for numpy's reshape
    "state-on-negative-dims": lambda r8, s4: DensityMatrix(np.eye(8) / 8, dims=(-2, -4)),
    "embed-on-negative-dims": lambda r8, s4: embed(np.eye(2), (2, -1, -2), [0]),
}


# The messages of the rows that pin one: the row-pairing rule and the split rule.
API_MESSAGES = {
    "renyi-stacks-of-3-and-2": "rho and sigma hold different stacks: ",
    "overlap-stacks-of-3-and-2": "rho and sigma hold different stacks: ",
    "state-on-negative-dims": "split mismatch: state has dims (-2, -4), expected any dims >= 1",
    "embed-on-negative-dims": "split mismatch: embedding has dims (2, -1, -2), expected any ",
}


@pytest.mark.parametrize("case", list(API_CASES))
def test_a_public_entry_refuses_an_operand_of_another_size(case):
    with pytest.raises(DimMismatch, match="^" + re.escape(API_MESSAGES.get(case, ""))):
        API_CASES[case](*_states())


# The wordings the operand-size rule had before it was written once.
OLD_WORDINGS = re.compile(r"channel expects|dual expects|recovery map expects|reference dim|"
                          r"expected a square matrix|does not match dims")


def test_only_linalg_states_the_operand_size_rule():
    """No module but linalg.py raises the "shape mismatch" DimMismatch, and none spells an old
    wording of the rule."""
    offenders = []
    for path in sorted(Path(qelab.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if OLD_WORDINGS.search(line) or "shape mismatch" in line and path.name != "linalg.py":
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert not offenders, offenders


# The wordings the split rule had before it was written once.
OLD_SPLIT_WORDINGS = re.compile(
    r"need exactly 3 subsystems|need a bipartite split|states live on different dims|"
    r"do not multiply to|subsystem dimensions must be >= 1|a twirl takes one matrix on two parts|"
    r"trotter needs a tripartite state file|out of range for .* subsystems")


def test_only_linalg_states_the_split_rule():
    """No module but linalg.py raises the "split mismatch" DimMismatch, and none spells an old
    wording of the split, split-equality or subsystem-index rule."""
    offenders = []
    for path in sorted(Path(qelab.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if OLD_SPLIT_WORDINGS.search(line) or "split mismatch" in line and path.name != "linalg.py":
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert not offenders, offenders


# A valid operand for the other arguments of each form row.
MIXED = np.eye(4) / 4
FORM_ENTRIES = {
    "hermitian": Hermitian,
    "subnormalized": SubnormalizedOperator,
    "state": DensityMatrix,
    "kraus": lambda x: KrausChannel([x]),
    "von-neumann": von_neumann,
    "relative-entropy-rho": lambda x: relative_entropy(x, MIXED),
    "relative-entropy-sigma": lambda x: relative_entropy(MIXED, x),
    "renyi-rho": lambda x: renyi(0.5, x, MIXED),
    "renyi-sigma": lambda x: renyi(0.5, MIXED, x),
    "overlap-rho": lambda x: overlap_lower_bound(x, MIXED),
    "overlap-sigma": lambda x: overlap_lower_bound(MIXED, x),
    "monotonicity-rho": lambda x: check_monotonicity(x, MIXED, KrausChannel([np.eye(4)])),
    "monotonicity-sigma": lambda x: check_monotonicity(MIXED, x, KrausChannel([np.eye(4)])),
    "golden-thompson-a": lambda x: check_golden_thompson(x, MIXED),
    "golden-thompson-b": lambda x: check_golden_thompson(MIXED, x),
    "lieb-h": lambda x: check_lieb_concavity(x, MIXED, MIXED, 0.5),
    "lieb-x1": lambda x: check_lieb_concavity(MIXED, x, MIXED, 0.5),
    "lieb-x2": lambda x: check_lieb_concavity(MIXED, MIXED, x, 0.5),
    "carlen-lieb-m": lambda x: check_cl_concavity(x, MIXED, MIXED, 0.5),
    "carlen-lieb-x1": lambda x: check_cl_concavity(MIXED, x, MIXED, 0.5),
    "carlen-lieb-x2": lambda x: check_cl_concavity(MIXED, MIXED, x, 0.5),
    "audenaert-m": lambda x: check_audenaert_ps(x, MIXED),
    "audenaert-n": lambda x: check_audenaert_ps(MIXED, x),
    "petz-sigma": lambda x: PetzMap(KrausChannel([np.eye(4)]), x),
}


def _with_entry(value: float) -> np.ndarray:
    x = MIXED.astype(complex)
    x[0, 1] = value
    return x


# Each bad operand, and the error and message it must raise: a (1, 1, 4, 4) stack of one
# operand, which a grid stack of the primitives resembles, and one NaN or infinite entry.
FORMS = {
    "4d": (MIXED[None, None], DimMismatch,
           r"shape mismatch: \w+( \w+)? has shape \(1, 1, 4, 4\), expected a matrix or a stack$"),
    "nan": (_with_entry(np.nan), NonFinite, "matrix has a NaN or infinite entry$"),
    "inf": (_with_entry(np.inf), NonFinite, "matrix has a NaN or infinite entry$"),
    "minus-inf": (_with_entry(-np.inf), NonFinite, "matrix has a NaN or infinite entry$"),
}


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("entry", list(FORM_ENTRIES))
def test_a_public_entry_refuses_a_4d_or_non_finite_operand(entry, form):
    """A builtins exception, a numpy warning (an error here) or a returned value fails the row."""
    operand, error, message = FORMS[form]
    with pytest.raises(error, match="^" + message):
        FORM_ENTRIES[entry](operand.copy())


def _first_matrix(blob):
    """The first {"re", "im"} object of a serialized instance, depth first in key order: a
    state, a raw matrix, a channel's first Kraus operator or a spec's first factor."""
    if isinstance(blob, dict) and "re" in blob:
        return blob
    items = blob.values() if isinstance(blob, dict) else blob if isinstance(blob, list) else []
    return next((m for m in map(_first_matrix, items) if m is not None), None)


NON_FINITE_CASES = [(name, bad) for name in SUITES | EXPLORATIONS
                    for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("name,bad", NON_FINITE_CASES,
                         ids=[f"{name}-{bad}" for name, bad in NON_FINITE_CASES])
def test_a_replayed_nan_or_infinity_is_one_non_finite_line(name, bad, tmp_path, capsys):
    blob = serialize_instance(_instance(name, DIMS))
    _first_matrix(blob)["re"][0][0] = bad  # written as NaN, Infinity or -Infinity
    code, out, err = _replay(name, blob, tmp_path, capsys)
    assert (code, out, err) == (cli.EXIT_CONFIG, "", "error: matrix has a NaN or infinite entry\n")


# The form rule's wordings, which linalg.py alone spells, and the Kraus test it replaced.
FORM_WORDINGS = re.compile(r"expected a matrix or a stack|matrix has a NaN or infinite entry|"
                           r"np\.isfinite")
OLD_FORM_WORDINGS = re.compile(r"Kraus operators must be matrices|def _finite\b")


def test_only_linalg_states_the_operand_form_rule():
    """No module but linalg.py raises the form DimMismatch, spells the NonFinite of a NaN or
    infinite entry or tests an array for finite entries, and none keeps an old form test."""
    offenders = []
    for path in sorted(Path(qelab.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if OLD_FORM_WORDINGS.search(line) or FORM_WORDINGS.search(line) and path.name != "linalg.py":
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert not offenders, offenders


def test_a_petz_map_takes_a_raw_matrix_reference_as_its_state():
    """A raw-array sigma, validated by herm_eig, gives the bits of the same sigma as a state."""
    channel = random_unital_channel(4, 3, np.random.default_rng(5))
    sigma = random_density(4, np.random.default_rng(6))
    x = random_density(4, np.random.default_rng(7)).mat
    raw, state = PetzMap(channel, sigma.mat.copy()), PetzMap(channel, sigma)
    assert np.array_equal(raw.apply(x), state.apply(x))


# The operands of the parameter rows: a full-rank pair on DIMS and a unital channel, a Markov
# spec, a twirl operand on (2, 3), and the 4 x 4 operands of the appendix checkers.
_RNG = np.random.default_rng(31)
RHO, SIGMA = (regularize(random_density(8, _RNG), 1e-3, DIMS) for _ in range(2))
CHANNEL = random_unital_channel(8, 3, _RNG)
SPEC = _instance("markov-roundtrip", DIMS)["spec"]
X6 = random_density(6, _RNG).mat

# entry: (call of the parameter's value, its error, an in-window value, a value outside the
# window or None when every finite number is inside, whether the value counts); a grid entry
# takes [in-window, bad] and the empty grid, a scalar entry the bad value alone.
GRIDS = {
    "renyi": (lambda a: renyi(a, RHO, SIGMA), BadAlpha, 0.5, 1.5, False),
    "dw-alpha-profile": (lambda a: dw_alpha_profile(RHO, SIGMA, CHANNEL, a), BadAlpha, 0.5,
                         1.0, False),
    "dw-tripartite": (lambda a: check_dw_tripartite(RHO, a), BadAlpha, 0.5, 0.0, False),
    "sbw-limit": (lambda a: check_sbw_limit(RHO, SIGMA, CHANNEL, a), BadAlpha, 0.5, -0.5, False),
    "renyi-monotone": (lambda a: check_renyi_monotonicity(RHO, SIGMA, a), BadAlpha, 0.25, 1.5,
                       False),
    "carlen-lieb-alphas": (lambda a: check_cl_concavity(MIXED, MIXED, MIXED, 0.5, a), BadAlpha,
                           2.0, 0.5, False),
    "audenaert-t": (lambda t: check_audenaert_ps(MIXED, MIXED, t), BadAlpha, 0.5, 1.5, False),
    "trotter-orders": (lambda n: trotter_sequence(RHO, n), BadConfig, 1, 0, True),
    "markov-t-samples": (lambda t: markov_characterizations(RHO, t), BadConfig, 0.3, None, False),
    "markov-roundtrip-t-samples": (lambda t: check_markov_roundtrip(SPEC, t), BadConfig, 0.3,
                                   None, False),
}
SCALARS = {
    "renyi-one-order": (lambda a: renyi(a, RHO, SIGMA), BadAlpha, 0.5, 1.5, False),
    "lieb-weight": (lambda w: check_lieb_concavity(MIXED, MIXED, MIXED, w), BadAlpha, 0.5, -0.5,
                    False),
    "carlen-lieb-weight": (lambda w: check_cl_concavity(MIXED, MIXED, MIXED, w), BadAlpha, 0.5,
                           1.5, False),
    "regularize-eps": (lambda e: regularize(RHO, e), BadConfig, 0.5, 1.0, False),
    "twirl-samples": (lambda n: twirl_mc(X6, (2, 3), np.random.default_rng(0), n), DimMismatch,
                      3, 0, True),
    "twirl-identity-samples": (
        lambda n: check_twirl_identity(X6, (2, 3), np.random.default_rng(0), n), DimMismatch, 3,
        0, True),
    "density-dim": (lambda d: random_density(d, _RNG), DimMismatch, 4, 0, True),
    "density-rank": (lambda r: random_density(4, _RNG, rank=r), BadRank, 2, 5, True),
    "unitaries-dim": (lambda d: random_unitaries(2, d, _RNG), DimMismatch, 4, 0, True),
    "unitaries-count": (lambda n: random_unitaries(n, 4, _RNG), BadConfig, 2, 0, True),
    "unital-channel-dim": (lambda d: random_unital_channel(d, 2, _RNG), DimMismatch, 4, 0, True),
    "unital-channel-kraus": (lambda n: random_unital_channel(4, n, _RNG), DimMismatch, 2, -1,
                             True),
    "channel-dim": (lambda d: random_channel(d, 2, _RNG), DimMismatch, 4, 0, True),
    "channel-env-dim": (lambda n: random_channel(4, n, _RNG), DimMismatch, 2, 0, True),
    "trials": (lambda n: next(iter_results(SUITES["ssa"], DIMS, n, 0)), BadConfig, 2, 0, True),
}
BAD = {"nan": math.nan, "inf": math.inf, "minus-inf": -math.inf, "huge": 10**400}


def _bad_values(entry: str) -> dict:
    """{label: value} of the bad values an entry is fed: each of BAD, the point outside its
    window, a non-integral count, and for a grid the empty grid, each bad value on a grid after
    an in-window one."""
    _, _, good, outside, counts = (GRIDS | SCALARS)[entry]
    bad = dict(BAD, **({} if outside is None else {"outside": outside}),
               **({"non-integral": 2.5} if counts else {}))
    if entry in SCALARS:
        return bad
    return {"empty": [], **{label: [good, value] for label, value in bad.items()}}


PARAMETER_CASES = [(entry, label) for entry in GRIDS | SCALARS for label in _bad_values(entry)]


@pytest.mark.parametrize("entry,label", PARAMETER_CASES,
                         ids=[f"{entry}-{label}" for entry, label in PARAMETER_CASES])
def test_a_bad_parameter_is_the_entry_s_own_error(entry, label):
    """A builtins exception, a numpy warning (an error here) or a returned value fails the row."""
    call, error = (GRIDS | SCALARS)[entry][:2]
    with pytest.raises(error, match=" must be "):
        call(_bad_values(entry)[label])


@pytest.mark.parametrize("entry", list(GRIDS | SCALARS))
def test_an_in_window_numpy_parameter_or_whole_float_count_is_accepted(entry):
    call, _, good, _, counts = (GRIDS | SCALARS)[entry]
    for value in [np.float64(good), np.array(good)] + ([np.int64(good), float(good)] if counts
                                                       else []):
        call([value, value] if entry == "renyi-monotone" else [value] if entry in GRIDS else value)


def test_an_integral_order_runs_as_its_integer_and_a_fraction_is_refused():
    assert repr(trotter_sequence(RHO, [1, 2.0])) == repr(trotter_sequence(RHO, [1, 2]))
    with pytest.raises(BadConfig, match=r"^compression orders must be a non-empty list of "
                                        r"integers >= 1, got \[1, 2.7\]$"):
        trotter_sequence(RHO, [1, 2.7])


# Each flag and the values it is fed through cli.main: the CLI's --tol, --eps, --nmax and the
# ">= 1" of --dims; an int flag is fed the values that parse as an int.
HUGE = "1" + "0" * 400
FLAG_CASES = [(flag, value) for flag, values in (
    ("--tol", ["nan", "inf", "-inf", "0", HUGE]),
    ("--eps", ["nan", "inf", "-inf", "1", HUGE]),
    ("--nmax", ["0", "-1", HUGE]),
    ("--dims", ["2,0,2", f"2,{HUGE},2"]),
) for value in values]


@pytest.mark.parametrize("flag,value", FLAG_CASES,
                         ids=[f"{flag}-{value[:8]}" for flag, value in FLAG_CASES])
def test_a_bad_flag_is_one_config_line(flag, value, monkeypatch, capsys):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("qelab.suites.run_trial", no_trial)
    monkeypatch.delenv("QEL_SEED", raising=False)
    code = cli.main(["trotter", "--trials", "1", f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_CONFIG, ""), err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1, err
    assert f"{flag.lstrip('-')} must be " in err, err


def _dump_of(name: str, **edits) -> dict:
    """The check dump of trial 0 of a suite at DIMS, with its top-level keys edited."""
    return {"checker": name, "dims": list(DIMS), "seed": 0, "trial": 0, "tolerance": 1e-8,
            "opts": {}, "instance": serialize_instance(_instance(name, DIMS)), **edits}


def _twirl_dump_of(samples) -> dict:
    dump = _dump_of("twirl-identity")
    dump["instance"]["samples"]["value"] = samples
    return dump


# Each dump holding a bad parameter, and the line it replays to: at the parent of the
# parameter rule, the first three exited 4 with an OverflowError and the last wrote t_2.
REPLAYS = {
    "dw-alpha-huge-alpha": (_dump_of("dw-alpha", opts={"alphas": [10**400]}),
                            "config error: dump.opts.alphas must be a non-empty list of "
                            "finite numbers, got [1000"),
    "huge-tolerance": (_dump_of("ssa", tolerance=10**400),
                       "config error: dump.tolerance must be a finite number >= 0, got 1000"),
    "twirl-huge-samples": (_twirl_dump_of(10**400),
                           "error: sample count must be an integer in [1, 9223372036854775807], "
                           "got 1000"),
    "trotter-fractional-order": (_dump_of("trotter-bound", opts={"n_values": [1, 2.5]}),
                                 "config error: compression orders must be a non-empty list of "
                                 "integers >= 1, got [1, 2.5]"),
}


@pytest.mark.parametrize("case", list(REPLAYS))
def test_a_replayed_bad_parameter_is_one_error_line(case, tmp_path, capsys):
    dump, line = REPLAYS[case]
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    code = cli.main(["replay", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_CONFIG, ""), err
    assert err.startswith(line) and len(err.splitlines()) == 1, err


# The wordings of the hand-written parameter tests that errors.need replaced.
OLD_PARAMETER_WORDINGS = re.compile(
    r"must be positive and finite|must lie strictly between|need at least one (alpha|sample|"
    r"unitary|Kraus|trial)|need positive compression orders|need an ascending alpha grid|"
    r"must be in 1\.\.|must be in \[0, 1\]|must be in \(0, 1\)|must all be >= 1|"
    r"def (_is_finite|_integer|_checked_tol|_checked_eps)\b")


def test_only_errors_defines_the_parameter_rule():
    """need is defined in errors.py alone, no module raises BadAlpha but through it, serialize
    and cli import it from errors, and none spells a hand-written parameter test it replaced."""
    offenders = []
    for path in sorted(Path(qelab.__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            defines = isinstance(node, ast.FunctionDef) and node.name == "need"
            if defines and path.name != "errors.py":
                offenders.append(f"{path.name}:{node.lineno}: defines need")
            if isinstance(node, ast.Raise) and "BadAlpha" in ast.unparse(node):
                offenders.append(f"{path.name}:{node.lineno}: raises BadAlpha")
            if (path.name in ("serialize.py", "cli.py") and isinstance(node, ast.ImportFrom)
                    and "need" in [alias.name for alias in node.names] and node.module != "errors"):
                offenders.append(f"{path.name}:{node.lineno}: imports need from {node.module}")
        offenders += [f"{path.name}:{number}: {line.strip()}"
                      for number, line in enumerate(text.splitlines(), 1)
                      if OLD_PARAMETER_WORDINGS.search(line)]
    for module in ("serialize", "cli"):
        assert getattr(sys.modules[f"qelab.{module}"], "need") is qelab.errors.need, module
    assert not offenders, offenders
