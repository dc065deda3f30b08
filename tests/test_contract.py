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
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qelab
from qelab import cli, suites
from qelab.channels import KrausChannel
from qelab.checks import (
    check_audenaert_ps,
    check_cl_concavity,
    check_golden_thompson,
    check_lieb_concavity,
    check_monotonicity,
)
from qelab.entropy import (
    exp_log_combination,
    overlap_lower_bound,
    relative_entropy,
    renyi,
    von_neumann,
)
from qelab.errors import BadConfig, DimMismatch, NonFinite, QelabError
from qelab.linalg import Hermitian, embed
from qelab.serialize import serialize_instance
from qelab.states import DensityMatrix, SubnormalizedOperator, random_density
from qelab.suites import EXPLORATIONS, SUITES, bind_instance, trial_rng

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
