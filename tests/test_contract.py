"""The operand-size and split contracts: an operand of another size, or a state on another
subsystem split, is one typed error at every entry.

Each row of SUITES and EXPLORATIONS, with one operand taken from the same trial sampled on
another total dimension, raises a QelabError in process and exits 2 through ``qelab replay``
with one ``error:`` line; the public constructors and entropy functionals raise DimMismatch.
With one state relabelled on another split of its dimension, a row either gives the bits it
gave before (it does not read the split) or raises a QelabError and replays to one
``error: split mismatch`` line and exit 2.  Each rule is written once, in linalg, and no other
module spells it.
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
from qelab.entropy import exp_log_combination, overlap_lower_bound, relative_entropy, renyi
from qelab.errors import BadConfig, DimMismatch, QelabError
from qelab.linalg import embed
from qelab.serialize import serialize_instance
from qelab.states import DensityMatrix, random_density
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


def _replay(name: str, instance: dict, tmp_path, capsys) -> tuple[int, str, str]:
    """cli.main(["replay", ...]) of a dump of trial 0 at DIMS with this instance."""
    blob = serialize_instance(instance)
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

    code, out, err = _replay(name, instance, tmp_path, capsys)
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
        code, out, err = _replay(name, relabelled, tmp_path, capsys)
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
