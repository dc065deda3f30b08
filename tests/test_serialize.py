"""Tests of the one JSON codec: exact round trips, and the format kept in one module."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

import qelab
from qelab import suites
from qelab.results import as_record
from qelab.serialize import deserialize_instance, serialize_instance
from qelab.suites import EXPLORATIONS, SUITES, run_trial, trial_rng

REGISTRY = [(SUITES, name) for name in SUITES] + [(EXPLORATIONS, kind) for kind in EXPLORATIONS]


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
@pytest.mark.parametrize("registry,name", REGISTRY, ids=[name for _, name in REGISTRY])
def test_instance_survives_a_json_round_trip(registry, name, dims):
    instance = suites._instance_row(registry[name].sample([trial_rng(0, name, 0)], dims, 1e-6), 0)
    blob = serialize_instance(instance)
    assert serialize_instance(deserialize_instance(json.loads(json.dumps(blob)))) == blob


@pytest.mark.parametrize("trial", [71, 87])
def test_markov_dump_replays_bit_for_bit(trial):
    # the stored block weights of these trials are not a fixed point of
    # renormalization, so a decoder that renormalized would move them by an ulp
    suite = SUITES["markov-roundtrip"]
    instance, result = run_trial(suite, (2, 2, 2), 0, trial, 1e-6, 1e-8)
    loaded = deserialize_instance(json.loads(json.dumps(serialize_instance(instance))))
    assert loaded["spec"].weights == instance["spec"].weights
    replayed = suite.run(loaded, 1e-8, {})
    assert as_record(replayed, (2, 2, 2), 0, trial) == as_record(result, (2, 2, 2), 0, trial)


# The keys of the replay envelopes that only their writers and reader spell.
ENVELOPE_KEYS = {"instance", "worst_instance", "opts", "tolerance"}


def test_only_serialize_knows_the_json_format():
    """No module but serialize.py spells the matrix keys or an envelope key, defines a decoder
    or calls json.load."""
    spelled = re.compile(r"""["'](re|im)["']|def \w*from_json\b""")
    offenders = []
    for path in sorted(Path(qelab.__file__).parent.glob("*.py")):
        if path.name == "serialize.py":
            continue
        text = path.read_text()
        offenders += [f"{path.name}:{number}: {line.strip()}"
                      for number, line in enumerate(text.splitlines(), 1) if spelled.search(line)]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value in ENVELOPE_KEYS:
                offenders.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif (isinstance(node, ast.Attribute) and node.attr == "load"
                  and isinstance(node.value, ast.Name) and node.value.id == "json"):
                offenders.append(f"{path.name}:{node.lineno}: json.load")
    assert not offenders, offenders
