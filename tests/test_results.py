"""Tests of the result type: chain(), a chunk's chain of rows, and the record it flattens to."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qelab.checks import _sqrt_chain
from qelab.results import CheckResult, as_record, chain, records_to_csv, records_to_json
from qelab.states import random_density


def test_chain_slack_is_the_smallest_link_gap():
    result = chain("c", [("a", 3.0), ("b", 2.5), ("c", 0.5), ("d", 0.25)], 1e-8)
    assert isinstance(result, CheckResult)
    assert result.slack == 0.25
    assert result.passed


def test_chain_negative_gap_fails_beyond_tolerance_only():
    links = [("a", 1.0), ("b", 1.0 + 1e-9), ("c", 0.0)]
    assert chain("c", links, 1e-8).slack == pytest.approx(-1e-9)
    assert chain("c", links, 1e-8).passed
    assert not chain("c", links, 1e-10).passed


@pytest.mark.parametrize("links", [[], [("only", 0.7)]])
def test_chain_of_fewer_than_two_links_has_zero_slack(links):
    result = chain("c", links, 0.0, {"x": 1.0})
    assert result.slack == 0.0
    assert result.passed
    assert result.quantities == {**dict(links), "x": 1.0}


def test_chain_quantities_are_links_in_order_then_extras():
    result = chain("c", [("z", 2.0), ("a", 1.0)], 0.0, {"m": 5.0, "b": 6.0})
    assert list(result.quantities) == ["z", "a", "m", "b"]
    assert result.quantities == {"z": 2.0, "a": 1.0, "m": 5.0, "b": 6.0}


def test_chain_quantity_wins_a_label_clash():
    links = [("a", 2.0), ("b", 1.0)]
    result = chain("c", links, 0.0, {"b": 9.0})
    assert result.quantities == {"a": 2.0, "b": 9.0}
    # the slack still comes from the links
    assert result.slack == 1.0


def test_chain_extra_ok_gates_passed():
    assert not chain("c", [("a", 2.0), ("b", 1.0)], 0.0, extra_ok=False).passed


@pytest.mark.parametrize("slack", [math.inf, -math.inf, math.nan])
def test_a_slack_that_is_not_finite_never_passes(slack):
    assert not CheckResult("c", {}, slack, 1e-8).passed
    assert CheckResult("c", {}, 1e300, 1e-8).passed


def test_chain_record_holds_links_and_extras():
    result = chain("c", [("a", 2.0), ("b", 1.0)], 0.0, {"x": 0.5})
    record = as_record(result, (2, 3), 4, 5)
    assert record == {
        "checker": "c", "dims": "2x3", "seed": 4, "trial": 5,
        "quantities": {"a": 2.0, "b": 1.0, "x": 0.5}, "slack": 1.0, "pass": True,
    }
    # JSON keys and CSV columns are sorted, so link order never reaches the bytes
    swapped = CheckResult("c", {"x": 0.5, "b": 1.0, "a": 2.0}, 1.0, 0.0)
    other = as_record(swapped, (2, 3), 4, 5)
    assert records_to_json([record]) == records_to_json([other])
    assert records_to_csv([record]) == records_to_csv([other])


def test_a_stacked_chain_is_each_rows_chain():
    # a chunk's chain is built row by row by checks._sqrt_chain, the one stacked caller:
    # each row is the 2-D call on that row, with Python floats and its own extra_ok
    rho = random_density(4, [np.random.default_rng(s) for s in (1, 2)])
    srg = random_density(4, [np.random.default_rng(s) for s in (3, 4)])
    anchor, x, ok = np.array([10.0, 20.0]), np.array([7.0, 8.0]), np.array([True, False])
    rows = _sqrt_chain("c", "a", anchor, rho, srg.mat, 1e-8, {"x": x, "y": 9.0}, ok)
    assert rows == [
        _sqrt_chain("c", "a", anchor[i], rho.row(i), srg.mat[i], 1e-8,
                    {"x": x[i], "y": 9.0}, ok[i])
        for i in range(2)
    ]
    assert all(type(v) is float for row in rows for v in row.quantities.values())
    assert [row.passed for row in rows] == [True, False]
