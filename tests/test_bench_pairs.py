"""The claim verdict of scripts/bench_pairs.py on fixed lists of paired runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5


def test_nine_wins_of_ten_with_a_gap_inside_the_iqr_is_not_met():
    change = [p + 1.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    verdict = bench_pairs.claim_verdict(PARENT, change, "higher")
    assert verdict["change_better_pairs"] == "9/10"
    assert verdict["parent_iqr"] == pytest.approx(4.5)
    assert verdict["median_gap"] == pytest.approx(1.0)
    assert verdict["met"] is False


def test_ten_wins_of_ten_beyond_the_iqr_is_met():
    change = [p + 5.0 for p in PARENT]
    verdict = bench_pairs.claim_verdict(PARENT, change, "higher")
    assert verdict["change_better_pairs"] == "10/10" and verdict["median_gap"] == pytest.approx(5.0)
    assert verdict["met"] is True


def test_a_lower_is_better_metric_wins_downward_and_ties_count_for_neither_side():
    assert bench_pairs.claim_verdict(PARENT, [p - 5.0 for p in PARENT], "lower")["met"] is True
    assert bench_pairs.claim_verdict(PARENT, [p + 5.0 for p in PARENT], "lower")["met"] is False
    tied = bench_pairs.claim_verdict(PARENT, list(PARENT), "higher")
    assert tied["change_better_pairs"] == "0/10" and tied["met"] is False
    # eight wins and two ties miss 9/10, however large the gap
    change = [p + 50.0 for p in PARENT[:8]] + PARENT[8:]
    assert bench_pairs.claim_verdict(PARENT, change, "higher")["met"] is False


def test_fewer_than_ten_pairs_meet_no_claim():
    verdict = bench_pairs.claim_verdict(PARENT[:3], [p + 50.0 for p in PARENT[:3]], "higher")
    assert verdict["change_better_pairs"] == "3/3" and verdict["met"] is False
