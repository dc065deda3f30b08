"""Result containers for inequality and identity checks.

A CheckResult carries named scalar quantities plus one signed slack; the
check passes when slack >= -tolerance (and any auxiliary condition recorded
by the checker holds).  A descending chain a_0 >= a_1 >= ... >= a_k is a
CheckResult too: chain() records its links as quantities and takes the
smallest link gap as the slack.  Every result flattens to one record schema
for the JSON/CSV reports:

    checker, dims, seed, trial, quantity:<name> ..., slack, pass
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import per_row


def _clean(value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise ValueError("NaN leaked into a result quantity")
    return value


@dataclass
class CheckResult:
    """Outcome of a single inequality/identity evaluation.

    slack is oriented so that >= 0 means the statement holds with margin;
    identity checks store slack = -|residual|.  extra_ok folds in auxiliary
    conditions (documented per checker) so that passed stays recomputable
    from the stored fields alone.
    """

    name: str
    quantities: dict[str, float]
    slack: float
    tolerance: float
    extra_ok: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.slack >= -self.tolerance and self.extra_ok)


def chain(
    name: str,
    links: Sequence[tuple[str, float]],
    tolerance: float,
    quantities: dict[str, float] | None = None,
    extra_ok: bool = True,
) -> CheckResult | list[CheckResult]:
    """The chain links[0] >= links[1] >= ... checked link by link.

    The quantities are the link values under their labels, in order, then
    ``quantities`` (which wins a label clash); the slack is the smallest gap
    between consecutive links, 0.0 for fewer than two links.  When link values,
    quantities or extra_ok are the (n,) arrays of a stacked chunk of trials, the
    result is the list of each row's chain, taken from that row's Python floats.
    """
    extras = quantities or {}
    columns = [v for _, v in links] + list(extras.values())
    if any(np.ndim(c) for c in columns + [extra_ok]):
        labels, k = [label for label, _ in links], len(links)

        def row_chain(ok, *row):
            return chain(name, list(zip(labels, row)), tolerance, dict(zip(extras, row[k:])), ok)

        return per_row(row_chain, extra_ok, *columns)
    values = [v for _, v in links]
    gaps = [a - b for a, b in zip(values, values[1:])]
    return CheckResult(
        name,
        {**dict(links), **(quantities or {})},
        min(gaps) if gaps else 0.0,
        tolerance,
        extra_ok,
    )


def as_record(result: CheckResult, dims: Sequence[int], seed: int, trial: int) -> dict:
    """Flatten a result into one report record."""
    return {
        "checker": result.name,
        "dims": "x".join(str(d) for d in dims),
        "seed": int(seed),
        "trial": int(trial),
        "quantities": {k: _clean(v) for k, v in result.quantities.items()},
        "slack": _clean(result.slack),
        "pass": bool(result.passed),
    }


def records_to_json(records: list[dict]) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace jitter)."""
    return json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n"


def records_to_csv(records: list[dict]) -> str:
    """Fixed-schema CSV: checker,dims,seed,trial,quantity:<name>...,slack,pass.

    The quantity columns are the sorted union over all records; records
    lacking a quantity leave the cell empty.
    """
    names = sorted({k for rec in records for k in rec["quantities"]})
    header = ["checker", "dims", "seed", "trial"]
    header += [f"quantity:{n}" for n in names]
    header += ["slack", "pass"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        row = [rec["checker"], rec["dims"], rec["seed"], rec["trial"]]
        row += [
            repr(rec["quantities"][n]) if n in rec["quantities"] else ""
            for n in names
        ]
        row += [repr(rec["slack"]), "true" if rec["pass"] else "false"]
        writer.writerow(row)
    return buf.getvalue()


@dataclass
class ExplorationReport:
    """Outcome of a conjecture exploration run.

    Exploration never passes or fails; it reports the observed slack
    distribution and flags a candidate counterexample when the minimum slack
    is more negative than -10x the inequality tolerance.
    """

    kind: str
    trials: int
    dims: tuple[int, ...]
    seed: int
    tolerance: float
    min_slack: float
    worst_trial: int
    histogram_edges: list[float]
    histogram_counts: list[int]
    worst_instance: dict
    candidate_counterexample: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "trials": self.trials,
            "dims": "x".join(str(d) for d in self.dims),
            "seed": self.seed,
            "tolerance": self.tolerance,
            "min_slack": _clean(self.min_slack),
            "worst_trial": self.worst_trial,
            "histogram": {
                "edges": [_clean(e) for e in self.histogram_edges],
                "counts": [int(c) for c in self.histogram_counts],
            },
            "worst_instance": self.worst_instance,
            "candidate_counterexample": self.candidate_counterexample,
        }
