"""Result containers for inequality and identity checks.

A CheckResult carries named scalar quantities plus one signed slack; the
check passes when the slack is finite and >= -tolerance (and any auxiliary
condition recorded by the checker holds).  A descending chain
a_0 >= a_1 >= ... >= a_k is a CheckResult too: chain() records its links as
quantities and takes the smallest link gap as the slack.  Every result flattens to one record schema
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

from .errors import NonFinite


def _clean(value: float, name: str) -> float:
    value = float(value)
    if math.isnan(value):
        raise NonFinite(f"NaN leaked into the result's {name}")
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
        return bool(math.isfinite(self.slack) and self.slack >= -self.tolerance and self.extra_ok)


def chain(
    name: str,
    links: Sequence[tuple[str, float]],
    tolerance: float,
    quantities: dict[str, float] | None = None,
    extra_ok: bool = True,
) -> CheckResult:
    """The chain links[0] >= links[1] >= ... checked link by link.

    The quantities are the link values under their labels, in order, then
    ``quantities`` (which wins a label clash); the slack is the smallest gap
    between consecutive links, 0.0 for fewer than two links.
    """
    values = [v for _, v in links]
    gaps = [a - b for a, b in zip(values, values[1:])]
    quantities = {**dict(links), **(quantities or {})}
    return CheckResult(name, quantities, min(gaps) if gaps else 0.0, tolerance, extra_ok)


def as_record(result: CheckResult, dims: Sequence[int], seed: int, trial: int) -> dict:
    """Flatten a result into one report record."""
    return {
        "checker": result.name,
        "dims": "x".join(str(d) for d in dims),
        "seed": int(seed),
        "trial": int(trial),
        "quantities": {k: _clean(v, k) for k, v in result.quantities.items()},
        "slack": _clean(result.slack, "slack"),
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

