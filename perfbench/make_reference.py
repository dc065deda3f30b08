"""Regenerate ``reference.json``, the stored outputs of each reference block.

Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Each entry keeps the slack, pass flag and byte digest of one reference
trial (one exploration call for ``explore-d8``), plus the tolerance the
benchmark allows that slack to move: the result's own tolerance, or TOL_INEQ
for a result whose own tolerance is 0 (the Monte Carlo twirl), so that a
rounding-level change is recorded in ``results.records_changed`` instead of
failing the run.  Regenerate only when a change to report values is
intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import workload as wl

from qelab.suites import SUITES, run_suite
from qelab.tolerances import TOL_INEQ


def tolerances(name: str, spec: dict) -> dict:
    kind = spec["kind"]
    if kind == "check":
        dims = tuple(int(d) for d in spec["dims"].split(","))
        return {
            f"{suite}/{trial}": result.tolerance
            for suite in SUITES
            for trial, _, result in run_suite(suite, dims, spec["ref_trials"], wl.REFERENCE_SEED)
        }
    if kind == "explore":
        return {explore_kind: TOL_INEQ for explore_kind in wl.EXPLORE_KINDS}
    return {f"twirl/{t}": 0.0 for t in range(spec["ref_trials"])}


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=wl.HERE) as workdir:
        for name, spec in wl.WORKLOADS.items():
            entries = wl.KINDS[spec["kind"]](name, wl.REFERENCE_SEED, workdir).reference_entries()
            tols = tolerances(name, spec)
            reference[name] = []
            for key, (ok, entry) in entries.items():
                if not ok:
                    raise SystemExit(f"{name} {key}: reference trial fails its own check")
                reference[name].append({
                    "key": key,
                    "slack": entry["slack"],
                    "pass": entry["pass"],
                    "tolerance": tols[key] or TOL_INEQ,
                    "sha256": hashlib.sha256(entry["bytes"]).hexdigest(),
                })
    with open(os.path.join(wl.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
