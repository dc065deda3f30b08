"""Run perfbench in two qelab checkouts in alternating pairs and compare their end-to-end metrics.

    python scripts/bench_pairs.py PARENT CHANGE --workload check-d64 --pairs 10 --first-seed 3000
    python scripts/bench_pairs.py PARENT CHANGE --workload check-d64 --pairs 20 --first-seed 3000 \
        --units 4

Pair i runs `python3 perfbench/run.py --workload W --seed FIRST_SEED + i --seconds 20 --trace 0`
in each checkout, one after the other: the parent first in even pairs, the change first in odd
ones, so a drift of the machine's speed falls on both sides alike.  Each checkout runs its own
perfbench and imports its own src/.  For every end-to-end metric of CHANGE's BENCHMARK.json the
script prints each pair's two values, then each side's quartiles (the middle one is the median)
and the number of pairs the change wins by the metric's "better" direction, then the verdict on a
claimed gain (claim_verdict): met when at least 10 pairs ran, the change is better in at least 9/10
of them and its median beats the parent's by more than the parent's interquartile range.  It does the same for
the uncalibrated rate in each run's manifest (raw_trials_per_s), which no bound applies to.  The
last line is one JSON object holding every run and each verdict, for a BENCH_*.json file.  A run that fails or
reports incorrect outputs stops the script with exit status 1.

With --units N a run is instead `python3 perfbench/workload.py --mode fixed --units N` in the
checkout, with BLAS on one thread as perfbench/run.py starts it: the same N units of work on both
sides, compared by their wall time inside qelab calls (busy_s, not rescaled), by the rate
rescaled as trials_per_s is, and by the raw rate.  A short run keeps the pair's two sides close
in time, so a drift of the machine's speed moves them alike even where it does not cancel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SECONDS = 20
SIDES = ("parent", "change")
RAW = "raw_trials_per_s"  # from the manifest: trials per busy second, not rescaled


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """The metric values of one untraced perfbench run in ``checkout``, and the uncalibrated
    rate that its manifest records as raw_trials_per_s."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} reported incorrect outputs: {result}")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values[RAW] = json.loads(lines[-2])["counts"]["trials_per_s"]["raw_trials_per_s"]
    return values


def run_fixed(checkout: str, workload: str, seed: int, units: int) -> dict:
    """busy_s, the rescaled and the raw rate of ``units`` units of perfbench's workload, run in
    ``checkout`` as perfbench/run.py runs it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("QEL_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as workdir:
        argv = [sys.executable, "perfbench/workload.py", "--workload", workload, "--seed",
                str(seed), "--mode", "fixed", "--units", str(units), "--workdir", workdir]
        proc = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    if out["failed"] or out["ref_failed"] or out["records_changed"]:
        raise SystemExit(f"{checkout}: seed {seed} reported incorrect outputs: {out}")
    return {"busy_s": out["busy_s"], "trials_per_s": out["trials"] / out["speed_busy_s"],
            RAW: out["trials"] / out["busy_s"]}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def claim_verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Whether the runs of paired sides show a gain: at least 10 pairs ran, the change is better,
    in the ``better`` direction ("higher" or "lower"), in at least 9/10 of them (a tie counts
    for neither side), and the gap between the medians exceeds the interquartile range of the
    parent's runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    low, median, high = quartiles(parent) if len(parent) > 1 else parent * 3
    gap = sign * (statistics.median(change) - median)
    met = len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > high - low
    return {"change_better_pairs": f"{wins}/{len(parent)}", "median_gap": gap,
            "parent_iqr": high - low, "met": met}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--units", type=int, default=None,
                        help="run this many units of fixed work instead of 20-s runs")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.units is not None and args.units < 1:
        parser.error("--units must be at least 1")
    roots = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))
    if args.units is None:
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    else:
        better = {"busy_s": "lower", "trials_per_s": "higher"}
    better[RAW] = "higher"

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, seed) if args.units is None
                              else run_fixed(roots[side], args.workload, seed, args.units))
        print(f"pair {i} seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
            for name in better), flush=True)

    summary = {}
    for name, direction in better.items():
        values = {side: [run[name] for run in runs[side]] for side in SIDES}
        verdict = claim_verdict(values["parent"], values["change"], direction)
        summary[name] = {"better": direction, "change_better_pairs": verdict["change_better_pairs"],
                         "claim": verdict}
        for side in SIDES:
            summary[name][f"{side}_runs"] = values[side]
            summary[name][f"{side}_quartiles"] = (quartiles(values[side]) if args.pairs > 1
                                                  else values[side] * 3)
        q_parent, q_change = summary[name]["parent_quartiles"], summary[name]["change_quartiles"]
        print(f"{name}: parent median {q_parent[1]:.6g} (quartiles {q_parent[0]:.6g}, "
              f"{q_parent[2]:.6g}), change median {q_change[1]:.6g} (quartiles "
              f"{q_change[0]:.6g}, {q_change[2]:.6g}), change better in "
              f"{verdict['change_better_pairs']} pairs")
        print(f"{name}: claim {'met' if verdict['met'] else 'not met'} (median gap "
              f"{verdict['median_gap']:.6g} against the parent's interquartile range "
              f"{verdict['parent_iqr']:.6g}; needs 10 pairs or more, 9/10 of them won and a gap beyond it)")
    print(json.dumps({"workload": args.workload, "seconds": SECONDS, "units": args.units,
                      "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
