"""qelab benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qelab checkout; qelab is imported from ``src/`` of
that checkout.  Each workload runs in its own child process (``workload.py``)
as a closed loop with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``      median, over SETUP_SPAWNS process starts, of the time from
                   spawning the workload process to the start of its first
                   trial (interpreter, numpy/OpenBLAS, qelab import and its
                   registries), each rescaled to a reference interpreter
                   speed by ``workload.python_calibration``;
* ``trials_per_s`` trials completed per second inside qelab calls during
                   ``--seconds`` of closed-loop work, each unit's time rescaled
                   to a reference machine speed by a calibration kernel timed
                   around it (``workload.Calibration``); the raw rate is in
                   the manifest;
* ``peak_rss_mb``  peak resident set of the workload process (getrusage);
* ``ok_ratio``     1 - failed/attempted trials.  The failure ratio itself is
                   0 on a correct build, and a metric must never read 0.

``--trace 1`` runs a fixed number of units twice, untraced and then with
``tracer.py`` wrapping every qelab layer, and reports the per-layer metrics
of BENCHMARK.json plus ``trace.overhead_ratio``.

Every run checks the outputs (see ``workload.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it is the run manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SPAWNS = 7
# Budget for the children of one workload; a run must exit within 180 s.
RUN_BUDGET_S = 170.0

sys.path.insert(0, HERE)
from workload import SETUP_CAL_NOMINAL_S, WORKLOADS  # noqa: E402


class RunError(Exception):
    """The benchmark cannot produce a result."""


def load_benchmark() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RunError(f"cannot read {path}: {exc}") from exc


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QEL_SEED", None)  # would override every --seed the benchmark passes
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns workload processes for one benchmark run, within one time budget."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env()

    def spawn(self, workload: str, seed: int, mode: str, **opts) -> tuple[float, dict]:
        """Run one child; returns (monotonic spawn time, its JSON result)."""
        argv = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
                "--seed", str(seed), "--mode", mode, "--workdir", self.workdir]
        for key, value in opts.items():
            argv += [f"--{key}", str(value)]
        log = os.path.join(self.workdir, "child.log")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError("time budget exhausted")
        with open(log, "w") as err:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                      stderr=err, text=True, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise RunError(f"{workload} {mode} child exceeded the time budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            with open(log) as fh:
                tail = fh.read()[-2000:]
            raise RunError(f"{workload} {mode} child exited {proc.returncode}:\n{tail}")
        return t_spawn, json.loads(lines[-1])


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float):
    # Child t_ready and parent t_spawn share one clock: time.monotonic() is
    # CLOCK_MONOTONIC, which is system-wide on Linux.
    raw_setup, setup = [], []
    for i in range(SETUP_SPAWNS):
        mode = "timed" if i == SETUP_SPAWNS - 1 else "setup"
        t_spawn, out = runner.spawn(workload, seed, mode, seconds=seconds)
        raw_setup.append(out["t_ready"] - t_spawn)
        setup.append(raw_setup[-1] * SETUP_CAL_NOMINAL_S / out["setup_cal_s"])
    attempted = out["trials"] + out["ref_attempted"]
    failed = out["failed"] + out["ref_failed"]
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": out["trials"] / out["speed_busy_s"],
        "peak_rss_mb": out["peak_rss_kib"] / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    counts = {
        "setup_s": {"process_starts": len(setup), "raw_samples_s": raw_setup,
                    "rescaled_samples_s": setup},
        "trials_per_s": {"trials": out["trials"], "units": out["units"], "seconds": seconds,
                         "busy_s": out["busy_s"], "speed_busy_s": out["speed_busy_s"],
                         "raw_trials_per_s": out["trials"] / out["busy_s"],
                         "calibration_runs": len(out["calibration_op_s"]),
                         "calibration_op_s_median": statistics.median(out["calibration_op_s"])},
        "peak_rss_mb": {"processes": 1},
        "ok_ratio": {"attempted": attempted, "failed": failed,
                     "reference_trials": out["ref_attempted"],
                     "records_changed": out["records_changed"]},
    }
    return metrics, attempted, failed, counts, out


def run_traced(runner: Runner, workload: str, seed: int, wanted):
    import numpy as np

    from layers import SpanTable, layer_metrics

    units = WORKLOADS[workload]["fixed_units"]
    _, plain = runner.spawn(workload, seed, "fixed", units=units)
    spans_path = os.path.join(WORK, f"spans-{workload}.npz")
    _, traced = runner.spawn(workload, seed, "fixed", units=units, trace=spans_path)
    with np.load(spans_path) as spans:
        table = SpanTable(spans)
    herm_eig_calls = table.total("calls", ["linalg.herm_eig"])
    extra = {
        "linalg.herm_eig.repeat_ratio":
            traced["herm_eig_repeats"] / herm_eig_calls if herm_eig_calls else 0.0,
        "results.records_changed": plain["records_changed"],
        "trace.overhead_ratio": traced["speed_busy_s"] / plain["speed_busy_s"],
    }
    metrics, absent = layer_metrics(table, wanted, extra)
    attempted = plain["trials"] + plain["ref_attempted"] + traced["trials"]
    failed = plain["failed"] + plain["ref_failed"] + traced["failed"]
    if plain["output_sha256"] != traced["output_sha256"]:
        failed += traced["trials"]  # tracing must not change a single output byte
    counts = {
        "units": units,
        "trials": traced["trials"],
        "spans": int(table.calls.sum()),
        "trials_traced": traced["trials_traced"],
        "untraced_busy_s": plain["busy_s"],
        "traced_busy_s": traced["busy_s"],
        "untraced_speed_busy_s": plain["speed_busy_s"],
        "traced_speed_busy_s": traced["speed_busy_s"],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "absent": absent,
        "output_sha256": traced["output_sha256"],
    }
    return metrics, attempted, failed, counts, traced


def run_one(runner: Runner, bench: dict, workload: str, seed: int, seconds: float, trace: bool):
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    if trace:
        metrics, attempted, failed, counts, child = run_traced(runner, workload, seed, units)
    else:
        metrics, attempted, failed, counts, child = run_untraced(runner, workload, seed, seconds)
    manifest = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": child["python"],
        "numpy": child["numpy"],
        "openblas": child["openblas"],
        "blas_threads": child["blas_threads"],
        "git_commit": git_commit(),
        "counts": counts,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return manifest, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qelab benchmark runner")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "qelab", "__init__.py")):
        print(f"error: no qelab package under {SRC}; run from a qelab checkout",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        bench = load_benchmark()
        results = []
        for name in names:
            manifest, result = run_one(Runner(workdir), bench, name, args.seed, args.seconds,
                                       bool(args.trace))
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
            print(json.dumps(manifest, sort_keys=True))
            results.append((name, result))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{m}": v for n, r in results for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
