"""One workload process of the qelab benchmark.

``run.py`` starts this file as a child process; each process runs one
workload as a closed loop, one unit of work after the previous one has
completed, and prints one JSON line with what it measured.  Modes:

* ``setup``  — import and prepare, report the time the first unit would
  start, exit;
* ``timed``  — run units until ``--seconds`` have passed;
* ``fixed``  — run exactly ``--units`` units (traced runs, and the untraced
  run they are compared with), so that call counts repeat exactly.

Every unit's output is checked: a trial that raises, is missing or fails a
check counts as failed.  Untraced processes then replay a fixed reference
block at REFERENCE_SEED and compare it with ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 42
EXPLORE_KINDS = ("stronger-mono", "ptrace-petz", "cmi-petz", "trotter-monotone")
TWIRL_DIMS = (2, 3)
TWIRL_SAMPLES = 10_000
# Criterion 10 keys its Monte Carlo draws as [seed, 10, trial].
TWIRL_KEY = 10

# unit_trials: trials per unit (per suite for check, per kind for explore).
# fixed_units: units of a traced run, about 3-5 s of untraced work.
WORKLOADS = {
    "check-d8": {"kind": "check", "dims": "2,2,2", "unit_trials": 5, "ref_trials": 2, "fixed_units": 4},
    "check-d64": {"kind": "check", "dims": "4,4,4", "unit_trials": 1, "ref_trials": 1, "fixed_units": 2},
    "explore-d8": {"kind": "explore", "dims": "2,2,2", "unit_trials": 100, "ref_trials": 100, "fixed_units": 3},
    "twirl-mc": {"kind": "twirl", "ref_trials": 1, "fixed_units": 3},
}


# Kernel matrix size per workload, operations per calibration (about 5% of a
# unit), and the kernel's typical time per operation between units on the
# 2-core x86_64 machine the benchmark was tuned on, so that trials_per_s
# reads close to raw trials/s there.  These constants only scale the metric;
# they cancel in any comparison made on one machine.
CALIBRATION = {
    "check-d8": {"dim": 8, "ops": 800, "nominal_op_s": 5.9e-5},
    "check-d64": {"dim": 64, "ops": 90, "nominal_op_s": 1.9e-3},
    "explore-d8": {"dim": 8, "ops": 1000, "nominal_op_s": 5.6e-5},
    "twirl-mc": {"dim": 6, "ops": 900, "nominal_op_s": 4.0e-5},
}


def unit_seed(seed: int, unit: int) -> int:
    """Seed of one unit; distinct units and workload seeds never collide."""
    return seed * 1_000_000 + unit


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# ---------------------------------------------------------------------------
# Output checks.  Each returns {key: (ok, entry)} with one key per trial (or
# per exploration call); entry holds what the reference comparison needs.
# ---------------------------------------------------------------------------


def check_records(records, suites, trials: int) -> dict:
    """One record per (suite, trial), finite slack, pass true."""
    seen: dict = {}
    for rec in records:
        key = f"{rec.get('checker')}/{rec.get('trial')}"
        ok = key not in seen and _finite(rec.get("slack")) and rec.get("pass") is True
        seen[key] = (ok, {"slack": rec.get("slack"), "pass": rec.get("pass"), "bytes": canonical(rec)})
    return {
        f"{s}/{t}": seen.get(f"{s}/{t}", (False, None))
        for s in suites for t in range(trials)
    }


def check_exploration(report, trials: int) -> tuple[bool, dict]:
    """Histogram counts sum to the trial count and min_slack is finite."""
    counts = report.get("histogram", {}).get("counts", [])
    ok = (
        report.get("trials") == trials
        and sum(counts) == trials
        and _finite(report.get("min_slack"))
    )
    entry = {
        "slack": report.get("min_slack"),
        "pass": report.get("candidate_counterexample") is False,
        "bytes": canonical(report),
    }
    return ok, entry


def compare_reference(entries: dict, reference: list) -> tuple[int, int]:
    """Compare checked entries with stored reference values.

    Returns (failed, records_changed).  A reference key that is missing,
    failed its own check, flips its pass flag or moves its slack by more than
    the stored tolerance is a failure; a differing byte encoding only counts
    as a changed record.
    """
    failed = changed = 0
    for ref in reference:
        ok, entry = entries.get(ref["key"], (False, None))
        if entry is None:
            failed += 1
            changed += 1
            continue
        if hashlib.sha256(entry["bytes"]).hexdigest() != ref["sha256"]:
            changed += 1
        if not (
            ok
            and entry["pass"] == ref["pass"]
            and abs(entry["slack"] - ref["slack"]) <= ref["tolerance"]
        ):
            failed += 1
    return failed, changed


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def failures(entries: dict) -> int:
    return sum(1 for ok, _ in entries.values() if not ok)


class Workload:
    """A closed loop of units of ``unit_size`` trials each.

    ``unit(i)`` returns (failed trials, output bytes); ``busy_s`` sums the
    time spent inside qelab calls, excluding the benchmark's own checks.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.out = os.path.join(workdir, "report.json")
        self.tracer = None
        self.busy_s = 0.0

    def _timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy_s += time.perf_counter() - start

    def _cli(self, argv: list) -> tuple[int, bytes]:
        """Run ``qelab <argv> --out <report>``; returns the exit code and report bytes."""
        if os.path.exists(self.out):
            os.remove(self.out)
        code = self._timed(self.cli.main, argv + ["--out", self.out])
        if not os.path.exists(self.out):
            return code, b""
        with open(self.out, "rb") as fh:
            return code, fh.read()


class CheckWorkload(Workload):
    """``qelab check --suite all`` at fixed dims, one CLI call per unit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from qelab import cli
        from qelab.suites import SUITES

        self.cli = cli
        self.suites = list(SUITES)
        self.unit_size = self.spec["unit_trials"] * len(self.suites)

    def _call(self, seed: int, trials: int):
        code, data = self._cli(["check", "--suite", "all", "--dims", self.spec["dims"],
                                "--trials", str(trials), "--seed", str(seed)])
        records = json.loads(data) if code == 0 else []
        return check_records(records, self.suites, trials), data

    def unit(self, i: int):
        entries, data = self._call(unit_seed(self.seed, i), self.spec["unit_trials"])
        return failures(entries), data

    def reference_entries(self) -> dict:
        return self._call(REFERENCE_SEED, self.spec["ref_trials"])[0]


class ExploreWorkload(Workload):
    """``qelab explore <kind>`` for each of the four kinds, one round per unit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from qelab import cli

        self.cli = cli
        self.unit_size = self.spec["unit_trials"] * len(EXPLORE_KINDS)

    def _call(self, kind: str, seed: int, trials: int):
        code, data = self._cli(["explore", kind, "--dims", self.spec["dims"],
                                "--trials", str(trials), "--seed", str(seed)])
        ok, entry = check_exploration(json.loads(data) if code == 0 else {}, trials)
        return (ok, entry), data

    def unit(self, i: int):
        # An exploration call reports a distribution, not per-instance
        # results, so a failed check fails every instance of that call.
        trials = self.spec["unit_trials"]
        failed, blobs = 0, []
        for kind in EXPLORE_KINDS:
            (ok, _), data = self._call(kind, unit_seed(self.seed, i), trials)
            failed += 0 if ok else trials
            blobs.append(data)
        return failed, b"".join(blobs)

    def reference_entries(self) -> dict:
        return {
            kind: self._call(kind, REFERENCE_SEED, self.spec["ref_trials"])[0]
            for kind in EXPLORE_KINDS
        }


class TwirlWorkload(Workload):
    """``check_twirl_identity`` with n = 10^4 Haar samples, as in criterion 10."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        import numpy as np
        from qelab import checks

        self.np = np
        self.checks = checks
        self.unit_size = 1

    def _trial(self, seed: int, trial: int):
        rng = self.np.random.default_rng([seed, TWIRL_KEY, trial])
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        x = (g + g.conj().T) / 2
        if self.tracer is not None:
            self.tracer.begin_trial()
        result = self._timed(self.checks.check_twirl_identity, x, TWIRL_DIMS, rng, TWIRL_SAMPLES)
        record = {"slack": result.slack, "pass": result.passed, "quantities": result.quantities}
        ok = _finite(result.slack) and result.slack >= 0.0
        entry = {"slack": result.slack, "pass": result.passed, "bytes": canonical(record)}
        return {f"twirl/{trial}": (ok, entry)}, entry["bytes"]

    def unit(self, i: int):
        entries, data = self._trial(self.seed, i)
        return failures(entries), data

    def reference_entries(self) -> dict:
        entries = {}
        for trial in range(self.spec["ref_trials"]):
            entries.update(self._trial(REFERENCE_SEED, trial)[0])
        return entries


KINDS = {"check": CheckWorkload, "explore": ExploreWorkload, "twirl": TwirlWorkload}


class Calibration:
    """A fixed numpy kernel, timed between units, that gauges machine speed.

    On a shared host the speed of one core drifts by +-25% over seconds, for
    work that has not changed at all.  The kernel (eigh, singular values and
    a spectral product at the workload's matrix size) slows down with it, so
    each unit's time is rescaled by the kernel time around it to the
    kernel's reference time ``nominal_op_s``.  The kernel never calls qelab,
    so a change to qelab cannot move it.
    """

    def __init__(self, dim: int, ops: int, nominal_op_s: float):
        import numpy as np

        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
        self.mats = [m @ m.conj().T for m in g]
        self.ops = ops
        self.nominal_op_s = nominal_op_s
        self.eigh = np.linalg.eigh
        self.svd = np.linalg.svd

    def run(self) -> float:
        """Seconds per kernel operation right now."""
        start = time.perf_counter()
        for i in range(self.ops):
            m = self.mats[i % 4]
            vals, vecs = self.eigh(m)
            self.svd(m, compute_uv=False)
            (vecs * vals) @ vecs.conj().T
        return (time.perf_counter() - start) / self.ops

    def speed(self, before: float, after: float) -> float:
        """Factor that rescales a unit timed between two kernel runs."""
        return 2.0 * self.nominal_op_s / (before + after)


# A synthetic module of 400 small functions, and its typical compile-and-run
# time (twice) on the machine the benchmark was tuned on.
_CAL_SOURCE = "\n".join(
    f"def f{i}(x, y=1):\n    z = [x * k for k in range(y)]\n    return {{'a': z, 'b': {i}}}"
    for i in range(400)
)
SETUP_CAL_NOMINAL_S = 0.054


def python_calibration() -> float:
    """Seconds to compile, marshal round-trip and execute _CAL_SOURCE twice.

    Set-up is import work: unmarshalling and executing module code.  Its
    speed drifts with the host like everything else, but a numpy kernel does
    not track it (correlation 0.5 over 70 process starts); this interpreter
    kernel does (0.8), so each set-up sample is rescaled by it.
    """
    import marshal

    start = time.perf_counter()
    for _ in range(2):
        exec(marshal.loads(marshal.dumps(compile(_CAL_SOURCE, "<calibration>", "exec"))), {})
    return time.perf_counter() - start


def blas_info() -> dict:
    """numpy/OpenBLAS versions and the BLAS thread count actually in force."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = int(fn())
                    return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", default=None, help="write spans to this .npz")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if args.mode == "fixed" and not args.units:
        parser.error("--mode fixed needs --units")

    workload = KINDS[WORKLOADS[args.workload]["kind"]](args.workload, args.seed, args.workdir)
    t_ready = time.monotonic()
    setup_cal_s = python_calibration()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready, "setup_cal_s": setup_cal_s}))
        return 0

    # Built before the tracer is installed, so its kernels stay unwrapped.
    calibration = Calibration(**CALIBRATION[args.workload])
    op_s = [calibration.run()]
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer, install

        tracer = workload.tracer = Tracer()
        install(tracer)
    fixed = args.mode == "fixed"
    deadline = t_ready + args.seconds
    digest = hashlib.sha256()
    attempted = failed = done = 0
    speed_busy_s = 0.0
    errors: list[str] = []
    while (done < args.units) if fixed else (done == 0 or time.monotonic() < deadline):
        busy_before = workload.busy_s
        try:
            unit_failed, data = workload.unit(done)
            digest.update(data)
        except Exception:  # a crashing unit fails all its trials; keep measuring
            errors.append(traceback.format_exc(limit=3))
            unit_failed = workload.unit_size
        op_s.append(calibration.run())
        speed_busy_s += (workload.busy_s - busy_before) * calibration.speed(op_s[-2], op_s[-1])
        attempted += workload.unit_size
        failed += unit_failed
        done += 1
    busy_s = workload.busy_s
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ref_attempted = ref_failed = records_changed = 0
    if tracer is not None:
        tracer.save(args.trace)
    else:
        # Untraced only, so that traced call counts cover the seeded work alone.
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)[args.workload]
        try:
            entries = workload.reference_entries()
            ref_failed, records_changed = compare_reference(entries, reference)
        except Exception:
            errors.append(traceback.format_exc(limit=3))
            ref_failed = records_changed = len(reference)
        ref_attempted = len(reference)
    for err in errors:
        print(err, file=sys.stderr)
    print(json.dumps({
        "t_ready": t_ready,
        "setup_cal_s": setup_cal_s,
        "units": done,
        "trials": attempted,
        "busy_s": busy_s,
        "speed_busy_s": speed_busy_s,
        "calibration_op_s": op_s,
        "failed": failed,
        "ref_attempted": ref_attempted,
        "ref_failed": ref_failed,
        "records_changed": records_changed,
        "peak_rss_kib": peak_rss_kib,
        "output_sha256": digest.hexdigest(),
        "herm_eig_repeats": tracer.herm_eig_repeats if tracer else None,
        "trials_traced": tracer.trial_no + 1 if tracer else None,
        "python": sys.version.split()[0],
        **blas_info(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
