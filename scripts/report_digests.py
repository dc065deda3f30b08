"""Print one sha256 per qelab report, dump and replay of a fixed command set.

Two checkouts that print the same lines write the same report bytes for these commands,
so a diff of the outputs is a byte-identity check of a change:

    python scripts/report_digests.py --src /path/to/other/checkout/src > before.txt
    python scripts/report_digests.py > after.txt
    diff before.txt after.txt

The commands run in this process, through qelab.cli.main, with reports written into a
temporary directory.  Three header lines come first, "# <field> <value>": the envelope that
the bytes hold in beyond the code, which is numpy's version (numpy), the SIMD features
numpy's dispatch found on this CPU (cpu_features) and the kernels of numpy's bundled
OpenBLAS (openblas_core).  tests/data/report_digests.txt holds this output; a change that
moves bits regenerates it, and its diff names the moved reports and suites.  Each other
line is "<sha256> <exit code> <name>", one per written report
and one per non-empty stdout and stderr.  After a check report's line come one line per
suite, "<sha256> <exit code> <name>:<report>:<suite>", hashing that suite's records, so a
change that moves bits names the suites it moved:

* check --suite all at dims 2,2,2 with 40 trials and at 4,4,4 with 3, seed 42, and at
  2,2,2 with 1 trial, where every suite runs the chunk of one;
* check --suite markov-roundtrip,overlap-chain with 40 trials, seed 42, at dims 2,3,2 and
  3,2,4: markov-roundtrip's chunks then hold block factors of up to 4 dimensions, which its
  sampler stacks by dimension, and overlap-chain's chunks hold trials with and without a
  scaled reference, which it evaluates as one stack per key set;
* check on the nine exp-log suites (EXP_LOG_SUITES) with 20 trials, seed 42, at dims 3,2,4,
  the only line where d_A, d_B and d_C differ for the suites that build an exp-log reference
  from marginals, so a wrong part or embedding there moves it;
* check --suite sbw-limit on a shallow alpha grid, which fails and writes a worst dump;
* check --suite bsw-identity,sbw-limit on the unordered grid 0.25,0.5,0.25, which repeats an
  order, at --tol 1e-3: sbw-limit runs each order once, in descending order, and fails and
  writes a worst dump, and bsw-identity is judged at TOL_IDENTITY whatever --tol says;
* the parameter grids that run in blocks or reach np.power's scalar fast paths (GRIDS):
  markov-roundtrip's 8 t-samples, which split for d > 32 (seed 42's 40 trials hold two at
  d = 36); the 4 alphas of dw-alpha, dw-tripartite and sbw-limit at 4,4,4, one point per
  block on a 2-trial chunk, with the exponents 0.5 and 2.0 (sbw-limit fails on that grid and
  writes a worst dump), beside renyi-monotone, which --alpha does not reach: it runs its own
  9 orders 0.1 ... 0.9 there; trotter-bound's 7 orders on its one 40-trial chunk,
  in blocks of 3.  A lone trial at 4,4,4 (the last chunk of the 3-trial check) runs 2 points
  per block;
* the 4 explorations with 100 trials at 2,2,2 and at 4,4,4, and with 300 trials at 2,2,2,
  seed 7: 300 trials run as chunks of 128, 128 and 44, and as nine chunks of 32 and one of
  12 under a trial cap of 32, so the lines also hold when the chunk size changes;
* replay of those two dumps and of every exploration report (their stdout and stderr);
* check --suite all at dims 2,2,2 with 3 trials, and the 4 explorations with 100 trials at
  2,2,2, at seeds 2^32 and 2^64 (WIDE_SEEDS), whose keys hold two and three words for the
  seed where the other lines' hold one;
* markov on a spec file and trotter on a state file, the one-state (2-D) paths of their
  checkers: the spec is markov-roundtrip's trial 0 at seed 42 and dims 2,2,2, the state a
  regularized random_density on dims (2, 3, 2) from default_rng([42, 3]), both written
  into the temporary directory;
* replay of two hand-made dumps whose relative entropy reads +inf through the SVD of the
  support-leak verdict (ROADMAP item 11), the only lines that reach it: bsw-identity on four
  and super-ssa on two rank-1 states on dims (2, 2, 2), regularized at eps = 1e-6, drawn in
  turn from default_rng([42, 5]) and written into the temporary directory;
* replay of a hand-made monotonicity dump whose relative entropies are finite on a sigma with
  a kernel, the only line that reaches the support-leak verdict with a finite value: sigma is
  a rank-2 random_density on dims (2, 2, 2), left unregularized, rho a random_density
  projected into its support and renormalized, and the channel random_channel(8, 2), whose
  image of sigma has a kernel too, drawn in turn from default_rng([42, 6]);
* replay of three hand-made dumps of sampled trials at dims 2,2,2 and seed 42, the only lines
  that reach the replay path of the shift rule and of the Markov round trip (neither suite
  fails, so neither writes a worst dump): the first overlap-chain trial with a scaled
  reference, the first without one and markov-roundtrip's trial 0, each sampled alone by
  its suite's sampler and written into the temporary directory;
* replay of the minimal envelopes, which replay reads with its defaults: a check dump of
  only its checker and instance (ssa's trial 0 at dims 2,2,2 and seed 42), the same trial
  dumped with "dims": [], and the 100-trial cmi-petz report at 2,2,2 without its tolerance;
* criterion 10's direct call, check_twirl_identity with 10^4 samples at dims (2, 3), for
  seeds 42, 43 and 44: X and the generator are built as perfbench's twirl-mc trial 0 builds
  them (key [seed, 10, 0]).  One line per seed, "<sha256> <pass> twirl-identity seed <s>",
  hashes the float.hex of the slack and of each quantity.  The suite's 200 samples at 2,2,2
  fit in one capped block of twirl_mc's draws; these 10^4 run through 45 blocks of at most 227.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPLORATIONS = ("stronger-mono", "ptrace-petz", "cmi-petz", "trotter-monotone")
CHECKS = (("2,2,2", 40), ("4,4,4", 3), ("2,2,2", 1))
EXPLORE_RUNS = (("2,2,2", 100), ("4,4,4", 100), ("2,2,2", 300))  # (dims, trials)
TWIRL_SEEDS = (42, 43, 44)
WIDE_SEEDS = (2**32, 2**64)  # seeds of two and three uint32 words
RANK_ONE_DUMPS = (("bsw-identity", ("rho", "sigma", "tau", "omega")),
                  ("super-ssa", ("rho", "sigma")))  # (checker, its states), drawn in turn
SAMPLED_DUMPS = (("overlap-chain", True), ("overlap-chain", False), ("markov-roundtrip", None))
ROWS_DIMS = ("2,3,2", "3,2,4")  # dims of the markov-roundtrip and overlap-chain check
EXP_LOG_SUITES = ("ptrace-strengthening,ssa,trace-exp-bound,bsw-identity,super-ssa,"
                  "three-state-chain,subadd-exp,squashed-proxy,trotter-bound")
GRIDS = (
    ("markov-roundtrip", "2,2,2", 40, ["--t-samples", "0.3,0.7,1.1,1.5,1.9,2.5,3.1,3.7"]),
    ("renyi-monotone,dw-alpha,dw-tripartite,sbw-limit", "4,4,4", 2,
     ["--alpha", "0.9,0.5,0.25,0.125"]),
    ("trotter-bound", "2,2,2", 40, ["--nmax", "64"]),
)  # (suites, dims, trials, flags); a suite list holding sbw-limit fails and writes a dump


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _envelope(np) -> list[str]:
    """The header lines: numpy's version, its found SIMD features and the OpenBLAS core."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    # dlsym on numpy's linalg extension searches the OpenBLAS it links
    corename = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__),
                       "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
    return [f"# numpy {np.__version__}",
            "# cpu_features " + " ".join(name for name, found in __cpu_features__.items()
                                         if found),
            f"# openblas_core {corename().decode() if corename else None}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="directory holding the qelab package (default: this repo's src)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import json

    import numpy as np
    from qelab import channels, checks, cli, linalg, serialize, states, suites
    from qelab.tolerances import DEFAULT_EPS

    for line in _envelope(np):
        print(line)

    def run(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    with tempfile.TemporaryDirectory() as tmp:

        def dump(name: str, checker: str, instance: dict, seed: int = 0, trial: int = 0) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump({"checker": checker, "dims": [2, 2, 2], "seed": seed, "trial": trial,
                           "tolerance": 1e-8, "opts": {},
                           "instance": serialize.serialize_instance(instance)}, fh)
            return path

        def report(name: str, argv: list[str], written: list[str]) -> None:
            code, stdout, stderr = run(argv)
            for path in written:
                with open(path, "rb") as fh:
                    data = fh.read()
                print(_digest(data), code, f"{name}:{os.path.basename(path)}")
                if argv[0] == "check" and not path.endswith(".worst.json"):
                    by_suite: dict[str, list] = {}
                    for record in json.loads(data):
                        by_suite.setdefault(record["checker"], []).append(record)
                    for suite, records in by_suite.items():
                        print(_digest(json.dumps(records, sort_keys=True).encode()), code,
                              f"{name}:{os.path.basename(path)}:{suite}")
            for stream, text in (("stdout", stdout), ("stderr", stderr)):
                if text:  # the temporary directory's name differs from run to run
                    print(_digest(text.replace(tmp, "<tmp>").encode()), code, f"{name}:{stream}")

        for dims, trials in CHECKS:
            out = os.path.join(tmp, f"check-{dims}-{trials}.json")
            report(f"check {dims} trials {trials}", ["check", "--suite", "all", "--dims", dims,
                                                     "--trials", str(trials), "--seed", "42",
                                                     "--out", out], [out])
        for dims in ROWS_DIMS:
            out = os.path.join(tmp, f"rows-{dims}.json")
            report(f"check markov-roundtrip,overlap-chain {dims} trials 40",
                   ["check", "--suite", "markov-roundtrip,overlap-chain", "--dims", dims,
                    "--trials", "40", "--seed", "42", "--out", out], [out])
        out = os.path.join(tmp, "exp-log-3,2,4.json")
        report("check exp-log suites 3,2,4 trials 20",
               ["check", "--suite", EXP_LOG_SUITES, "--dims", "3,2,4", "--trials", "20",
                "--seed", "42", "--out", out], [out])
        out = os.path.join(tmp, "sbw.json")
        report("check sbw-limit shallow", ["check", "--suite", "sbw-limit", "--alpha",
                                           "0.5,0.25", "--trials", "4", "--seed", "42",
                                           "--out", out], [out, out + ".worst.json"])
        report("replay sbw-limit dump", ["replay", out + ".worst.json"], [])
        out = os.path.join(tmp, "unordered.json")
        report("check bsw-identity,sbw-limit unordered grid tol 1e-3",
               ["check", "--suite", "bsw-identity,sbw-limit", "--alpha", "0.25,0.5,0.25",
                "--tol", "1e-3", "--trials", "4", "--seed", "42", "--out", out],
               [out, out + ".worst.json"])
        report("replay unordered grid dump", ["replay", out + ".worst.json"], [])
        for i, (suite, dims, trials, flags) in enumerate(GRIDS):
            out = os.path.join(tmp, f"grid-{i}.json")
            argv = ["check", "--suite", suite, "--dims", dims, "--trials", str(trials),
                    "--seed", "42", *flags, "--out", out]
            written = [out] + [out + ".worst.json"] * ("sbw-limit" in suite)
            report(f"check grid {suite} {dims} trials {trials}", argv, written)
        for kind in EXPLORATIONS:
            for dims, trials in EXPLORE_RUNS:
                out = os.path.join(tmp, f"{kind}-{dims}-{trials}.json")
                report(f"explore {kind} {dims} trials {trials}",
                       ["explore", kind, "--dims", dims, "--trials", str(trials), "--seed", "7",
                        "--out", out], [out])
                report(f"replay {kind} {dims} trials {trials}", ["replay", out], [])
        for seed in WIDE_SEEDS:
            out = os.path.join(tmp, f"check-seed-{seed}.json")
            report(f"check 2,2,2 trials 3 seed {seed}",
                   ["check", "--suite", "all", "--dims", "2,2,2", "--trials", "3",
                    "--seed", str(seed), "--out", out], [out])
            for kind in EXPLORATIONS:
                out = os.path.join(tmp, f"{kind}-seed-{seed}.json")
                report(f"explore {kind} 2,2,2 trials 100 seed {seed}",
                       ["explore", kind, "--dims", "2,2,2", "--trials", "100",
                        "--seed", str(seed), "--out", out], [out])
        rng = suites.trial_rng(42, "markov-roundtrip", 0)
        spec = suites._sample_markov([rng], (2, 2, 2), 1e-6)["spec"][0]
        state = states.regularize(states.DensityMatrix(
            states.random_density(12, np.random.default_rng([42, 3])), (2, 3, 2)), 1e-6)
        for command, value in (("markov", spec), ("trotter", state)):
            path = os.path.join(tmp, f"{command}-input.json")
            out = os.path.join(tmp, f"{command}.json")
            body = serialize.serialize_value(value)
            del body["type"]  # a spec or state file is the untagged body
            with open(path, "w") as fh:
                json.dump(body, fh)
            report(f"{command} file", [command, path, "--out", out], [out])
        rng = np.random.default_rng([42, 5])
        for checker, names in RANK_ONE_DUMPS:
            instance = {name: states.regularize(states.random_density(8, rng, rank=1), 1e-6,
                                                (2, 2, 2)) for name in names}
            path = dump(f"{checker}-rank-1.json", checker, instance)
            report(f"replay {checker} rank-1 dump", ["replay", path], [])
        rng = np.random.default_rng([42, 6])
        sigma = states.random_density(8, rng, rank=2)
        support = linalg.support_projector(sigma.mat)
        inside = support @ states.random_density(8, rng).mat @ support
        instance = {"rho": states.DensityMatrix(inside / np.trace(inside).real, (2, 2, 2)),
                    "sigma": states.DensityMatrix(sigma.mat, (2, 2, 2)),
                    "channel": channels.random_channel(8, 2, rng)}
        path = dump("monotonicity-kernel.json", "monotonicity", instance)
        report("replay monotonicity kernel dump", ["replay", path], [])
        for checker, scaled in SAMPLED_DUMPS:  # scaled: whether the trial carries mu, or None
            for trial in range(40):
                rngs = [suites.trial_rng(42, checker, trial)]
                sample = suites.SUITES[checker].sample(rngs, (2, 2, 2), DEFAULT_EPS)
                instance = suites._instance_row(sample, 0)
                if scaled is None or scaled == ("mu" in instance):
                    break
            path = dump(f"{checker}-{scaled}.json", checker, instance, seed=42, trial=trial)
            report(f"replay {checker} trial {trial} dump", ["replay", path], [])
        instance, _ = suites.run_trial(suites.SUITES["ssa"], (2, 2, 2), 42, 0, DEFAULT_EPS, 1e-8)
        blob = serialize.serialize_instance(instance)
        with open(os.path.join(tmp, "cmi-petz-2,2,2-100.json")) as fh:
            untolerant = {k: v for k, v in json.load(fh).items() if k != "tolerance"}
        for name, body in (
            ("ssa dump of checker and instance", {"checker": "ssa", "instance": blob}),
            ("ssa dump with empty dims", {"checker": "ssa", "dims": [], "seed": 42, "trial": 0,
                                          "tolerance": 1e-8, "opts": {}, "instance": blob}),
            ("cmi-petz report without tolerance", untolerant),
        ):
            path = os.path.join(tmp, name.replace(" ", "-") + ".json")
            with open(path, "w") as fh:
                json.dump(body, fh)
            report(f"replay {name}", ["replay", path], [])
    for seed in TWIRL_SEEDS:
        rng = np.random.default_rng([seed, 10, 0])
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        result = checks.check_twirl_identity((g + g.conj().T) / 2, (2, 3), rng, 10_000)
        text = " ".join([float(result.slack).hex()] + [
            f"{name}={float(value).hex()}" for name, value in result.quantities.items()])
        print(_digest(text.encode()), int(result.passed), f"twirl-identity seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
