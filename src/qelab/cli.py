"""Command-line front end for the entropy-inequality laboratory.

Subcommands
-----------
check    run checker suites on seeded random ensembles, write JSON/CSV reports
markov   build a block-structured state from a spec file and print signatures
trotter  compressed-product trace study (random trials or a given state file)
explore  sweep an open inequality and report the slack distribution
replay   rerun a dumped worst-case instance

Exit codes: 0 success, 1 failed check, 2 configuration error, 3 candidate
counterexample (explore/replay only), 4 internal error (an unexpected
exception; its traceback goes to stderr).  The environment variable QEL_SEED
overrides --seed when set.  Reports are byte-identical for identical
(seed, config) pairs; human-readable summaries go to stderr.  Each command runs with
numpy's bundled OpenBLAS on one thread, so its bits do not depend on the thread count.
main builds its parser at its first call and reuses it.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
import traceback
from typing import Sequence

import numpy as np

from . import checks
from .errors import BadConfig, QelabError, grid, need, number
from .results import as_record, records_to_csv, records_to_json
from .serialize import COUNT, GRID, check_dump, read_dump, read_value
from .states import MIXING, markov_state
from .suites import (
    EXPLORATIONS,
    SUITES,
    bind_instance,
    candidate_counterexample,
    explore_conjecture,
    iter_results,
    run_suite,
)
from .tolerances import DEFAULT_EPS, TOL_INEQ

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_CANDIDATE = 3
EXIT_INTERNAL = 4


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise BadConfig(f"cannot parse dims {text!r}: {exc}") from exc
    return need(dims, grid(1, integral=True), "dims")


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise BadConfig(f"cannot parse {flag} {text!r}: {exc}") from exc
    return need(values, GRID, f"{flag} values")  # the rule of a dump's options too


def _tol_and_eps(args) -> tuple[float, float]:
    return need(args.tol, number(0, strict=True), "--tol"), need(args.eps, MIXING, "--eps")


def _effective_seed(seed: int) -> int:
    """QEL_SEED when set, else --seed; the one gate every CLI seed passes."""
    env = os.environ.get("QEL_SEED")
    if env is None:
        return need(seed, COUNT, "--seed")
    try:
        return need(int(env), COUNT, "QEL_SEED")
    except ValueError as exc:
        raise BadConfig(f"QEL_SEED must be an integer, got {env!r}") from exc


def _trotter_n_values(nmax: int) -> tuple[int, ...]:
    """The powers of two up to --nmax."""
    return tuple(2**k for k in range(need(nmax, number(1, integral=True), "--nmax").bit_length()))


def _suite_opts(args) -> dict:
    """The suite options that check's --alpha, --t-samples and --nmax set; a flag given
    empty is a config error, not the default grid."""
    opts: dict = {}
    if args.alpha is not None:
        opts["alphas"] = _parse_floats(args.alpha, "--alpha")
    if args.t_samples is not None:
        opts["t_samples"] = _parse_floats(args.t_samples, "--t-samples")
    if args.nmax is not None:
        opts["n_values"] = _trotter_n_values(args.nmax)
    return opts


def _write_report(records: list[dict] | dict, fmt: str, out: str | None) -> None:
    text = records_to_json(records) if fmt == "json" else records_to_csv(records)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    dims = _parse_dims(args.dims)
    seed = _effective_seed(args.seed)
    tol, eps = _tol_and_eps(args)
    if args.suite == "all":
        names = list(SUITES)
    else:
        # a suite named twice runs once, where it was first named
        names = list(dict.fromkeys(p.strip() for p in args.suite.split(",") if p.strip()))
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise BadConfig(f"unknown suite(s) {unknown}; choose from {sorted(SUITES)}")
        if not names:
            raise BadConfig("--suite must name at least one suite")
    opts = _suite_opts(args)
    # Every suite's trial stream is built, and so checked, before any trial runs.
    runs = [
        (name, iter_results(SUITES[name], dims, args.trials, seed, eps, tol, opts))
        for name in names
    ]

    records: list[dict] = []
    worst = None  # (slack, checker, trial, instance, tolerance); instance() gives the row
    all_pass = True
    for name, trials in runs:
        # a passing trial's instance is never written: drop it, and the chunk it holds
        triples = [(trial, None if result.passed else instance, result)
                   for trial, instance, result in trials]
        min_slack = min(result.slack for _, _, result in triples)
        ok = all(result.passed for _, _, result in triples)
        all_pass = all_pass and ok
        for trial, instance, result in triples:
            records.append(as_record(result, dims, seed, trial))
            if not result.passed and (worst is None or result.slack < worst[0]):
                worst = (result.slack, name, trial, instance, result.tolerance)
        _say(f"[{name}] trials={args.trials} min_slack={min_slack:.6e} "
             f"{'PASS' if ok else 'FAIL'}")
    _write_report(records, args.format, args.out)
    if not all_pass and worst is not None:
        path = (args.out + ".worst.json") if args.out else "qelab-worst.json"
        dump = check_dump(worst[1], dims, seed, worst[2], worst[4], opts, worst[3]())
        _write_report(dump, "json", path)
        _say(f"worst failing instance written to {path}")
        return EXIT_FAILED
    return EXIT_OK


def cmd_markov(args) -> int:
    spec = read_value(args.spec, "markov_spec")
    state = markov_state(spec)
    t_samples = (
        _parse_floats(args.t_samples, "--t-samples")
        if args.t_samples is not None
        else checks.DEFAULT_T_SAMPLES
    )
    result = checks.markov_characterizations(state, t_samples=t_samples)
    _say(f"dims = {state.dims} (blocks: {len(spec.weights)})")
    for key in ("cmi", "r_log", "r_petz", "r_recon_ab", "r_recon_bc"):
        _say(f"{key:>12} = {result.quantities[key]:.3e}")
    _say(f"markov_like = {result.quantities['cmi'] < checks.MARKOV_LIKE_CMI}")
    _say(f"consistent  = {result.extra_ok}")
    _write_report([as_record(result, state.dims, 0, 0)], args.format, args.out)
    return EXIT_OK if result.passed else EXIT_FAILED


def cmd_trotter(args) -> int:
    seed = _effective_seed(args.seed)
    tol, eps = _tol_and_eps(args)
    opts = {"n_values": _trotter_n_values(args.nmax)}
    path = getattr(args, "state", None)  # the optional tripartite state file
    if path:
        loaded = read_value(path, "state")
        dims = SUITES["trotter-bound"].check_dims(loaded.dims)
        instance = {"rho": loaded}
        runs = [(0, instance, SUITES["trotter-bound"].run(instance, tol, opts))]
    else:
        dims = _parse_dims(args.dims)
        runs = run_suite("trotter-bound", dims, args.trials, seed, eps, tol, opts)
    records = []
    flagged = False
    for trial, _, result in runs:
        records.append(as_record(result, dims, seed, trial))
        trace_surrogate = result.quantities["trace_surrogate"]
        _say(f"trial {trial}: trace_surrogate={trace_surrogate:.12f}")
        for n in opts["n_values"]:
            t_n = result.quantities[f"t_{n}"]
            _say(f"  n={n:>3}  t_n={t_n:.12f}  t_n-TrS={t_n - trace_surrogate:+.3e}")
        if not result.passed:
            flagged = True
            _say(f"trial {trial}: FLAGGED (bound or convergence violated)")
    _write_report(records, args.format, args.out)
    return EXIT_FAILED if flagged else EXIT_OK


def cmd_explore(args) -> int:
    dims = _parse_dims(args.dims)
    seed = _effective_seed(args.seed)
    tol, eps = _tol_and_eps(args)
    report = explore_conjecture(args.kind, args.trials, dims, seed, eps, tol)
    _write_report(report, "json", args.out)
    _say(f"[{report['kind']}] trials={report['trials']} min_slack={report['min_slack']:.6e} "
         f"worst_trial={report['worst_trial']}")
    if report["candidate_counterexample"]:
        _say("candidate counterexample flagged; inspect the worst instance dump")
        return EXIT_CANDIDATE
    return EXIT_OK


def cmd_replay(args) -> int:
    suite, instance, tol, opts, record = read_dump(args.dump, SUITES, EXPLORATIONS)
    bind_instance(suite, instance, opts)
    result = suite.run(instance, tol, opts)
    if record is None:  # an exploration report
        print(f"kind = {suite.name}")
        for key, value in sorted(result.quantities.items()):
            print(f"{key} = {value:.12e}")
        print(f"slack = {result.slack:.12e}")
        return EXIT_CANDIDATE if candidate_counterexample(result.slack, tol) else EXIT_OK
    sys.stdout.write(records_to_json([as_record(result, *record)]))
    _say(f"[{suite.name}] slack={result.slack:.6e} "
         f"{'PASS' if result.passed else 'FAIL'}")
    return EXIT_OK if result.passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, trials_default: int = 1000) -> None:
    parser.add_argument("--dims", default="2,2,2", help="subsystem dims, e.g. 2,2,2")
    parser.add_argument("--trials", type=int, default=trials_default)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=TOL_INEQ,
                        help="absolute slack tolerance")
    parser.add_argument("--eps", type=float, default=DEFAULT_EPS,
                        help="full-rank regularization weight")
    parser.add_argument("--out", default=None, help="report path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qelab",
        description="numerical laboratory for entropy inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run checker suites")
    p_check.add_argument("--suite", default="all",
                         help="comma-separated suite names or 'all'")
    _add_common(p_check)
    p_check.add_argument("--alpha", default=None,
                         help="comma-separated alpha grid override")
    p_check.add_argument("--t-samples", dest="t_samples", default=None,
                         help="comma-separated t grid for the Petz signature")
    p_check.add_argument("--nmax", type=int, default=None,
                         help="largest compression order (powers of two)")

    p_markov = sub.add_parser("markov", help="build and examine a Markov spec")
    p_markov.add_argument("spec", help="MarkovSpec JSON file")
    p_markov.add_argument("--t-samples", dest="t_samples", default=None)
    p_markov.add_argument("--out", default=None)

    p_trotter = sub.add_parser("trotter", help="compressed-product trace study")
    p_trotter.add_argument("state", nargs="?", default=None,
                           help="optional tripartite state JSON file")
    _add_common(p_trotter, trials_default=10)
    p_trotter.add_argument("--nmax", type=int, default=64)

    p_explore = sub.add_parser("explore", help="sweep an open inequality")
    p_explore.add_argument("kind", help="one of: " + ", ".join(EXPLORATIONS))
    _add_common(p_explore)

    p_replay = sub.add_parser("replay", help="rerun a dumped instance")
    p_replay.add_argument("dump", help="instance dump JSON file")

    # explore always writes JSON
    for p in (p_check, p_markov, p_trotter):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: built at its first call, not at import."""
    return build_parser()


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS; two no-ops when numpy's
    linalg extension reaches no scipy_openblas_*_num_threads64_ symbols."""
    try:  # dlsym on the extension searches the libraries it links too
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return (lambda: None), (lambda threads: None)
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    return get, set_


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    get_threads, set_threads = _blas_threads()
    threads = get_threads()
    set_threads(1)  # a threaded GEMM splits its sums otherwise, and a report's bits with them
    try:
        # looked up at every call, so that a rebound cmd_<name> is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except BadConfig as exc:
        _say(f"config error: {exc}")
        return EXIT_CONFIG
    except QelabError as exc:
        _say(f"error: {exc}")
        return EXIT_CONFIG
    except Exception:
        # A crash must never read as "a check failed" (exit 1).
        traceback.print_exc()
        _say("internal error: unexpected exception")
        return EXIT_INTERNAL
    finally:
        set_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
