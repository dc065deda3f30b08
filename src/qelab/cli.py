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
(seed, config) pairs; human-readable summaries go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from typing import Sequence

from . import checks
from .errors import BadConfig, QelabError
from .results import as_record, records_to_csv, records_to_json
from .serialize import deserialize_instance, serialize_instance
from .states import markov_spec_from_json, markov_state, state_from_json
from .suites import EXPLORATIONS, SUITES, bind_instance, explore_conjecture, iter_trials, run_suite
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
    if not dims or any(d < 1 for d in dims):
        raise BadConfig(f"dims must all be >= 1, got {text!r}")
    return dims


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _finite_values(values, flag: str) -> list:
    """values when it is a non-empty list of finite numbers, else BadConfig: the one rule
    for a grid, whether parsed from a flag or read from a dump's options."""
    if not (isinstance(values, list) and values and all(_is_finite(v) for v in values)):
        raise BadConfig(f"{flag} values must be finite, got {values!r}")
    return values


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise BadConfig(f"cannot parse {flag} {text!r}: {exc}") from exc
    return _finite_values(values, flag)


def _checked_tol(tol: float) -> float:
    if not (math.isfinite(tol) and tol > 0):
        raise BadConfig(f"--tol must be positive and finite, got {tol}")
    return tol


def _count(value, what: str, least: int = 0) -> int:
    """value when it is an int >= least (a bool is not one), else BadConfig."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise BadConfig(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _effective_seed(seed: int) -> int:
    """QEL_SEED when set, else --seed; the one gate every CLI seed passes."""
    env = os.environ.get("QEL_SEED")
    if env is None:
        return _count(seed, "--seed")
    try:
        return _count(int(env), "QEL_SEED")
    except ValueError as exc:
        raise BadConfig(f"QEL_SEED must be an integer, got {env!r}") from exc


def _load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfig(f"cannot read {what} {path!r}: {exc}") from exc


def _trotter_n_values(nmax: int) -> tuple[int, ...]:
    if nmax < 1:
        raise BadConfig(f"--nmax must be >= 1, got {nmax}")
    values = [1]
    while values[-1] * 2 <= nmax:
        values.append(values[-1] * 2)
    return tuple(values)


def _suite_opts(args) -> dict:
    opts: dict = {}
    if getattr(args, "alpha", None):
        alphas = _parse_floats(args.alpha, "--alpha")
        opts["alphas"] = alphas
        opts["sbw_alphas"] = sorted(set(alphas), reverse=True)
    if getattr(args, "t_samples", None):
        opts["t_samples"] = _parse_floats(args.t_samples, "--t-samples")
    if getattr(args, "nmax", None) is not None:
        opts["n_values"] = _trotter_n_values(args.nmax)
    return opts


def _write_report(records: list[dict] | dict, fmt: str, out: str | None) -> None:
    text = records_to_json(records) if fmt == "json" else records_to_csv(records)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _worst_dump_path(out: str | None) -> str:
    return (out + ".worst.json") if out else "qelab-worst.json"


def _dump_instance(
    path: str,
    checker: str,
    dims: Sequence[int],
    seed: int,
    trial: int,
    tolerance: float,
    instance: dict,
    opts: dict,
) -> None:
    payload = {
        "checker": checker,
        "dims": list(dims),
        "seed": seed,
        "trial": trial,
        "tolerance": tolerance,
        "opts": opts,
        "instance": serialize_instance(instance),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _say(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    dims = _parse_dims(args.dims)
    seed = _effective_seed(args.seed)
    tol = _checked_tol(args.tol)
    if args.suite == "all":
        names = list(SUITES)
    else:
        names = [p.strip() for p in args.suite.split(",") if p.strip()]
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise BadConfig(f"unknown suite(s) {unknown}; choose from {sorted(SUITES)}")
        if not names:
            raise BadConfig("--suite must name at least one suite")
    opts = _suite_opts(args)
    # Every suite's trial stream is built, and so checked, before any trial runs.
    runs = [
        (name, iter_trials(SUITES[name], dims, args.trials, seed, args.eps, tol, opts))
        for name in names
    ]

    records: list[dict] = []
    worst = None  # (slack, checker, trial, instance, tolerance)
    all_pass = True
    for name, trials in runs:
        triples = list(trials)
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
        path = _worst_dump_path(args.out)
        _dump_instance(path, worst[1], dims, seed, worst[2], worst[4], worst[3], opts)
        _say(f"worst failing instance written to {path}")
        return EXIT_FAILED
    return EXIT_OK


def cmd_markov(args) -> int:
    spec = markov_spec_from_json(_load_json(args.spec, "Markov spec"))
    state = markov_state(spec)
    t_samples = (
        _parse_floats(args.t_samples, "--t-samples")
        if args.t_samples
        else checks.DEFAULT_T_SAMPLES
    )
    result = checks.markov_characterizations(state, t_samples=t_samples)
    print(f"dims = {state.dims} (blocks: {len(spec.weights)})")
    for key in ("cmi", "r_log", "r_petz", "r_recon_ab", "r_recon_bc"):
        print(f"{key:>12} = {result.quantities[key]:.3e}")
    print(f"markov_like = {result.quantities['cmi'] < checks.MARKOV_LIKE_CMI}")
    print(f"consistent  = {result.extra_ok}")
    if args.out:
        _write_report(
            [as_record(result, state.dims, 0, 0)], args.format, args.out
        )
    return EXIT_OK if result.passed else EXIT_FAILED


def cmd_trotter(args) -> int:
    seed = _effective_seed(args.seed)
    tol = _checked_tol(args.tol)
    opts = {"n_values": _trotter_n_values(args.nmax)}
    if args.state:
        loaded = state_from_json(_load_json(args.state, "state"))
        if getattr(loaded, "n_parts", 1) != 3:
            raise BadConfig("trotter needs a tripartite state file")
        dims = loaded.dims
        instance = {"rho": loaded}
        runs = [(0, instance, SUITES["trotter-bound"].run(instance, tol, opts))]
    else:
        dims = _parse_dims(args.dims)
        runs = run_suite("trotter-bound", dims, args.trials, seed, args.eps, tol, opts)
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
    if args.out:
        _write_report(records, args.format, args.out)
    return EXIT_FAILED if flagged else EXIT_OK


def cmd_explore(args) -> int:
    dims = _parse_dims(args.dims)
    seed = _effective_seed(args.seed)
    report = explore_conjecture(
        args.kind, args.trials, dims, seed, args.eps, _checked_tol(args.tol)
    )
    _write_report(report.to_json(), "json", args.out)
    _say(f"[{report.kind}] trials={report.trials} min_slack={report.min_slack:.6e} "
         f"worst_trial={report.worst_trial}")
    if report.candidate_counterexample:
        _say("candidate counterexample flagged; inspect the worst instance dump")
        return EXIT_CANDIDATE
    return EXIT_OK


def cmd_replay(args) -> int:
    tol = _checked_tol(args.tol)
    payload = _load_json(args.dump, "dump")
    if not isinstance(payload, dict) or not isinstance(payload.get("opts", {}), dict):
        raise BadConfig("dump must be a JSON object with an object of options")
    tol, opts = payload.get("tolerance", tol), payload.get("opts", {})
    if not (_is_finite(tol) and tol >= 0):
        raise BadConfig(f"dump tolerance must be a finite number >= 0, got {tol!r}")
    for key, values in opts.items():
        _finite_values(values, f"dump option {key}")
    kind = payload.get("explore_kind", payload.get("kind"))
    # an exploration report or dump names a kind and no checker
    exploring = kind is not None and "checker" not in payload
    registry, name = (EXPLORATIONS, kind) if exploring else (SUITES, payload.get("checker"))
    blob = payload.get("instance", payload.get("worst_instance"))
    if name not in registry:
        raise BadConfig(f"dump names unknown checker or exploration kind {name!r}")
    if blob is None:
        raise BadConfig("dump carries no instance to replay")
    instance = deserialize_instance(blob)
    bind_instance(registry[name], instance, opts)
    if not exploring:
        dims = payload.get("dims", [])
        seed, trial = payload.get("seed", 0), payload.get("trial", 0)
        if not isinstance(dims, list):
            raise BadConfig(f"dump dims must be a list, got {dims!r}")
        for d in dims:
            _count(d, "each dump dim", least=1)
        _count(seed, "dump seed")
        _count(trial, "dump trial")
    result = registry[name].run(instance, tol, opts)
    if exploring:
        print(f"kind = {name}")
        for key, value in sorted(result.quantities.items()):
            print(f"{key} = {value:.12e}")
        print(f"slack = {result.slack:.12e}")
        return EXIT_CANDIDATE if result.slack < -10.0 * tol else EXIT_OK
    record = as_record(result, dims, seed, trial)
    sys.stdout.write(records_to_json([record]))
    _say(f"[{name}] slack={result.slack:.6e} "
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
    parser.add_argument("--format", choices=("json", "csv"), default="json")


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
    p_check.set_defaults(func=cmd_check)

    p_markov = sub.add_parser("markov", help="build and examine a Markov spec")
    p_markov.add_argument("spec", help="MarkovSpec JSON file")
    p_markov.add_argument("--t-samples", dest="t_samples", default=None)
    p_markov.add_argument("--out", default=None)
    p_markov.add_argument("--format", choices=("json", "csv"), default="json")
    p_markov.set_defaults(func=cmd_markov)

    p_trotter = sub.add_parser("trotter", help="compressed-product trace study")
    p_trotter.add_argument("state", nargs="?", default=None,
                           help="optional tripartite state JSON file")
    _add_common(p_trotter, trials_default=10)
    p_trotter.add_argument("--nmax", type=int, default=64)
    p_trotter.set_defaults(func=cmd_trotter)

    p_explore = sub.add_parser("explore", help="sweep an open inequality")
    p_explore.add_argument("kind", help="one of: " + ", ".join(EXPLORATIONS))
    _add_common(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_replay = sub.add_parser("replay", help="rerun a dumped instance")
    p_replay.add_argument("dump", help="instance dump JSON file")
    p_replay.add_argument("--tol", type=float, default=TOL_INEQ)
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
