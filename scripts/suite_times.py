"""Print each suite's and exploration's in-process milliseconds per call for qelab checkouts.

    python scripts/suite_times.py --dims 2,2,2 --trials 5 --rounds 20
    python scripts/suite_times.py --dims 2,2,2 --trials 100 --rounds 20
    python scripts/suite_times.py --src /path/to/before/src --src src --rounds 30
    python scripts/suite_times.py --suite markov-roundtrip --src /path/to/before/src --src src

One call runs one suite or exploration at --dims with --trials trials (a single chunk when
--trials is at most its chunk size): a suite through suites.run_suite, which builds every
trial's instance row (`qelab check` builds only the rows it dumps), and an exploration through
suites.explore_conjecture, the path that `qelab explore` runs, report included.  Only
the rows whose check_dims accepts --dims are timed; the others are named on a "skipped" line
(at 2,2 the tripartite rows, for instance).  Round r runs each timed row once with seed
FIRST_SEED + r, for each checkout in turn, so the checkouts alternate round by round and a
drift of the machine's speed falls on all of them alike.  With --trials 100 at 2,2,2 the
explorations take the shape of perfbench's explore-d8 unit (100 trials per kind), without the
CLI around it.  Each checkout's qelab is imported from its --src directory into this process,
and its modules are kept apart from the other checkouts'.  One round runs first, untimed, to
warm caches.  Each line gives a row's min and median over the rounds, in ms, per checkout; the
"suites" and "explorations" lines give the same for the sum over the timed suites, and over
the timed explorations, of one round.  --suite NAME[,NAME...] times only the named suites and
explorations (an unknown name is a usage error), so an A/B of one row needs no other script.
BLAS runs on one thread unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 500  # seed of the first timed round


def _load(src: str):
    """The qelab.suites module of the checkout whose package lives in ``src``, imported apart
    from any other checkout's: qelab's modules leave sys.modules again once it is loaded."""
    def purge():
        for name in [name for name in sys.modules if name == "qelab" or name.startswith("qelab.")]:
            del sys.modules[name]

    purge()
    sys.path.insert(0, os.path.abspath(src))
    try:
        return importlib.import_module("qelab.suites")
    finally:
        sys.path.pop(0)
        purge()


def _call_ms(suites, name: str, dims: tuple[int, ...], trials: int, seed: int) -> float:
    start = time.perf_counter()
    if name in suites.EXPLORATIONS:
        suites.explore_conjecture(name, trials, dims, seed)
    else:
        suites.run_suite(name, dims, trials, seed)
    return 1e3 * (time.perf_counter() - start)


def _accepts(suites, suite, dims: tuple[int, ...]) -> bool:
    try:
        suite.check_dims(dims)
    except suites.BadConfig:
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="directory holding a qelab package; repeat to compare checkouts "
                             "(default: this repo's src)")
    parser.add_argument("--dims", default="2,2,2")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--suite", help="comma-separated suites and explorations to time "
                                        "(default: all of them)")
    args = parser.parse_args()
    if args.trials < 1 or args.rounds < 1:
        parser.error("--trials and --rounds must be at least 1")
    dims = tuple(int(d) for d in args.dims.split(","))
    checkouts = [_load(src) for src in args.src or [os.path.join(REPO, "src")]]
    registries = {"suites": checkouts[0].SUITES, "explorations": checkouts[0].EXPLORATIONS}
    if args.suite is not None:
        chosen = args.suite.split(",")
        unknown = [name for name in chosen if not any(name in r for r in registries.values())]
        if unknown:
            parser.error(f"unknown suite or exploration: {', '.join(unknown)}")
        registries = {total: {name: suite for name, suite in registry.items() if name in chosen}
                      for total, registry in registries.items()}
    skipped = [name for registry in registries.values() for name, suite in registry.items()
               if not _accepts(checkouts[0], suite, dims)]
    groups = {total: [name for name in registry if name not in skipped]
              for total, registry in registries.items()}
    groups = {total: group for total, group in groups.items() if group}
    names = [name for group in groups.values() for name in group]
    if not names:
        parser.error(f"no chosen suite or exploration accepts dims {args.dims}")

    times = [{name: [] for name in names} for _ in checkouts]
    for r in range(-1, args.rounds):  # round -1 warms up and is not kept
        for suites, kept in zip(checkouts, times):
            for name in names:
                ms = _call_ms(suites, name, dims, args.trials, FIRST_SEED + max(r, 0))
                if r >= 0:
                    kept[name].append(ms)

    print(f"dims {args.dims}, {args.trials} trials per call, {args.rounds} rounds, "
          f"seeds {FIRST_SEED}..{FIRST_SEED + args.rounds - 1}; ms per call, min / median")
    for i, suites in enumerate(checkouts):
        print(f"[{i}] {os.path.dirname(os.path.dirname(suites.__file__))}")
    if skipped:
        print(f"skipped, their dims do not fit {args.dims}: {', '.join(skipped)}")
    width = max(len(name) for name in names + list(groups))
    print(" " * width + "".join(f"  {f'[{i}] min':>10} {f'[{i}] median':>10}"
                                for i in range(len(checkouts))))
    for kept in times:
        for total, group in groups.items():
            kept[total] = [sum(round_ms) for round_ms in zip(*(kept[n] for n in group))]
    for name in names + list(groups):
        print(f"{name:<{width}}" + "".join(
            f"  {min(kept[name]):10.3f} {statistics.median(kept[name]):10.3f}" for kept in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
