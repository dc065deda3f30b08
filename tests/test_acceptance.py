"""Acceptance gate: one test per numbered criterion.

Each test prints a single ``criterion NN <name>: PASS/FAIL`` line with the
measured worst quantity and wall time, then asserts at the stated tolerance.
Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion lines.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

from qelab.channels import random_unital_channel
from qelab.checks import (
    DEFAULT_DW_ALPHAS,
    DEFAULT_SBW_ALPHAS,
    DEFAULT_TROTTER_NS,
    check_audenaert_ps,
    check_bsw_identity,
    check_cl_concavity,
    check_golden_thompson,
    check_lieb_concavity,
    check_overlap_chain,
    check_renyi_monotonicity,
    check_sbw_limit,
    check_stronger_monotonicity,
    check_three_state_chain,
    check_trace_exp_bound,
    check_twirl_identity,
    dw_alpha_profile,
    trotter_sequence,
)
from qelab.states import (
    SubnormalizedOperator,
    random_density,
    regularize,
)
from qelab.suites import EXPLORATIONS, SUITES, explore_conjecture, run_suite
from helpers import random_tripartite

SEED = 42
SLACK_TOL = 1e-8


def _rng(criterion, trial):
    return np.random.default_rng([SEED, criterion, trial])


def _report(num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(
        f"criterion {num:02d} {name}: {verdict} ({detail}, "
        f"elapsed={elapsed:.1f}s of {budget:.0f}s)"
    )
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert elapsed < budget, f"criterion {num:02d} over budget: {elapsed:.1f}s"


def _regular_pair(d, rng):
    return (
        regularize(random_density(d, rng), 1e-6),
        regularize(random_density(d, rng), 1e-6),
    )


def test_criterion_01_renyi_monotone_in_alpha():
    start = time.perf_counter()
    worst = np.inf
    for trial in range(500):
        rng = _rng(1, trial)
        d = (2, 3, 4)[trial % 3]
        rho, sigma = _regular_pair(d, rng)
        result = check_renyi_monotonicity(rho, sigma)
        worst = min(worst, result.slack)
    elapsed = time.perf_counter() - start
    _report(1, "renyi-monotone", worst >= -SLACK_TOL,
            f"min_slack={worst:.3e}", elapsed, 10.0)


def test_criterion_02_overlap_chain():
    start = time.perf_counter()
    worst = np.inf
    for trial in range(1000):
        rng = _rng(2, trial)
        d = (2, 3, 4)[trial % 3]
        rho, sigma = _regular_pair(d, rng)
        if trial % 2:
            sigma = SubnormalizedOperator(rng.uniform(0.3, 1.0) * sigma.mat)
        result = check_overlap_chain(rho, sigma)
        worst = min(worst, result.slack)
    elapsed = time.perf_counter() - start
    _report(2, "overlap-chain", worst >= -SLACK_TOL,
            f"min_slack={worst:.3e}", elapsed, 10.0)


def test_criterion_03_stronger_monotonicity_unital():
    start = time.perf_counter()
    worst = np.inf
    worst_trace = -np.inf
    for trial in range(1000):
        rng = _rng(3, trial)
        rho, sigma = _regular_pair(4, rng)
        channel = random_unital_channel(4, int(rng.integers(2, 5)), rng)
        result = check_stronger_monotonicity(rho, sigma, channel)
        worst = min(worst, result.slack)
        worst_trace = max(worst_trace, result.quantities["trace_surrogate"])
    elapsed = time.perf_counter() - start
    ok = worst >= -SLACK_TOL and worst_trace <= 1.0 + SLACK_TOL
    _report(3, "stronger-monotonicity", ok,
            f"min_slack={worst:.3e} max_trace={worst_trace:.12f}",
            elapsed, 60.0)


def test_criterion_04_trace_exp_and_three_state_chain():
    from qelab.suites import _sample_three_state, _sample_trace_exp

    start = time.perf_counter()
    worst = np.inf
    worst_trace = -np.inf
    for trial in range(1000):
        rng = _rng(4, trial)
        inst = _sample_trace_exp(rng, (2, 2, 2), 1e-6)
        bound = check_trace_exp_bound(inst["rho"], inst["sigma"], inst["tau"])
        worst = min(worst, bound.slack)
        worst_trace = max(worst_trace, bound.quantities["trace_value"])
        inst = _sample_three_state(rng, (2, 2, 2), 1e-6)
        chain = check_three_state_chain(
            inst["rho"], inst["sigma"], inst["tau"], inst["omega"]
        )
        worst = min(worst, chain.slack)
        worst_trace = max(worst_trace, chain.quantities["trace_surrogate"])
    elapsed = time.perf_counter() - start
    ok = worst >= -SLACK_TOL and worst_trace <= 1.0 + SLACK_TOL
    _report(4, "trace-exp+three-state", ok,
            f"min_slack={worst:.3e} max_trace={worst_trace:.12f}",
            elapsed, 120.0)


def test_criterion_05_bsw_identity_residual():
    start = time.perf_counter()
    worst = -np.inf
    for trial in range(1000):
        rng = _rng(5, trial)
        states = [
            regularize(random_tripartite((2, 2, 2), rng), 1e-6)
            for _ in range(4)
        ]
        result = check_bsw_identity(*states)
        worst = max(worst, result.quantities["residual"])
    elapsed = time.perf_counter() - start
    _report(5, "bsw-identity", worst < SLACK_TOL,
            f"max_residual={worst:.3e}", elapsed, 60.0)


def test_criterion_06_markov_roundtrip():
    start = time.perf_counter()
    worst_cmi = -np.inf
    worst_res = -np.inf
    for _, _, result in run_suite("markov-roundtrip", (2, 2, 2), 100, SEED):
        q = result.quantities
        worst_cmi = max(worst_cmi, q["cmi"])
        worst_res = max(
            worst_res, q["r_log"], q["r_petz"], q["r_recon_ab"],
            q["r_recon_bc"], q["r_surrogate"],
        )
    elapsed = time.perf_counter() - start
    ok = worst_cmi < 1e-10 and worst_res < 1e-7
    _report(6, "markov-roundtrip", ok,
            f"max_cmi={worst_cmi:.3e} max_residual={worst_res:.3e}",
            elapsed, 30.0)


def test_criterion_07_trotter_bound_and_convergence():
    start = time.perf_counter()
    worst_t = -np.inf
    converged = True
    for trial in range(200):
        rng = _rng(7, trial)
        state = regularize(random_tripartite((2, 2, 2), rng), 1e-6)
        result = trotter_sequence(state)
        worst_t = max(worst_t, max(result.quantities[f"t_{n}"] for n in DEFAULT_TROTTER_NS))
        if result.quantities["err_last"] >= result.quantities["err_first"]:
            converged = False
    elapsed = time.perf_counter() - start
    ok = worst_t <= 1.0 + SLACK_TOL and converged
    _report(7, "trotter-bound", ok,
            f"max_t={worst_t:.12f} converged={converged}", elapsed, 120.0)


def test_criterion_08_dw_and_sbw_limits():
    start = time.perf_counter()
    worst_q = -np.inf
    worst_final = -np.inf
    monotone = True
    for trial in range(200):
        rng = _rng(8, trial)
        rho, sigma = _regular_pair(3, rng)
        channel = random_unital_channel(3, int(rng.integers(2, 5)), rng)
        profile = dw_alpha_profile(rho, sigma, channel, alphas=DEFAULT_DW_ALPHAS)
        worst_q = max(
            worst_q,
            max(v for k, v in profile.quantities.items() if k.startswith("q_")),
        )
        limit = check_sbw_limit(rho, sigma, channel)
        es = [limit.quantities[f"e_{a!r}"] for a in DEFAULT_SBW_ALPHAS]
        if any(b > a + SLACK_TOL for a, b in zip(es, es[1:])):
            monotone = False
        worst_final = max(worst_final, es[-1])
    elapsed = time.perf_counter() - start
    ok = worst_q <= 1.0 + SLACK_TOL and monotone and worst_final < 1e-4
    _report(8, "dw-sbw-limits", ok,
            f"max_q={worst_q:.9f} monotone={monotone} "
            f"max_final_e={worst_final:.3e}", elapsed, 120.0)


def test_criterion_09_appendix_inequalities():
    start = time.perf_counter()
    worst = np.inf
    for trial in range(1000):
        rng = _rng(9, trial)
        d = (2, 3, 4, 5, 6)[trial % 5]
        m = rng.uniform(0.2, 1.0) * regularize(random_density(d, rng), 1e-6).mat
        n = rng.uniform(0.2, 1.0) * regularize(random_density(d, rng), 1e-6).mat
        worst = min(worst, check_audenaert_ps(m, n).slack)

        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a, b = (g + g.conj().T) / 2, None
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = (g + g.conj().T) / 2
        worst = min(worst, check_golden_thompson(a, b).slack)

        x1 = regularize(random_density(d, rng), 1e-6).mat
        x2 = regularize(random_density(d, rng), 1e-6).mat
        worst = min(worst, check_lieb_concavity(a, x1, x2, 0.5).slack)
        mgen = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        worst = min(worst, check_cl_concavity(mgen, x1, x2, 0.5).slack)
    elapsed = time.perf_counter() - start
    _report(9, "appendix-inequalities", worst >= -SLACK_TOL,
            f"min_slack={worst:.3e}", elapsed, 60.0)


def test_criterion_10_twirl_identity_monte_carlo():
    start = time.perf_counter()
    worst = np.inf
    for trial in range(20):
        rng = _rng(10, trial)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        x = (g + g.conj().T) / 2
        result = check_twirl_identity(x, (2, 3), rng, samples=10_000)
        worst = min(worst, result.slack)
    elapsed = time.perf_counter() - start
    _report(10, "twirl-identity", worst >= 0.0,
            f"min_bound_margin={worst:.3e}", elapsed, 30.0)


def test_criterion_11_check_all_byte_identical():
    start = time.perf_counter()
    args = [
        sys.executable, "-m", "qelab.cli", "check",
        "--suite", "all", "--seed", "42", "--trials", "2",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(json.loads(first.stdout)) == 2 * len(SUITES)
    )
    _report(11, "determinism", ok,
            f"bytes={len(first.stdout)} identical={first.stdout == second.stdout}",
            elapsed, 300.0)


def test_criterion_12_conjecture_explorer_completes():
    start = time.perf_counter()
    summaries = []
    for kind in EXPLORATIONS:
        report = explore_conjecture(kind, 10_000, (2, 2, 2), SEED)
        assert report["trials"] == 10_000
        assert sum(report["histogram"]["counts"]) == 10_000
        assert len(report["histogram"]["edges"]) == len(report["histogram"]["counts"]) + 1
        summaries.append(f"{kind}:min={report['min_slack']:.2e}")
        # exploratory only: the sign of min_slack is reported, never asserted
    elapsed = time.perf_counter() - start
    _report(12, "conjecture-explorer", True, " ".join(summaries), elapsed, 600.0)
