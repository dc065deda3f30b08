"""Named checker suites: samplers plus runners with a shared RNG discipline.

Each suite couples a sampler (rng, dims, eps) -> instance with a runner
(instance, tol, opts) -> CheckResult.  An instance is the keyword arguments of
the suite's checker, so most runners only call checker(**instance, tol=tol);
replay binds a loaded instance to those arguments first (bind_instance).
SUITES holds the asserted checks, EXPLORATIONS the open inequalities whose
slack is only reported; one driver, iter_trials, runs both.  Instances hold
only serializable values so any trial can be dumped and replayed.  Trial randomness is keyed as
default_rng([seed, suite_index, trial]); results are therefore reproducible
from (seed, config) alone, independent of execution order.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import checks
from .channels import KrausChannel, random_channel, random_unital_channel
from .entropy import relative_entropy
from .errors import BadConfig
from .linalg import hermitize, kron, trace_norm
from .results import CheckResult, ExplorationReport
from .serialize import serialize_instance
from .states import (
    DensityMatrix,
    MarkovSpec,
    MultipartiteState,
    SubnormalizedOperator,
    markov_state,
    normalized_weights,
    random_density,
    regularize,
)
from .tolerances import DEFAULT_EPS, TOL_IDENTITY, TOL_INEQ

# Thresholds for the exact-construction round trip (much tighter than the
# generic inequality tolerance: these are identities up to float noise).
MARKOV_CMI_TOL = 1e-10
MARKOV_RESIDUAL_TOL = 1e-7
# Block factors are regularized this hard so that the assembled state's
# smallest eigenvalue stays orders of magnitude above the rank cutoff, which
# keeps the matrix-log residuals at the 1e-9 level instead of drifting.
MARKOV_FACTOR_EPS = 3e-3
# Modest sample count for the suite sweep; the direct checker call is the
# place for the full n = 10^4 study.
TWIRL_SUITE_SAMPLES = 200
CL_ALPHA_GRID = (1.5, 2.0, 4.0)


def _flat(dims: Sequence[int]) -> int:
    return int(np.prod([int(d) for d in dims]))


def _rand_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitize(g) / math.sqrt(d)


def _appendix_dim(dims: Sequence[int]) -> int:
    return min(_flat(dims), 6)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _sample_pair(rng, dims, eps):
    d = _flat(dims)
    return {
        "rho": regularize(random_density(d, rng), eps),
        "sigma": regularize(random_density(d, rng), eps),
    }


def _sample_pair_generic_channel(rng, dims, eps):
    inst = _sample_pair(rng, dims, eps)
    inst["channel"] = random_channel(_flat(dims), 2, rng)
    return inst


def _sample_pair_unital_channel(rng, dims, eps):
    inst = _sample_pair(rng, dims, eps)
    d = _flat(dims)
    inst["channel"] = random_unital_channel(d, d, rng)
    return inst


def _sample_overlap(rng, dims, eps):
    inst = _sample_pair(rng, dims, eps)
    # Half the ensemble uses a strictly subnormalized reference mu * sigma.
    if rng.random() < 0.5:
        mu = float(rng.uniform(0.5, 1.0))
        inst["sigma_base"] = inst["sigma"]
        inst["mu"] = mu
        inst["sigma"] = SubnormalizedOperator(mu * inst["sigma_base"].mat)
    return inst


def _state(rng, dims, eps):
    d = _flat(dims)
    return MultipartiteState(regularize(random_density(d, rng), eps), dims)


def _sample_tri(rng, dims, eps):
    return {"rho": _state(rng, dims, eps)}


def _sample_tri_pair(rng, dims, eps):
    return {"rho": _state(rng, dims, eps), "sigma": _state(rng, dims, eps)}


def _sample_tri_quad(rng, dims, eps):
    return {
        "rho": _state(rng, dims, eps),
        "sigma": _state(rng, dims, eps),
        "tau": _state(rng, dims, eps),
        "omega": _state(rng, dims, eps),
    }


def _perturb_edges(state: MultipartiteState, rng, env_dim: int = 2) -> MultipartiteState:
    """Random local channels on the outer subsystems; the middle marginal of
    the output equals that of the input exactly."""
    da, db, dc = state.dims
    ka = random_channel(da, env_dim, rng).kraus
    kc = random_channel(dc, env_dim, rng).kraus
    ops = [kron(kron(a, np.eye(db)), c) for a in ka for c in kc]
    return MultipartiteState(DensityMatrix(KrausChannel(ops).apply(state.matrix)), state.dims)


def _sample_trace_exp(rng, dims, eps):
    rho = _state(rng, dims, eps)
    return {
        "rho": rho,
        "sigma": _perturb_edges(rho, rng),  # shares rho's middle marginal
        "tau": _state(rng, dims, eps),
    }


def _sample_three_state(rng, dims, eps):
    sigma = _state(rng, dims, eps)
    return {
        "rho": _state(rng, dims, eps),
        "sigma": sigma,
        "tau": _perturb_edges(sigma, rng),  # shares sigma's middle marginal
        "omega": _state(rng, dims, eps),
    }


def _sample_bipartite_pair(rng, dims, eps):
    return {"rho_ab": _state(rng, dims[:2], eps), "sigma_ab": _state(rng, dims[:2], eps)}


def _sample_markov(rng, dims, eps):
    d_a, d_c = dims[0], dims[2]
    n_blocks = int(rng.integers(1, 4))
    raw = rng.dirichlet(np.ones(n_blocks))
    weights = normalized_weights([0.8 * float(w) + 0.2 / n_blocks for w in raw])
    ab_factors = []
    bc_factors = []
    for _ in range(n_blocks):
        dl = int(rng.integers(1, 3))
        dr = int(rng.integers(1, 3))
        ab_factors.append(regularize(random_density(d_a * dl, rng), MARKOV_FACTOR_EPS))
        bc_factors.append(regularize(random_density(dr * d_c, rng), MARKOV_FACTOR_EPS))
    return {"spec": MarkovSpec(d_a, d_c, weights, tuple(ab_factors), tuple(bc_factors))}


def _sample_lieb(rng, dims, eps):
    d = _appendix_dim(dims)
    return {
        "h": _rand_hermitian(d, rng),
        "x1": regularize(random_density(d, rng), eps),
        "x2": regularize(random_density(d, rng), eps),
        "lam": float(rng.uniform(0.05, 0.95)),
    }


def _sample_cl(rng, dims, eps):
    d = _appendix_dim(dims)
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(d)
    return {
        "m": m,
        "x1": regularize(random_density(d, rng), eps),
        "x2": regularize(random_density(d, rng), eps),
        "lam": float(rng.uniform(0.05, 0.95)),
    }


def _sample_gt(rng, dims, eps):
    d = _appendix_dim(dims)
    return {"a": _rand_hermitian(d, rng), "b": _rand_hermitian(d, rng)}


def _sample_audenaert(rng, dims, eps):
    d = _appendix_dim(dims)
    mu1 = float(rng.uniform(0.3, 1.0))
    mu2 = float(rng.uniform(0.3, 1.0))
    return {
        "m": SubnormalizedOperator(mu1 * regularize(random_density(d, rng), eps).mat),
        "n": SubnormalizedOperator(mu2 * regularize(random_density(d, rng), eps).mat),
    }


def _sample_twirl(rng, dims, eps):
    da, db = dims[0], dims[1]
    x = _rand_hermitian(da * db, rng)
    return {
        "x": x,
        "d_a": da,
        "d_b": db,
        "mc_seed": int(rng.integers(0, 2**63 - 1)),
        "samples": TWIRL_SUITE_SAMPLES,
    }


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _calls(checker: str | Callable, *options: str) -> Callable:
    """The runner (inst, tol, opts) -> checker(**inst, <options set in opts>, tol=tol).

    A str names a function of checks, looked up at every call so that a rebound
    checks.<name> (a tracer's wrapper, a test's fake) is the one that runs.  The
    runners below add something to their checker and take its keyword arguments.
    run.calls keeps (checker, options) for bind_instance.
    """

    def run(inst, tol, opts):
        fn = getattr(checks, checker) if isinstance(checker, str) else checker
        return fn(**inst, **{key: opts[key] for key in options if key in opts}, tol=tol)

    run.calls = (checker, options)
    return run


def _run_overlap(rho, sigma, tol, sigma_base=None, mu=None):
    result = checks.check_overlap_chain(rho, sigma, tol=tol)
    if mu is not None:
        # The scaled reference obeys the exact shift rule
        # S(rho || mu sigma) = S(rho || sigma) - log mu.
        base = relative_entropy(rho, sigma_base).value
        scaled = result.quantities["relative_entropy"]
        residual = abs(scaled - (base - math.log(mu)))
        result.quantities["scaling_residual"] = residual
        result.extra_ok = bool(result.extra_ok and residual <= TOL_IDENTITY)
    return result


def _run_bsw(rho, sigma, tau, omega, tol):
    # An identity: judged at TOL_IDENTITY whatever --tol says.
    return checks.check_bsw_identity(rho, sigma, tau, omega)


def _run_markov(spec, tol, t_samples=checks.DEFAULT_T_SAMPLES):
    state = markov_state(spec)
    chars = checks.markov_characterizations(state, t_samples=t_samples)
    quantities = dict(chars.quantities)
    surrogate = checks.ssa_surrogate(state)
    quantities["r_surrogate"] = trace_norm(state.matrix - surrogate)
    slacks = [MARKOV_CMI_TOL - quantities["cmi"]] + [
        MARKOV_RESIDUAL_TOL - quantities[key]
        for key in ("r_log", "r_petz", "r_recon_ab", "r_recon_bc", "r_surrogate")
    ]
    return CheckResult("markov-roundtrip", quantities, min(slacks), 0.0)


def _run_sbw(rho, sigma, channel, tol, sbw_alphas=checks.DEFAULT_SBW_ALPHAS):
    return checks.check_sbw_limit(rho, sigma, channel, sbw_alphas, tol)


def _run_cl(m, x1, x2, lam, tol):
    quantities = {}
    worst = math.inf
    for alpha in CL_ALPHA_GRID:
        single = checks.check_cl_concavity(m, x1, x2, lam, alpha, tol)
        quantities[f"slack_{alpha!r}"] = single.slack
        worst = min(worst, single.slack)
    return CheckResult("carlen-lieb-concavity", quantities, worst, tol)


def _run_twirl(x, d_a, d_b, mc_seed, samples, tol):
    # The Monte Carlo stream is seeded from the instance; judged at 0.0.
    rng = np.random.default_rng(int(mc_seed))
    return checks.check_twirl_identity(x, (int(d_a), int(d_b)), rng, samples=int(samples))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


# Subsystem-count rules: (fewest, most) dims a sampler can take, None for no
# upper limit.  Bipartite samplers use the first two dims.
_BIPARTITE = (2, None)
_TRIPARTITE = (3, 3)


@dataclass(frozen=True)
class Suite:
    name: str
    sample: Callable
    run: Callable
    description: str
    parts: tuple[int, int | None] = (1, None)

    def check_dims(self, dims: Sequence[int]) -> tuple[int, ...]:
        """``dims`` as a tuple of ints; BadConfig when the sampler cannot take them."""
        dims = tuple(int(d) for d in dims)
        fewest, most = self.parts
        if len(dims) < fewest or (most is not None and len(dims) > most):
            need = f"exactly {fewest}" if fewest == most else f"at least {fewest}"
            raise BadConfig(f"this suite needs {need} subsystem dims, got {list(dims)}")
        return dims


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "renyi-monotone",
            _sample_pair,
            _calls("check_renyi_monotonicity"),
            "Renyi relative entropy nondecreasing in alpha on (0,1)",
        ),
        Suite(
            "overlap-chain",
            _sample_overlap,
            _calls(_run_overlap),
            "relative entropy >= root-overlap bound >= sqrt distances (Tr sigma <= 1)",
        ),
        Suite(
            "monotonicity",
            _sample_pair_generic_channel,
            _calls("check_monotonicity"),
            "data processing: S(rho||sigma) >= S(Phi rho||Phi sigma)",
        ),
        Suite(
            "stronger-monotonicity",
            _sample_pair_unital_channel,
            _calls("check_stronger_monotonicity"),
            "refined data processing chain for unital channels",
        ),
        Suite(
            "unital-trace-bound",
            _sample_pair_unital_channel,
            _calls("check_unital_trace_bound"),
            "Tr exp(log sigma + dual logs) <= 1 for unital channels",
        ),
        Suite(
            "ptrace-strengthening",
            _sample_bipartite_pair,
            _calls("check_ptrace_strengthening"),
            "refined monotonicity for the partial trace",
            _BIPARTITE,
        ),
        Suite(
            "ssa",
            _sample_tri,
            _calls("check_ssa_strengthened"),
            "strong subadditivity chain against the exp-log surrogate",
            _TRIPARTITE,
        ),
        Suite(
            "trace-exp-bound",
            _sample_trace_exp,
            _calls("check_trace_exp_bound"),
            "Tr exp(log rho_AB - log sigma_B + log tau_BC) <= 1 with matched middles",
            _TRIPARTITE,
        ),
        Suite(
            "bsw-identity",
            _sample_tri_quad,
            _calls(_run_bsw),
            "exact decomposition of relative entropy to an exp-log reference",
            _TRIPARTITE,
        ),
        Suite(
            "super-ssa",
            _sample_tri_pair,
            _calls("check_super_ssa"),
            "CMI plus half relative entropies lower-bounds the exp-log distance",
            _TRIPARTITE,
        ),
        Suite(
            "three-state-chain",
            _sample_three_state,
            _calls("check_three_state_chain"),
            "distance chain to a three-state exp-log surrogate with matched middles",
            _TRIPARTITE,
        ),
        Suite(
            "subadd-exp",
            _sample_tri,
            _calls("check_subadd_exp"),
            "subadditivity chain with the two-marginal surrogate and product bound",
            _TRIPARTITE,
        ),
        Suite(
            "markov-roundtrip",
            _sample_markov,
            _calls(_run_markov, "t_samples"),
            "constructed short-chain states satisfy every Markov signature",
            _TRIPARTITE,
        ),
        Suite(
            "trotter-bound",
            _sample_tri,
            _calls("trotter_sequence", "n_values"),
            "compressed product traces stay <= 1 and converge to the surrogate trace",
            _TRIPARTITE,
        ),
        Suite(
            "dw-alpha",
            _sample_pair_unital_channel,
            _calls("dw_alpha_profile", "alphas"),
            "finite-alpha compressed trace bound over an alpha grid",
        ),
        Suite(
            "dw-tripartite",
            _sample_tri,
            _calls("check_dw_tripartite", "alphas"),
            "tripartite specialization of the finite-alpha bound plus route cross-check",
            _TRIPARTITE,
        ),
        Suite(
            "sbw-limit",
            _sample_pair_unital_channel,
            _calls(_run_sbw, "sbw_alphas"),
            "alpha -> 0 operator convergence to the exp-log surrogate",
        ),
        Suite(
            "lieb-concavity",
            _sample_lieb,
            _calls("check_lieb_concavity"),
            "concavity of X -> Tr exp(H + log X)",
        ),
        Suite(
            "carlen-lieb-concavity",
            _sample_cl,
            _calls(_run_cl),
            "concavity of X -> Tr (M X^(1/alpha) M+)^alpha for alpha >= 1",
        ),
        Suite(
            "golden-thompson",
            _sample_gt,
            _calls("check_golden_thompson"),
            "Tr e^(A+B) <= Tr e^A e^B",
        ),
        Suite(
            "audenaert-powers-stormer",
            _sample_audenaert,
            _calls("check_audenaert_ps"),
            "square-root norm chain and interpolated trace overlap bound",
        ),
        Suite(
            "squashed-proxy",
            _sample_tri,
            _calls("check_squashed_proxy"),
            "half CMI >= eighth of squared distance to the surrogate's AC reduction",
            _TRIPARTITE,
        ),
        Suite(
            "twirl-identity",
            _sample_twirl,
            _calls(_run_twirl),
            "Monte Carlo twirl matches the closed form within the sampling bound",
            _BIPARTITE,
        ),
    )
}

EXPLORATIONS: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "stronger-mono",
            _sample_pair_generic_channel,
            _calls("explore_stronger_mono"),
            "relative-entropy gap under a channel vs 1/4 squared Petz-recovery distance",
        ),
        Suite(
            "ptrace-petz",
            _sample_bipartite_pair,
            _calls("explore_ptrace_petz"),
            "the same comparison for the partial trace",
            _BIPARTITE,
        ),
        Suite(
            "cmi-petz",
            _sample_tri,
            _calls("explore_cmi_petz"),
            "CMI vs 1/4 squared Petz-reconstruction distance",
            _TRIPARTITE,
        ),
        Suite(
            "trotter-monotone",
            _sample_tri,
            _calls("explore_trotter_monotone"),
            "smallest decrease of the compressed-product trace sequence",
            _TRIPARTITE,
        ),
    )
}

# Second element of each trial's RNG key.  Explorations count from 100, so
# their streams never meet a suite's.
SUITE_INDEX = {name: i for i, name in enumerate(SUITES)} | {
    kind: 100 + i for i, kind in enumerate(EXPLORATIONS)
}


def bind_instance(suite: Suite, instance: dict, opts: dict) -> None:
    """BadConfig naming the key when ``instance`` lacks an argument of the function
    ``suite.run`` calls or carries one it does not take.  A sampled instance fits by
    construction; replay checks a loaded one before the run."""
    checker, options = suite.run.calls
    fn = getattr(checks, checker) if isinstance(checker, str) else checker
    forwarded = dict.fromkeys([key for key in options if key in opts] + ["tol"])
    try:
        inspect.signature(fn).bind(**instance, **forwarded)
    except TypeError as exc:
        raise BadConfig(f"{suite.name} instance does not fit its checker: {exc}") from exc


def trial_rng(seed: int, suite_name: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, SUITE_INDEX[suite_name], trial])


def run_trial(
    suite: Suite,
    dims: Sequence[int],
    seed: int,
    trial: int,
    eps: float,
    tol: float,
    opts: dict | None = None,
):
    """One seeded trial; returns (instance, result)."""
    rng = trial_rng(seed, suite.name, trial)
    instance = suite.sample(rng, dims, eps)
    result = suite.run(instance, tol, opts or {})
    return instance, result


def iter_trials(
    suite: Suite,
    dims: Sequence[int],
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
    tol: float = TOL_INEQ,
    opts: dict | None = None,
) -> Iterator[tuple[int, dict, CheckResult]]:
    """Seeded trials 0 .. trials-1 of one suite, as (trial, instance, result).

    The trial count and dims are checked at the call, before any trial runs.
    """
    if trials < 1:
        raise BadConfig(f"need at least one trial, got {trials}")
    dims = suite.check_dims(dims)
    return (
        (trial, *run_trial(suite, dims, seed, trial, eps, tol, opts))
        for trial in range(trials)
    )


def run_suite(
    name: str,
    dims: Sequence[int],
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
    tol: float = TOL_INEQ,
    opts: dict | None = None,
) -> list[tuple[int, dict, CheckResult]]:
    """Run ``trials`` seeded instances of one suite.

    Returns (trial, instance, result) triples ordered by trial index.
    """
    if name not in SUITES:
        raise BadConfig(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return list(iter_trials(SUITES[name], dims, trials, seed, eps, tol, opts))


def explore_conjecture(
    kind: str,
    trials: int,
    dims: Sequence[int],
    seed: int,
    eps: float = DEFAULT_EPS,
    tol: float = TOL_INEQ,
    bins: int = 20,
) -> ExplorationReport:
    """Sweep random instances of an open inequality and report the slack law.

    Exploration never asserts: the report carries the minimum observed slack,
    a histogram, and the serialized worst instance.  A candidate
    counterexample is flagged when the minimum slack drops below -10 * tol.
    """
    if kind not in EXPLORATIONS:
        raise BadConfig(
            f"unknown exploration kind {kind!r}; choose from {sorted(EXPLORATIONS)}"
        )
    runs = iter_trials(EXPLORATIONS[kind], dims, trials, seed, eps, tol)
    slacks = np.empty(trials)
    worst = (math.inf, -1, None)
    for trial, instance, result in runs:
        slacks[trial] = result.slack
        if result.slack < worst[0]:
            worst = (result.slack, trial, instance)
    counts, edges = np.histogram(slacks, bins=bins)
    min_slack = float(worst[0])
    return ExplorationReport(
        kind=kind,
        trials=trials,
        dims=tuple(int(d) for d in dims),
        seed=seed,
        tolerance=tol,
        min_slack=min_slack,
        worst_trial=worst[1],
        histogram_edges=[float(e) for e in edges],
        histogram_counts=[int(c) for c in counts],
        worst_instance=serialize_instance(worst[2]),
        candidate_counterexample=bool(min_slack < -10.0 * tol),
    )
