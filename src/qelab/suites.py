"""Named checker suites: samplers plus runners with a shared RNG discipline.

Each suite couples a sampler (rng, dims, eps) -> instance with a runner
(instance, tol, opts) -> CheckResult.  An instance is the keyword arguments of
the suite's checker, so most runners only call checker(**instance, tol=tol);
replay binds a loaded instance to those arguments first (bind_instance).
SUITES holds the asserted checks, EXPLORATIONS the open inequalities whose
slack is only reported.  Instances hold only serializable values so any trial
can be dumped and replayed.  Trial randomness is keyed as
default_rng([seed, suite_index, trial]); results are therefore reproducible
from (seed, config) alone, independent of execution order.

One driver, iter_trials, runs every suite in chunks: each trial is sampled
alone, and a chunk whose every instance value has a ``stack``
(DensityMatrix.stack, KrausChannel.stack) is evaluated on (n, d, d) stacks,
which gives each row's result with the bits of that trial alone.  Its runner
is still called once per trial, on that trial's row of the chunk (a
_ChunkRow): the first row's call evaluates the whole chunk and the others
read their result, so a suite's run calls count its trials, and the time of
the run calls of a chunk is the time of its evaluation.  Each chunk holds up
to CHUNK_TRIALS trials, fewer when the largest operator its first trial's
sampler built has dimension d > 16, so that one stacked operand stays within
128 KiB.  A one-trial chunk, and so run_trial and replay, runs on the
unstacked 2-D instance; a chunk that raises a QelabError runs again one trial
at a time.  This stacks 16 of the 23 suites
and all 4 explorations.  The other 7 run one trial at a time because an
instance value has no stack: markov-roundtrip holds a MarkovSpec;
twirl-identity a raw matrix, ints and its own Monte Carlo seed;
lieb-concavity, carlen-lieb-concavity and golden-thompson raw matrices;
audenaert-powers-stormer two SubnormalizedOperators; and overlap-chain, in
about half its trials, a SubnormalizedOperator reference and a float scale
(a chunk in which no trial drew them stacks).
"""

from __future__ import annotations

import inspect
import math
import types
import typing
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import checks
from .channels import KrausChannel, random_channel, random_unital_channel
from .entropy import relative_entropy
from .errors import BadConfig, QelabError
from .linalg import hermitize, kron, trace_norm
from .results import CheckResult, ExplorationReport
from .serialize import serialize_instance
from .states import (
    DensityMatrix,
    MarkovSpec,
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
HISTOGRAM_BINS = 20  # bins of an exploration report's slack histogram
# Trials evaluated as one (n, d, d) stack.  The chunk shrinks with d, the largest
# operator dimension among the states and channels its first trial's sampler built, so
# that one stacked complex operand stays within 128 KiB (_CHUNK_ENTRIES matrix entries):
# all 32 trials up to d = 16, 8 at d = 32, 2 at d = 64, one from d = 65.  Larger chunks
# gained under 2% on explore-d8; at d = 64, 32 trials doubled stronger-mono's peak RSS
# for no throughput.
CHUNK_TRIALS = 32
_CHUNK_ENTRIES = 32 * 16 * 16


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


def _state(rng, dims, eps) -> DensityMatrix:
    """A random state on ``dims``, regularized by ``eps``."""
    return regularize(random_density(_flat(dims), rng), eps, dims)


def _first_two(dims):
    return dims[:2]


def _one_part(dims):
    return (_flat(dims),)


def _sample_states(*names: str, on: Callable = tuple) -> Callable:
    """The sampler that draws one state per name, in order, on ``on(dims)``: the dims
    themselves, _first_two or _one_part."""

    def sample(rng, dims, eps):
        return {name: _state(rng, on(dims), eps) for name in names}

    return sample


_sample_pair = _sample_states("rho", "sigma", on=_one_part)


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


def _perturb_edges(state: DensityMatrix, rng) -> DensityMatrix:
    """Random local channels, each with a two-dimensional environment, on the outer
    subsystems; the middle marginal of the output equals that of the input exactly."""
    da, db, dc = state.dims
    ka = random_channel(da, 2, rng).kraus
    kc = random_channel(dc, 2, rng).kraus
    ops = [kron(kron(a, np.eye(db)), c) for a in ka for c in kc]
    return DensityMatrix(KrausChannel(ops).apply(state.mat), state.dims)


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


class _ChunkRow(dict):
    """One trial of a stacked chunk: the chunk's stacked instance, the trial's row in it, and
    the results list its rows share, filled by the first row run."""

    def __init__(self, stacked: dict, row: int, results: list):
        super().__init__(stacked)
        self.row = row
        self.results = results


def _calls(checker: str | Callable, *options: str) -> Callable:
    """The runner (inst, tol, opts) -> checker(**inst, <options set in opts>, tol=tol).

    A str names a function of checks, looked up at every call so that a rebound
    checks.<name> (a tracer's wrapper, a test's fake) is the one that runs.  The
    runners below add something to their checker and take its keyword arguments.
    run.calls keeps (checker, options) for bind_instance.  Given a _ChunkRow, the
    runner returns that trial's result, and evaluates the whole chunk on its stacks
    at the first row run.
    """

    def run(inst, tol, opts):
        if isinstance(inst, _ChunkRow):
            if not inst.results:
                inst.results.extend(run(dict(inst), tol, opts))
            return inst.results[inst.row]
        fn = getattr(checks, checker) if isinstance(checker, str) else checker
        return fn(**inst, **{key: opts[key] for key in options if key in opts}, tol=tol)

    run.calls = (checker, options)
    return run


def _run_overlap(
    rho: DensityMatrix,
    sigma: SubnormalizedOperator,
    tol: float,
    sigma_base: DensityMatrix | None = None,
    mu: float | None = None,
) -> CheckResult:
    result = checks.check_overlap_chain(rho, sigma, tol=tol)
    if mu is not None:
        # The scaled reference obeys the exact shift rule
        # S(rho || mu sigma) = S(rho || sigma) - log mu.
        base = relative_entropy(rho, sigma_base)
        scaled = result.quantities["relative_entropy"]
        residual = abs(scaled - (base - math.log(mu)))
        result.quantities["scaling_residual"] = residual
        result.extra_ok = bool(result.extra_ok and residual <= TOL_IDENTITY)
    return result


def _run_bsw(
    rho: DensityMatrix, sigma: DensityMatrix, tau: DensityMatrix, omega: DensityMatrix, tol: float
) -> CheckResult:
    # An identity: judged at TOL_IDENTITY whatever --tol says.
    return checks.check_bsw_identity(rho, sigma, tau, omega)


def _run_markov(
    spec: MarkovSpec, tol: float, t_samples: Sequence[float] = checks.DEFAULT_T_SAMPLES
) -> CheckResult:
    state = markov_state(spec)
    chars = checks.markov_characterizations(state, t_samples=t_samples)
    quantities = dict(chars.quantities)
    surrogate = checks.ssa_surrogate(state)
    quantities["r_surrogate"] = trace_norm(state.mat - surrogate)
    slacks = [MARKOV_CMI_TOL - quantities["cmi"]] + [
        MARKOV_RESIDUAL_TOL - quantities[key]
        for key in ("r_log", "r_petz", "r_recon_ab", "r_recon_bc", "r_surrogate")
    ]
    return CheckResult("markov-roundtrip", quantities, min(slacks), 0.0)


def _run_sbw(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    tol: float,
    alphas: Sequence[float] = checks.DEFAULT_SBW_ALPHAS,
) -> CheckResult:
    # the limit runs along the --alpha grid made strictly descending
    return checks.check_sbw_limit(rho, sigma, channel, sorted(set(alphas), reverse=True), tol)


def _run_cl(
    m: np.ndarray,
    x1: SubnormalizedOperator | np.ndarray,
    x2: SubnormalizedOperator | np.ndarray,
    lam: float,
    tol: float,
) -> CheckResult:
    quantities = {}
    worst = math.inf
    for alpha in CL_ALPHA_GRID:
        single = checks.check_cl_concavity(m, x1, x2, lam, alpha, tol)
        quantities[f"slack_{alpha!r}"] = single.slack
        worst = min(worst, single.slack)
    return CheckResult("carlen-lieb-concavity", quantities, worst, tol)


def _run_twirl(
    x: np.ndarray, d_a: int, d_b: int, mc_seed: int, samples: int, tol: float
) -> CheckResult:
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
            _sample_states("rho_ab", "sigma_ab", on=_first_two),
            _calls("check_ptrace_strengthening"),
            "refined monotonicity for the partial trace",
            _BIPARTITE,
        ),
        Suite(
            "ssa",
            _sample_states("rho"),
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
            _sample_states("rho", "sigma", "tau", "omega"),
            _calls(_run_bsw),
            "exact decomposition of relative entropy to an exp-log reference",
            _TRIPARTITE,
        ),
        Suite(
            "super-ssa",
            _sample_states("rho", "sigma"),
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
            _sample_states("rho"),
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
            _sample_states("rho"),
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
            _sample_states("rho"),
            _calls("check_dw_tripartite", "alphas"),
            "tripartite specialization of the finite-alpha bound plus route cross-check",
            _TRIPARTITE,
        ),
        Suite(
            "sbw-limit",
            _sample_pair_unital_channel,
            _calls(_run_sbw, "alphas"),
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
            _sample_states("rho"),
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
            _sample_states("rho_ab", "sigma_ab", on=_first_two),
            _calls("explore_ptrace_petz"),
            "the same comparison for the partial trace",
            _BIPARTITE,
        ),
        Suite(
            "cmi-petz",
            _sample_states("rho"),
            _calls("explore_cmi_petz"),
            "CMI vs 1/4 squared Petz-reconstruction distance",
            _TRIPARTITE,
        ),
        Suite(
            "trotter-monotone",
            _sample_states("rho"),
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


def _fits(value, hint) -> bool:
    """Whether value has the type an annotation names: the class, a member of a union or
    the origin of a generic (Sequence[float] -> Sequence); an int fits a float."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, member) for member in typing.get_args(hint))
    hint = typing.get_origin(hint) or hint
    return isinstance(value, (int, float) if hint is float else hint)


def _hint_name(hint) -> str:
    if isinstance(hint, types.UnionType):
        return " | ".join(_hint_name(member) for member in typing.get_args(hint))
    return getattr(typing.get_origin(hint) or hint, "__name__", str(hint))


def bind_instance(suite: Suite, instance: dict, opts: dict) -> None:
    """BadConfig naming the key when ``instance`` lacks an argument of the function
    ``suite.run`` calls, carries one it does not take or holds a value of another type than
    the argument's annotation.  A sampled instance fits by construction; replay checks a
    loaded one before the run."""
    checker, options = suite.run.calls
    fn = getattr(checks, checker) if isinstance(checker, str) else checker
    forwarded = dict.fromkeys([key for key in options if key in opts] + ["tol"])
    try:
        inspect.signature(fn).bind(**instance, **forwarded)
    except TypeError as exc:
        raise BadConfig(f"{suite.name} instance does not fit its checker: {exc}") from exc
    hints = typing.get_type_hints(fn)
    for key, value in instance.items():
        if key in hints and not _fits(value, hints[key]):
            raise BadConfig(
                f"{suite.name} instance does not fit its checker: {key!r} must be "
                f"{_hint_name(hints[key])}, got {type(value).__name__}"
            )


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
    """One seeded trial, the chunk of one; returns (instance, result).  A QelabError
    raised in it keeps its class and gains the suite name and trial in its message."""
    try:
        instance = suite.sample(trial_rng(seed, suite.name, trial), dims, eps)
        return instance, _evaluate(suite, [instance], tol, opts or {})[0]
    except QelabError as exc:
        raise type(exc)(f"{suite.name} trial {trial}: {exc}") from exc


def _stacked(instances: list[dict]) -> dict:
    """The instances of a chunk as one: each value the stack of its trials' values, built by
    the value type's ``stack`` (DensityMatrix.stack, KrausChannel.stack)."""
    return {
        key: type(value).stack([inst[key] for inst in instances])
        for key, value in instances[0].items()
    }


def _chunk_size(instance: dict) -> int:
    """CHUNK_TRIALS, capped for the largest operator among an instance's states and channels."""
    d = max(max(getattr(v, "dim", 1), getattr(v, "d_in", 1), getattr(v, "d_out", 1))
            for v in instance.values())
    return max(1, min(CHUNK_TRIALS, _CHUNK_ENTRIES // (d * d)))


def _evaluate(suite: Suite, instances: list[dict], tol: float, opts: dict) -> list:
    """Each instance's result, from one runner call per instance: on the instance's row of
    the stacks of their values (a _ChunkRow) when there are several and every value has a
    ``stack`` (DensityMatrix.stack, KrausChannel.stack), else on its own 2-D values."""
    if len(instances) > 1 and all(hasattr(v, "stack") for i in instances for v in i.values()):
        stacked, results = _stacked(instances), []
        return [suite.run(_ChunkRow(stacked, row, results), tol, opts)
                for row in range(len(instances))]
    return [suite.run(instance, tol, opts) for instance in instances]


def _chunked_trials(suite, dims, trials, seed, eps, tol, opts):
    """The trials of a suite, each sampled alone and evaluated by chunks, each chunk sized by
    its first trial's instance.  A chunk in which a QelabError is raised runs again one trial
    at a time, so the first failing trial raises as it does alone."""
    start = 0
    while start < trials:
        chunk = range(start, start + 1)
        try:
            first = suite.sample(trial_rng(seed, suite.name, start), dims, eps)
            chunk = range(start, min(start + _chunk_size(first), trials))
            rest = [suite.sample(trial_rng(seed, suite.name, t), dims, eps) for t in chunk[1:]]
            results = _evaluate(suite, [first] + rest, tol, opts)
        except QelabError:
            for trial in chunk:
                yield (trial, *run_trial(suite, dims, seed, trial, eps, tol, opts))
        else:
            yield from zip(chunk, [first] + rest, results)
        start = chunk.stop


def iter_trials(
    suite: Suite,
    dims: Sequence[int],
    trials: int,
    seed: int,
    eps: float = DEFAULT_EPS,
    tol: float = TOL_INEQ,
    opts: dict | None = None,
) -> Iterator[tuple[int, dict, CheckResult]]:
    """Seeded trials 0 .. trials-1 of one suite, as (trial, instance, result), from chunks
    with the bits of run_trial.

    The trial count and dims are checked at the call, before any trial runs.
    """
    if trials < 1:
        raise BadConfig(f"need at least one trial, got {trials}")
    dims = suite.check_dims(dims)
    return _chunked_trials(suite, dims, trials, seed, eps, tol, opts or {})


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


def candidate_counterexample(slack: float, tol: float) -> bool:
    """Whether an exploration slack flags a candidate counterexample: below -10 * tol."""
    return bool(slack < -10.0 * tol)


def explore_conjecture(
    kind: str,
    trials: int,
    dims: Sequence[int],
    seed: int,
    eps: float = DEFAULT_EPS,
    tol: float = TOL_INEQ,
) -> ExplorationReport:
    """Sweep random instances of an open inequality and report the slack law.

    Exploration never asserts: the report carries the minimum observed slack,
    a histogram, and the serialized worst instance, flagged as a candidate
    counterexample by the rule of candidate_counterexample.
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
    counts, edges = np.histogram(slacks, HISTOGRAM_BINS)
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
        candidate_counterexample=candidate_counterexample(min_slack, tol),
    )
