"""Named checker suites: samplers plus runners with a shared RNG discipline.

Each suite couples a sampler (rngs, dims, eps) -> instance with a runner
(instance, tol, opts) -> result.  An instance is the keyword arguments of the
suite's checker, which holds every rule that judges a trial, so a runner at most adapts
arguments; replay binds a loaded instance to those arguments first (bind_instance).
SUITES holds the asserted checks, EXPLORATIONS the open inequalities whose
slack is only reported.  Instances hold only serializable values so any trial
can be dumped and replayed.  Trial randomness is keyed as default_rng([seed, suite_index,
trial]), and trial_rngs seeds a chunk's streams in one pass; results are therefore
reproducible from (seed, config) alone, independent of execution order.

One loop, iter_results, runs every suite in chunks, and a trial alone (run_trial) is the
chunk of one.  A sampler takes the chunk's list of trial_rngs streams and returns each
instance value with one row per trial, row i drawn from trial i's stream as that trial
alone draws it: an (n, d, d) stack (a DensityMatrix, SubnormalizedOperator or
KrausChannel over stacks, validated once for the chunk), an (n, ...) array, or a list for
a value with no stack (markov-roundtrip's MarkovSpec, whose block factors are drawn as
stacks by dimension; twirl-identity's ints and Monte Carlo seed; overlap-chain's
reference, with a None where a trial lacks sigma_base and mu).  The instance of trial i
is row i of each value (_instance_row), built only when asked for: run_suite builds
each, a report only the one it writes.  A chunk whose values all stack is evaluated once,
on the stacks, which gives each row's result with the bits of that trial alone.  A chunk
that holds a list is split by the key sets of its trials' instances; a group whose values
stack (_stacked: overlap-chain's) is evaluated on stacks, and the others one trial at a
time.  The runner is still called once per trial, on its row of the chunk (a _ChunkRow):
the first row's call evaluates the whole chunk and the others read their result, so a
suite's run calls count its trials.  A chunk holds up to CHUNK_TRIALS = 128 trials, and
8192 // d^2 (32 at d = 16, 8 at 32, 2 at 64) when the largest operator the sampler stacks
has dimension d > 8, so that one stacked operand stays within 128 KiB; Suite.dim gives d
from the dims.  A chunk that raises a QelabError runs again as chunks of one trial; replay
runs a dumped 2-D instance.
"""

from __future__ import annotations

import functools
import inspect
import math
import types
import typing
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import checks
from .channels import KrausChannel, random_channel, random_unital_channel
from .errors import BadConfig, QelabError
from .linalg import hermitize, kron
from .results import CheckResult
from .serialize import exploration_report
from .states import (
    _CHUNK_ENTRIES,
    DensityMatrix,
    MarkovSpec,
    SubnormalizedOperator,
    capped,
    gaussians,
    normalized_weights,
    random_density,
    regularize,
    wishart,
)
from .tolerances import DEFAULT_EPS, TOL_INEQ

# Block factors are regularized this hard so that the assembled state's
# smallest eigenvalue stays orders of magnitude above the rank cutoff, which
# keeps the matrix-log residuals at the 1e-9 level instead of drifting.
MARKOV_FACTOR_EPS = 3e-3
# Modest sample count for the suite sweep; the direct checker call is the
# place for the full n = 10^4 study.
TWIRL_SUITE_SAMPLES = 200
HISTOGRAM_BINS = 20  # bins of an exploration report's slack histogram
# Trials sampled and evaluated as one (n, d, d) stack.  The chunk shrinks with d, the
# largest operator the suite's sampler stacks, so that one stacked complex operand stays
# within states._CHUNK_ENTRIES (128 KiB): 128 trials up to d = 8, then 8192 // d^2 (32 at
# d = 16, 8 at 32, 2 at 64).  At 128 a 100-trial exploration at 2,2,2 is one stack
# (explore-d8: 6,394 trials/s, 4,920 with a cap of 32); with no trial cap, cmi-petz at
# 2,1,1 takes 2,048-trial chunks whose per-trial objects outweigh their operands (+12% RSS).
CHUNK_TRIALS = 128


def _flat(dims: Sequence[int]) -> int:
    return math.prod(int(d) for d in dims)


def _rand_hermitian(d: int, rngs) -> np.ndarray:
    return hermitize(gaussians(rngs, (d, d))) / math.sqrt(d)


def _appendix_dim(dims: Sequence[int]) -> int:
    return min(_flat(dims), 6)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


# A sampler takes (rngs, dims, eps), the chunk's list of streams, and passes it to the
# samplers of states and channels, which draw one row per stream.


def _state(rngs, dims, eps) -> DensityMatrix:
    """A stack of random states on ``dims``, regularized by ``eps``."""
    return regularize(random_density(_flat(dims), rngs), eps, dims)


def _first_two(dims):
    return dims[:2]


def _bipartite_dim(dims: Sequence[int]) -> int:
    return _flat(_first_two(dims))


def _one_part(dims):
    return (_flat(dims),)


def _sample_states(*names: str, on: Callable = tuple) -> Callable:
    """The sampler that draws one state per name, in order, on ``on(dims)``: the dims
    themselves, _first_two or _one_part."""

    def sample(rngs, dims, eps):
        return {name: _state(rngs, on(dims), eps) for name in names}

    return sample


_sample_pair = _sample_states("rho", "sigma", on=_one_part)


def _sample_pair_with(channel: Callable) -> Callable:
    """The sampler that draws rho and sigma, then channel(d, rngs), a channel on their d."""

    def sample(rngs, dims, eps):
        inst = _sample_pair(rngs, dims, eps)
        inst["channel"] = channel(_flat(dims), rngs)
        return inst

    return sample


_sample_pair_generic_channel = _sample_pair_with(lambda d, rngs: random_channel(d, 2, rngs))
_sample_pair_unital_channel = _sample_pair_with(lambda d, rngs: random_unital_channel(d, d, rngs))


def _sample_overlap(rngs, dims, eps):
    inst = _sample_pair(rngs, dims, eps)
    # Half the ensemble uses a strictly subnormalized reference mu * sigma, validated as one
    # stack for the chunk; the other trials lack sigma_base and mu (None).
    mus = [float(rng.uniform(0.5, 1.0)) if rng.random() < 0.5 else None for rng in rngs]
    at = [i for i, mu in enumerate(mus) if mu is not None]
    scaled = SubnormalizedOperator(np.array([mus[i] for i in at]).reshape(-1, 1, 1)
                                   * inst["sigma"].mat[at])
    bases = [inst["sigma"].row(i) for i in range(len(rngs))]
    inst["sigma"] = [scaled.row(at.index(i)) if i in at else base for i, base in enumerate(bases)]
    inst["sigma_base"] = [None if mu is None else base for base, mu in zip(bases, mus)]
    inst["mu"] = mus
    return inst


def _perturb_edges(state: DensityMatrix, rngs) -> DensityMatrix:
    """Random local channels, each with a two-dimensional environment, on the outer
    subsystems; the middle marginal of the output equals that of the input exactly."""
    da, db, dc = state.dims
    ka = random_channel(da, 2, rngs).kraus
    kc = random_channel(dc, 2, rngs).kraus
    ops = [kron(kron(a, np.eye(db)), c) for a in ka for c in kc]
    return DensityMatrix(KrausChannel(ops).apply(state), state.dims)


def _sample_trace_exp(rngs, dims, eps):
    rho = _state(rngs, dims, eps)
    return {
        "rho": rho,
        "sigma": _perturb_edges(rho, rngs),  # shares rho's middle marginal
        "tau": _state(rngs, dims, eps),
    }


def _sample_three_state(rngs, dims, eps):
    sigma = _state(rngs, dims, eps)
    return {
        "rho": _state(rngs, dims, eps),
        "sigma": sigma,
        "tau": _perturb_edges(sigma, rngs),  # shares sigma's middle marginal
        "omega": _state(rngs, dims, eps),
    }


def _sample_markov(rngs, dims, eps):
    """One MarkovSpec per stream, drawn as the stream alone draws it: the block count, the
    weights, then per block dl, dr and the AB then BC factor's real then imaginary plane.  The
    specs do not stack, but the chunk's factors of one dimension are formed as capped stacks."""
    d_a, d_c = dims[0], dims[2]
    planes: dict[int, list] = {}  # factor dimension -> the chunk's Gaussian matrices of it
    drawn = []  # per stream: its weights, and (dimension, index) of its factors AB, BC, AB, ...
    for rng in rngs:
        n_blocks = int(rng.integers(1, 4))
        raw = rng.dirichlet(np.ones(n_blocks))
        drawn.append((normalized_weights([0.8 * float(w) + 0.2 / n_blocks for w in raw]), []))
        for _ in range(n_blocks):
            dl, dr = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            for d in (d_a * dl, dr * d_c):
                planes.setdefault(d, []).append(gaussians([rng], (d, d))[0])
                drawn[-1][1].append((d, len(planes[d]) - 1))
    stacks = {d: [regularize(wishart(np.stack(block)), MARKOV_FACTOR_EPS)
                  for block in capped(g, d * d)] for d, g in planes.items()}
    rows = {d: [s.row(i) for s in ss for i in range(len(s.mat))] for d, ss in stacks.items()}
    factors = [[rows[d][i] for d, i in at] for _, at in drawn]
    return {"spec": [MarkovSpec(d_a, d_c, weights, tuple(f[0::2]), tuple(f[1::2]))
                     for (weights, _), f in zip(drawn, factors)]}


def _uniforms(rngs, low: float, high: float) -> np.ndarray:
    return np.array([float(rng.uniform(low, high)) for rng in rngs])


def _sample_concavity(key: str, draw: Callable) -> Callable:
    """The sampler of a concavity row: the operand ``key``, draw(d, rngs), two states and a
    mixing weight."""

    def sample(rngs, dims, eps):
        d = _appendix_dim(dims)
        return {
            key: draw(d, rngs),
            "x1": regularize(random_density(d, rngs), eps),
            "x2": regularize(random_density(d, rngs), eps),
            "lam": _uniforms(rngs, 0.05, 0.95),
        }

    return sample


def _sample_gt(rngs, dims, eps):
    d = _appendix_dim(dims)
    return {"a": _rand_hermitian(d, rngs), "b": _rand_hermitian(d, rngs)}


def _sample_audenaert(rngs, dims, eps):
    d = _appendix_dim(dims)
    mu1 = _uniforms(rngs, 0.3, 1.0)[:, None, None]
    mu2 = _uniforms(rngs, 0.3, 1.0)[:, None, None]
    return {
        "m": SubnormalizedOperator(mu1 * regularize(random_density(d, rngs), eps).mat),
        "n": SubnormalizedOperator(mu2 * regularize(random_density(d, rngs), eps).mat),
    }


def _sample_twirl(rngs, dims, eps):
    da, db = dims[0], dims[1]
    n = len(rngs)
    return {
        "x": _rand_hermitian(da * db, rngs),
        "d_a": [da] * n,
        "d_b": [db] * n,
        "mc_seed": [int(rng.integers(0, 2**63 - 1)) for rng in rngs],
        "samples": [TWIRL_SUITE_SAMPLES] * n,
    }


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


class _ChunkRow(dict):
    """One trial of a chunk: the chunk's instance, the trial's row in it, and the results
    list its rows share, filled by the first row run."""

    def __init__(self, stacked: dict, row: int, results: list):
        super().__init__(stacked)
        self.row = row
        self.results = results


def _instance_row(instance: dict, i: int) -> dict:
    """Trial i's instance in a chunk's: item i of a list, row i of an array or row(i) of a
    stack for each value, without the keys whose row is None."""
    rows = {key: value[i] if isinstance(value, (list, np.ndarray)) else value.row(i)
            for key, value in instance.items()}
    return {key: value for key, value in rows.items() if value is not None}


def _stacked(rows: list[dict]) -> dict | None:
    """Trial instances with one key set as one instance of stacks (an operator stack, an (n,)
    array of floats), or None when a value has no stack (a MarkovSpec, a raw matrix, an int)."""
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    for values in columns.values():
        if len({type(v) for v in values}) > 1 or not isinstance(
                values[0], (float, SubnormalizedOperator)):
            return None
    return {key: np.array(v) if isinstance(v[0], float) else type(v[0]).stack(v)
            for key, v in columns.items()}


def _calls(checker: str | Callable, *options: str) -> Callable:
    """The runner (inst, tol, opts) -> checker(**inst, <options set in opts>, tol=tol).

    A str names a function of checks, looked up at every call so that a rebound checks.<name>
    (a tracer's wrapper, a test's fake) is the one that runs.  Options go to the checker as
    given, so a grid's rule is the checker's own (check_sbw_limit runs each distinct order
    once, in descending order); the one runner below only seeds its checker's Generator.
    run.calls keeps (checker, options) for bind_instance.  Given a _ChunkRow, the runner
    returns that trial's result, and evaluates the whole chunk at the first row run: on its
    stacks, or, when a value is a list, by the groups of trials with one key set, each on
    stacks when its values stack (_stacked) and else one trial at a time.
    """

    def run(inst, tol, opts):
        if isinstance(inst, _ChunkRow):
            if not inst.results:
                inst.results.extend(run(dict(inst), tol, opts))
            return inst.results[inst.row]
        lists = [value for value in inst.values() if isinstance(value, list)]
        if lists:
            rows = [_instance_row(inst, i) for i in range(len(lists[0]))]
            results = {}
            for keys in dict.fromkeys(tuple(row) for row in rows):  # each key set, as one group
                group = [i for i, row in enumerate(rows) if tuple(row) == keys]
                stacked = _stacked([rows[i] for i in group])
                out = run(stacked, tol, opts) if stacked else [run(rows[i], tol, opts) for i in group]
                results.update(zip(group, out))
            return [results[i] for i in range(len(rows))]
        fn = getattr(checks, checker) if isinstance(checker, str) else checker
        return fn(**inst, **{key: opts[key] for key in options if key in opts}, tol=tol)

    run.calls = (checker, options)
    return run


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
    """A named sampler and runner; dim(dims) is the largest operator the sampler stacks."""

    name: str
    sample: Callable
    run: Callable
    description: str
    parts: tuple[int, int | None] = (1, None)
    dim: Callable[[Sequence[int]], int] = _flat

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
            _calls("check_overlap_chain"),
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
            dim=_bipartite_dim,
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
            _calls("check_bsw_identity"),
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
            _calls("check_markov_roundtrip", "t_samples"),
            "constructed short-chain states satisfy every Markov signature",
            _TRIPARTITE,
            dim=lambda dims: 2 * max(dims[0], dims[2]),  # largest block factor: d_A dl or dr d_C
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
            _calls("check_sbw_limit", "alphas"),
            "alpha -> 0 operator convergence to the exp-log surrogate",
        ),
        Suite(
            "lieb-concavity",
            _sample_concavity("h", _rand_hermitian),
            _calls("check_lieb_concavity"),
            "concavity of X -> Tr exp(H + log X)",
            dim=_appendix_dim,
        ),
        Suite(
            "carlen-lieb-concavity",
            _sample_concavity("m", lambda d, rngs: gaussians(rngs, (d, d)) / math.sqrt(d)),
            _calls("check_cl_concavity"),
            "concavity of X -> Tr (M X^(1/alpha) M+)^alpha for alpha >= 1",
            dim=_appendix_dim,
        ),
        Suite(
            "golden-thompson",
            _sample_gt,
            _calls("check_golden_thompson"),
            "Tr e^(A+B) <= Tr e^A e^B",
            dim=_appendix_dim,
        ),
        Suite(
            "audenaert-powers-stormer",
            _sample_audenaert,
            _calls("check_audenaert_ps"),
            "square-root norm chain and interpolated trace overlap bound",
            dim=_appendix_dim,
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
            dim=_bipartite_dim,
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
            dim=_bipartite_dim,
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


# SeedSequence's constants (numpy's bit_generator.pyx).  generate_state: word k of a PCG64
# state mixes pool word k % 4 with INIT_B * MULT_B**k and INIT_B * MULT_B**(k + 1), mod 2**32.
_HASH = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(9)]
_XOR, _MUL = (np.array(h, dtype=np.uint32).reshape(2, 4) for h in (_HASH[:8], _HASH[1:]))
# mix_entropy: hashmix's INIT_A and MULT_A, and mix's two multipliers.
_INIT_A, _MULT_A, _MIX_L, _MIX_R, _M32 = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715, 2**32 - 1
# A chunk of at least this many keys mixes its pools in one pass: trial_rngs then took 80 us +
# 1.8 us a key, against 6.9 us a key with a SeedSequence each, and they met at 16-20 keys (x86-64).
_VECTOR_MIX_TRIALS = 18


class _State(np.random.bit_generator.ISeedSequence):
    """A SeedSequence's PCG64 state, computed ahead, and the key it came from (entropy)."""

    def __init__(self, state: np.ndarray, entropy: list[int]):
        self.state, self.entropy = state, entropy

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of an int: 32-bit little-endian, [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _mixed_pools(words: list) -> np.ndarray:
    """SeedSequence.mix_entropy of the keys whose word i is words[i], an int all keys share or an
    (n,) uint64 column: the (n, 4) uint32 pools.  Pool words mix together, then with later words."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v, h = v ^ h, h * _MULT_A & _M32
        v = v * h & _M32
        return v ^ v >> 16

    cells = [hashmix(words[i] if i < len(words) else 0) for i in range(4)] + words[4:]
    for src, dst in [(i, j) for i in range(len(cells)) for j in range(4) if i != j]:
        v = _MIX_L * cells[dst] - _MIX_R * hashmix(cells[src]) & _M32  # fits in uint64
        cells[dst] = v ^ v >> 16
    return np.stack(cells[:4], -1).astype(np.uint32)


def trial_rngs(seed: int, suite_name: str, trials: Sequence[int]) -> list[np.random.Generator]:
    """default_rng([seed, SUITE_INDEX[suite_name], trial]) for each trial, bit for bit.  A chunk
    of _VECTOR_MIX_TRIALS keys or more, each trial one uint32 word, mixes their SeedSequence pools
    in one _mixed_pools pass; any other chunk takes a SeedSequence a key.  The 8 hash rounds of
    generate_state(4, uint64) then run for all pools at once, in uint32 arrays."""
    key = [seed, SUITE_INDEX[suite_name]]
    head = _words(seed) + _words(key[1])
    # _words raises for a negative trial; a trial of two words or more takes a SeedSequence.
    if len(trials) < _VECTOR_MIX_TRIALS or min(trials) < 0 or max(trials) > _M32:
        pools = np.array([np.random.SeedSequence(np.array(head + _words(t), dtype=np.uint32)).pool
                          for t in trials])
    else:
        pools = _mixed_pools(head + [np.array(trials, dtype=np.uint64)])
    mixed = (pools[:, None] ^ _XOR) * _MUL
    states = (mixed ^ mixed >> 16).reshape(-1, 8).astype("<u4", copy=False).view("<u8")
    return [np.random.Generator(np.random.PCG64(_State(state, key + [trial])))
            for state, trial in zip(states.astype(np.uint64, copy=False), trials)]


def trial_rng(seed: int, suite_name: str, trial: int) -> np.random.Generator:
    """trial_rngs of one trial: default_rng([seed, SUITE_INDEX[suite_name], trial])."""
    return trial_rngs(seed, suite_name, [trial])[0]


def _run_chunk(suite: Suite, dims, seed: int, chunk: Sequence[int], eps, tol, opts) -> tuple:
    """(chunk, instance, results): the chunk's instance, sampled from its trials' own streams,
    and one result per trial; the runner is called once per trial, on its row (a _ChunkRow).
    A QelabError raised in a chunk of one gains the suite name and trial in its message."""
    try:
        instance = suite.sample(trial_rngs(seed, suite.name, chunk), dims, eps)
        shared: list = []
        return chunk, instance, [suite.run(_ChunkRow(instance, row, shared), tol, opts)
                                 for row in range(len(chunk))]
    except QelabError as exc:
        if len(chunk) > 1:
            raise
        raise type(exc)(f"{suite.name} trial {chunk[0]}: {exc}") from exc


def run_trial(suite: Suite, dims: Sequence[int], seed: int, trial: int, eps: float, tol: float,
              opts: dict | None = None):
    """One seeded trial, the chunk of one; returns (instance, result).  A QelabError
    raised in it keeps its class and gains the suite name and trial in its message."""
    _, instance, [result] = _run_chunk(suite, dims, seed, [trial], eps, tol, opts or {})
    return _instance_row(instance, 0), result


def _chunk_size(suite: Suite, dims: Sequence[int]) -> int:
    """CHUNK_TRIALS, capped for the largest operator the suite's sampler stacks, suite.dim."""
    return max(1, min(CHUNK_TRIALS, _CHUNK_ENTRIES // max(1, suite.dim(dims)) ** 2))


def _chunked_trials(suite, dims, trials, seed, eps, tol, opts):
    """The trials of a suite by chunks of _chunk_size, as _run_chunk's (chunk, instance, results).
    A chunk that raises a QelabError runs again as chunks of one, which raise as trials alone."""
    size = _chunk_size(suite, dims)
    for start in range(0, trials, size):
        chunk = range(start, min(start + size, trials))
        try:
            runs = [_run_chunk(suite, dims, seed, chunk, eps, tol, opts)] if len(chunk) > 1 else []
        except QelabError:
            runs = []
        yield from runs or (_run_chunk(suite, dims, seed, [t], eps, tol, opts) for t in chunk)


def iter_results(suite: Suite, dims: Sequence[int], trials: int, seed: int,
                 eps: float = DEFAULT_EPS, tol: float = TOL_INEQ,
                 opts: dict | None = None) -> Iterator[tuple[int, Callable[[], dict], CheckResult]]:
    """Seeded trials 0 .. trials-1 of one suite, as (trial, instance, result), from chunks
    with the bits of run_trial; instance() builds the trial's instance, so that a report
    builds only the row it writes.  The trial count and dims are checked at the call, before
    any trial runs."""
    if trials < 1:
        raise BadConfig(f"need at least one trial, got {trials}")
    steps = _chunked_trials(suite, suite.check_dims(dims), trials, seed, eps, tol, opts or {})
    return ((trial, functools.partial(_instance_row, instance, row), result)
            for chunk, instance, results in steps
            for row, (trial, result) in enumerate(zip(chunk, results)))


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

    Returns (trial, instance, result) triples ordered by trial index, each instance built.
    """
    if name not in SUITES:
        raise BadConfig(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    runs = iter_results(SUITES[name], dims, trials, seed, eps, tol, opts)
    return [(trial, instance(), result) for trial, instance, result in runs]


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
) -> dict:
    """Sweep random instances of an open inequality and report the slack law.

    Exploration never asserts: the report (serialize.exploration_report) carries the minimum
    observed slack, a histogram, and the serialized worst instance, flagged as a candidate
    counterexample by the rule of candidate_counterexample.
    """
    if kind not in EXPLORATIONS:
        raise BadConfig(f"unknown exploration kind {kind!r}; choose from {sorted(EXPLORATIONS)}")
    runs = iter_results(EXPLORATIONS[kind], dims, trials, seed, eps, tol)
    slacks = np.empty(trials)
    worst = (math.inf, -1, lambda: None)
    for trial, instance, result in runs:
        slacks[trial] = result.slack
        if result.slack < worst[0]:
            worst = (result.slack, trial, instance)
    counts, edges = np.histogram(slacks, HISTOGRAM_BINS)
    min_slack = float(worst[0])
    return exploration_report(kind, trials, dims, seed, tol, min_slack, worst[1], edges, counts,
                              worst[2](), candidate_counterexample(min_slack, tol))
