"""Numerical laboratory for entropy inequalities of quantum states and channels.

The package is organized in layers:

* :mod:`qelab.linalg` — Hermitian eigendecompositions, matrix functions on the
  support, partial traces, embeddings, and Schatten norms.
* :mod:`qelab.states` — density matrices, subnormalized operators,
  multipartite wrappers, block-structured Markov states, and random ensembles.
* :mod:`qelab.channels` — Kraus channels, duals, recovery maps, partial-trace
  channels, and twirling.
* :mod:`qelab.entropy` — von Neumann and relative entropies, the Renyi
  family on (0, 1), conditional mutual information, and exp-log combinations.
* :mod:`qelab.checks` — the inequality checkers; each returns a result object
  whose ``slack`` is nonnegative when the statement holds.
* :mod:`qelab.suites` — seeded random ensembles wired to each checker
  (``SUITES``) and each exploration (``EXPLORATIONS``), and their trial driver.
* :mod:`qelab.cli` — the ``qelab`` command-line front end.
"""

from .channels import (
    KrausChannel,
    PetzMap,
    petz_map,
    ptrace_channel,
    random_channel,
    random_unital_channel,
    twirl_exact,
    twirl_mc,
)
from .checks import (
    check_audenaert_ps,
    check_bsw_identity,
    check_cl_concavity,
    check_dw_alpha,
    check_dw_tripartite,
    check_golden_thompson,
    check_lieb_concavity,
    check_monotonicity,
    check_overlap_chain,
    check_ptrace_strengthening,
    check_renyi_monotonicity,
    check_sbw_limit,
    check_squashed_proxy,
    check_ssa_strengthened,
    check_stronger_monotonicity,
    check_subadd_exp,
    check_super_ssa,
    check_three_state_chain,
    check_trace_exp_bound,
    check_twirl_identity,
    check_unital_trace_bound,
    dw_alpha_profile,
    markov_characterizations,
    ssa_surrogate,
    trotter_sequence,
)
from .entropy import (
    EntropyValue,
    cmi,
    cmi_relative_entropy_form,
    exp_log_combination,
    overlap_lower_bound,
    relative_entropy,
    renyi,
    von_neumann,
)
from .errors import (
    BadAlpha,
    BadConfig,
    BadRank,
    BadTrace,
    DimMismatch,
    InconsistentBlocks,
    MarginalMismatch,
    NoConvergence,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotTripartite,
    NotUnital,
    QelabError,
    SingularInput,
    SingularSigma,
    SingularTerm,
    ZeroOverlap,
)
from .linalg import (
    embed,
    herm_eig,
    hermitize,
    kron,
    matrix_exp,
    matrix_fn,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    max_sv,
    ptrace,
    real_trace,
    schatten_norm,
    support_projector,
    trace_norm,
    unitary_power,
)
from .results import (
    ChainResult,
    CheckResult,
    ExplorationReport,
    as_record,
    records_to_csv,
    records_to_json,
)
from .states import (
    DensityMatrix,
    MarkovSpec,
    MultipartiteState,
    SubnormalizedOperator,
    markov_spec_from_json,
    markov_spec_to_json,
    markov_state,
    normalized_weights,
    random_density,
    random_tripartite,
    random_unitaries,
    random_unitary,
    regularize,
    regularize_tripartite,
    state_from_json,
    state_to_json,
)
from .suites import EXPLORATIONS, SUITES, explore_conjecture, run_suite, run_trial, trial_rng

__version__ = "0.1.0"
