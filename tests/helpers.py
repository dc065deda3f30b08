"""Test-only constructions: reference forms that no code in qelab calls.

* random_tripartite, a random state on three subsystems;
* cmi_relative_entropy_form, I(A:C|B) as a difference of two relative entropies, an
  independent cross-check of entropy.cmi's entropy-sum form;
* markov_spec, one markov-roundtrip spec drawn from one stream block by block, the loop
  that suites._sample_markov reproduces bit for bit on a chunk's streams.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from qelab.entropy import relative_entropy
from qelab.linalg import kron, split
from qelab.states import (
    AB,
    B,
    BC,
    DensityMatrix,
    MarkovSpec,
    normalized_weights,
    random_density,
    regularize,
    require_tripartite,
)
from qelab.suites import MARKOV_FACTOR_EPS


def random_tripartite(
    dims: Sequence[int], rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random tripartite state on dims = (dA, dB, dC)."""
    dims = split(dims, parts=3)
    return DensityMatrix(random_density(math.prod(dims), rng, rank=rank), dims)


def cmi_relative_entropy_form(state: DensityMatrix) -> float:
    """I(A:C|B) as a difference of two relative entropies.

    Tracing out A is a channel, and with reference rho_AB (x) rho_C the
    monotonicity gap of that channel is exactly the CMI:
    S(rho_ABC || rho_AB (x) rho_C) - S(rho_BC || rho_B (x) rho_C).
    """
    require_tripartite(state)
    rho_c = state.marginal([2])
    full = relative_entropy(state.mat, kron(state.marginal(AB), rho_c))
    reduced = relative_entropy(state.marginal(BC), kron(state.marginal(B), rho_c))
    return full - reduced


def markov_spec(rng: np.random.Generator, d_a: int, d_c: int) -> MarkovSpec:
    """A markov-roundtrip spec from one stream: the block count, the Dirichlet weights, then
    per block dl, dr and the AB and BC factors, each a regularized random_density."""
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
    return MarkovSpec(d_a, d_c, weights, tuple(ab_factors), tuple(bc_factors))
