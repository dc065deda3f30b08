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
* :mod:`qelab.results` — ``CheckResult``, the one result type, and the
  report encoders.
* :mod:`qelab.checks` — the inequality checkers; each returns a CheckResult
  whose ``slack`` is nonnegative when the statement holds.
* :mod:`qelab.suites` — seeded random ensembles wired to each checker
  (``SUITES``) and each exploration (``EXPLORATIONS``), and their trial driver.
* :mod:`qelab.cli` — the ``qelab`` command-line front end.

Every name is imported from its own module, e.g.
``from qelab.checks import check_ssa_strengthened``.
"""

__version__ = "0.1.0"
