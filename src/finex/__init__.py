"""Worst-case expectations over finitely exchangeable sequences.

Three computations of the same quantity: urn enumeration, the boson
minimum eigenvalue and a cone-membership linear program.  The first two
read one vector of urn values (exchangeable.urn_values), which is also
the compressed boson observable's diagonal: the classical/quantum
equivalence written out, so they agree by construction.  The cone LP is
computed independently.
"""

from .boson import (
    BosonDensityMatrix,
    OccupationBasis,
    compress,
    compress_hermitian,
    permutation_matrix,
    quantum_bound,
    rho_from_exchangeable,
    simplex_minimum,
    symmetrizer,
    witness_value,
)
from .bernstein_lp import ConeMembershipLP, assemble, lower_bound_lp, solve_lp
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    CapacityError,
    DomainError,
    ExchangeabilityError,
    FinexError,
    NormalizationError,
    SolverFailure,
)
from .exchangeable import (
    BoundResult,
    ExchangeableDistribution,
    expectation,
    from_sequence_probs,
    marginalize,
    oracle_bound,
    sample,
    urn_distribution,
)
from .multiindex import (
    compositions,
    orbit_size,
    rank,
    sequence_to_counts,
    unrank,
)
from .polynomial import (
    DiagonalObservable,
    SimplexPolynomial,
    evaluate,
    homogenize,
    reduce_to_free_vars,
    to_diagonal_observable,
)
from .solvers import (
    EigenDecomposition,
    LinearProgram,
    jacobi_eigen,
    simplex_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BosonDensityMatrix",
    "BoundResult",
    "CapacityError",
    "ConeMembershipLP",
    "DEFAULT_TOLERANCES",
    "DiagonalObservable",
    "DomainError",
    "EigenDecomposition",
    "ExchangeabilityError",
    "ExchangeableDistribution",
    "FinexError",
    "LinearProgram",
    "NormalizationError",
    "OccupationBasis",
    "SimplexPolynomial",
    "SolverFailure",
    "Tolerances",
    "assemble",
    "compositions",
    "compress",
    "compress_hermitian",
    "evaluate",
    "expectation",
    "from_sequence_probs",
    "homogenize",
    "jacobi_eigen",
    "lower_bound_lp",
    "marginalize",
    "oracle_bound",
    "orbit_size",
    "permutation_matrix",
    "quantum_bound",
    "rank",
    "reduce_to_free_vars",
    "rho_from_exchangeable",
    "sample",
    "sequence_to_counts",
    "simplex_minimum",
    "simplex_solve",
    "solve_lp",
    "symmetrizer",
    "to_diagonal_observable",
    "unrank",
    "witness_value",
]
