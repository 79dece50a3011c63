"""Worst-case expectations over finitely exchangeable sequences.

Three computations of the same quantity, each by its own algorithm: urn
enumeration reads the lifted observable's coefficients over their orbit
sizes (exchangeable.oracle_block); the boson minimum eigenvalue reads the
occupation-basis diagonal by second quantization, from falling factorials
of the occupation numbers; and the cone-membership linear program reads
the observable's reduction and converts it to the Bernstein basis with
the u-block's explicit inverse.  No route reads another's numbers, so
their agreement tests the classical/quantum equivalence instead of
assuming it.  The LP writes no dense constraint matrix.

Each route evaluates a block of observables of one shape
(polynomial.PolynomialBlock: a coefficient column per observable, in
composition order) at a sequence of lengths: oracle_block, lp_block and
boson_block.  Each returns one (values, rows) pair per length, each
column's minimum and its row in compositions(s, d).  A single observable
at one length is a block of one at (s,); oracle_bound, lower_bound_lp and
quantum_bound are those wrappers, and only they build BoundResults and
certificates.
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
from .bernstein_lp import ConeMembershipLP, assemble, lower_bound_lp
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
    to_diagonal_observable,
)
from .solvers import EigenDecomposition, jacobi_eigen

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
    "rho_from_exchangeable",
    "sample",
    "sequence_to_counts",
    "simplex_minimum",
    "symmetrizer",
    "to_diagonal_observable",
    "unrank",
    "urn_distribution",
    "witness_value",
]
