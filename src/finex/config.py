"""Central tolerance record.

The certificate, eigensolver, distribution, pruning and agreement
thresholds live in this one frozen dataclass.  Every check reads its
threshold from DEFAULT_TOLERANCES where it runs; no function takes a
record.  The defaults are the contract values quoted in error messages and
enforced by the test suite.  The one override is the agreement tolerance,
which `--tol` or FINEX_TOL replace for a command.  A few fixed thresholds
live beside their code instead: `verify`'s dense-row bounds (1e-12, and
1e-10 for state-index symmetry), the simplex descent's 1e-14 step floor
(boson.simplex_minimum, which reads no tolerance), and `coin-demo`'s
1e-12 check of the witness value.  The eigensolver has no iteration knob:
LAPACK runs its own iteration, and finex bounds only the input's
Hermiticity and the result's residual.  DENSE_CAP bounds every dense
object finex writes: the d**s tensor space of the boson checks and the
rows of the cone LP's listing.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # linear programming: the certificate check every LP answer passes, and
    # the pivot threshold and iteration cap of the Bland's-rule reference
    # simplex that the tests check the structural cone-LP solve against
    primal_feasibility: float = 1e-8
    dual_feasibility: float = 1e-8
    complementary_slackness: float = 1e-8
    pivot_threshold: float = 1e-10
    simplex_iteration_cap: int = 1_000_000

    # eigensolver
    eigen_residual: float = 1e-9        # ||A v - lambda v|| <= this * ||A||_F
    hermiticity: float = 1e-12

    # distributions
    symmetry_check: float = 1e-9
    normalization: float = 1e-9
    negativity: float = 1e-12
    psd: float = 1e-9

    # polynomial arithmetic
    coefficient_prune: float = 1e-15

    # cross-method verification
    method_agreement: float = 1e-7


DEFAULT_TOLERANCES = Tolerances()

DENSE_CAP = 4096
