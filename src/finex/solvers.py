"""Shared numerical kernels: a reference simplex and a Hermitian eigensolver.

Both are written against numpy arrays and nothing else, so every
optimality or accuracy claim made by the higher-level modules can be
traced to code in this file.  The simplex is a small dense two-phase
method under Bland's rule; no command calls it, because the cone LP is
solved structurally, but the tests check that solve against it.  It
returns a full primal/dual certificate pair, and certificate_residuals
checks any such pair, whichever solver produced it; the eigensolver hands
the work to LAPACK (numpy's eigh) and accepts the decomposition only after
checking its reconstruction residual here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, SolverFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """maximize objective @ x  subject to  a @ x = b,  x_j >= 0 unless free[j]."""

    a: np.ndarray
    b: np.ndarray
    objective: np.ndarray
    free: np.ndarray  # boolean mask, True marks an unrestricted column

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.objective = np.asarray(self.objective, dtype=float)
        self.free = np.asarray(self.free, dtype=bool)
        m, n = self.a.shape
        if self.b.shape != (m,) or self.objective.shape != (n,) or self.free.shape != (n,):
            raise DomainError("inconsistent LP dimensions")
        if not (
            np.all(np.isfinite(self.a))
            and np.all(np.isfinite(self.b))
            and np.all(np.isfinite(self.objective))
        ):
            raise DomainError("LP data must be finite")


@dataclass
class SimplexResult:
    status: str
    optimum: float | None
    primal: np.ndarray | None
    dual: np.ndarray | None
    iterations: int
    residuals: dict = field(default_factory=dict)


def _inverse(basis_matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(basis_matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular simplex basis: {exc}") from exc


def _bland(a, b, cost, basis, n_enter, tol: Tolerances):
    """Maximize cost @ x over a x = b, x >= 0, from the feasible `basis`.

    Bland's rule: the lowest-index improving column enters, and among the
    rows tied for the minimum ratio the one whose basic variable has the
    lowest index leaves, so the method cannot cycle (Bland 1977).  The
    basis inverse is recomputed at every pivot.  Columns at or past
    n_enter never enter.  `basis` is updated in place; returns
    (status, inverse of the final basis, pivots).
    """
    iterations = 0
    while True:
        b_inv = _inverse(a[:, basis])
        x_b = b_inv @ b
        reduced = cost[:n_enter] - (cost[basis] @ b_inv) @ a[:, :n_enter]
        reduced[basis[basis < n_enter]] = 0.0
        improving = np.flatnonzero(reduced > tol.dual_feasibility)
        if improving.size == 0:
            return OPTIMAL, b_inv, iterations
        if iterations >= tol.simplex_iteration_cap:
            raise SolverFailure(
                "simplex iteration cap exceeded",
                {"iterations": iterations, "objective": float(cost[basis] @ x_b)},
            )
        entering = int(improving[0])
        w = b_inv @ a[:, entering]
        # a pivot is accepted relative to the column scale, so cancellation
        # noise in w is never taken for a blocking row
        scale = max(1.0, float(np.abs(w).max()))
        rows = np.flatnonzero(w > tol.pivot_threshold * scale)
        if rows.size == 0:
            return UNBOUNDED, b_inv, iterations
        ratios = np.maximum(x_b[rows], 0.0) / w[rows]
        ties = rows[ratios <= ratios.min()]
        basis[ties[np.argmin(basis[ties])]] = entering
        iterations += 1


def simplex_solve(
    lp: LinearProgram, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> SimplexResult:
    """Dense two-phase simplex under Bland's rule, with a primal/dual certificate.

    A reference implementation: the cone LP is solved structurally, and
    the tests check that solve against this one.  On OPTIMAL status the
    result satisfies, within the configured tolerances: primal
    feasibility ||a x - b||_inf, dual feasibility (all reduced costs
    <= 0, exactly 0 on free columns), and complementary slackness
    max |x_j * reduced_cost_j|.  A certificate outside them raises
    SolverFailure.
    """
    m, n = lp.a.shape
    tol = tolerances

    # split free variables into positive and negative parts
    free_idx = np.flatnonzero(lp.free)
    a_std = np.hstack([lp.a, -lp.a[:, free_idx]])
    c_std = np.concatenate([lp.objective, -lp.objective[free_idx]])
    n_std = a_std.shape[1]

    # orient rows so the right-hand side is non-negative
    b = lp.b.copy()
    flip = b < 0
    a_std[flip, :] *= -1
    b[flip] *= -1

    # phase 1: artificial basis, maximize minus the artificial mass; an
    # artificial never enters, so one still basic sits in its own row
    pool = np.hstack([a_std, np.eye(m)])
    cost1 = np.concatenate([np.zeros(n_std), -np.ones(m)])
    basis = np.arange(n_std, n_std + m)
    status, b_inv, it1 = _bland(pool, b, cost1, basis, n_std, tol)
    if status != OPTIMAL:  # phase 1 objective is bounded above by zero
        raise SolverFailure("phase 1 terminated abnormally", {"status": status})
    infeasibility = float((b_inv @ b)[basis >= n_std].sum())
    if infeasibility > tol.primal_feasibility:
        return SimplexResult(
            INFEASIBLE, None, None, None, it1, {"infeasibility": infeasibility}
        )

    # drive leftover artificials out of the basis; a row with no real pivot
    # candidate is redundant and gets dropped
    for row in np.flatnonzero(basis >= n_std):
        weights = np.abs(_inverse(pool[:, basis])[row] @ a_std)
        weights[basis[basis < n_std]] = 0.0
        j = int(np.argmax(weights))
        if weights[j] > tol.pivot_threshold:
            basis[row] = j
    keep = basis < n_std
    basis = basis[keep]
    b_kept = b[keep]

    # phase 2 on the real columns and the kept rows
    status, b_inv, it2 = _bland(a_std[keep], b_kept, c_std, basis, n_std, tol)
    iterations = it1 + it2
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, None, iterations, {})

    x_std = np.zeros(n_std)
    x_std[basis] = np.maximum(b_inv @ b_kept, 0.0)
    x = x_std[:n].copy()
    x[free_idx] -= x_std[n:]

    y = np.zeros(m)
    y[keep] = c_std[basis] @ b_inv
    y[flip] *= -1  # undo the row orientation

    residuals = certificate_residuals(lp.a @ x - lp.b, lp.objective - y @ lp.a, x, lp.free)
    if not within_tolerances(residuals, tol):
        raise SolverFailure("simplex certificate outside tolerances", residuals)
    return SimplexResult(OPTIMAL, float(lp.objective @ x), x, y, iterations, residuals)


def certificate_residuals(
    gap: np.ndarray, reduced: np.ndarray, x: np.ndarray, free: np.ndarray
) -> dict:
    """Residuals of a primal/dual pair x, y against the exact LP data.

    gap is a x - b and reduced is objective - y a, each formed by the
    caller.  primal: ||gap||_inf; dual: the largest reduced cost on a
    non-negative column, or |reduced cost| on a free one (clipped at 0);
    complementary_slackness: max |x_j * reduced_cost_j|.  A pair within
    tolerance on all three is optimal, whatever algorithm produced it.
    Given (n x B) arrays, one pair per column, each residual is an array
    of B, column j's residual; given vectors, each is a float.
    """
    constrained = reduced[~free].max(axis=0, initial=-np.inf)
    unrestricted = np.abs(reduced[free]).max(axis=0, initial=0.0)
    # np.where(b > a, b, a) is Python's max(a, b), a NaN in b and a -0.0 in a included
    dual = np.where(unrestricted > constrained, unrestricted, constrained)
    residuals = {
        "primal": np.abs(gap).max(axis=0, initial=0.0),
        "dual": np.where(0.0 > dual, 0.0, dual),
        "complementary_slackness": np.abs(x * reduced).max(axis=0, initial=0.0),
    }
    if np.ndim(gap) == 1:
        return {key: float(value) for key, value in residuals.items()}
    return residuals


def within_tolerances(residuals: dict, tolerances: Tolerances):
    """Whether each residual is within its tolerance; per column for residual arrays."""
    return (
        (residuals["primal"] <= tolerances.primal_feasibility)
        & (residuals["dual"] <= tolerances.dual_feasibility)
        & (residuals["complementary_slackness"] <= tolerances.complementary_slackness)
    )


@dataclass
class EigenDecomposition:
    """Full Hermitian eigendecomposition, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]
    diagnostics: dict = field(default_factory=dict)


def require_hermitian(a: np.ndarray, tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Return a as a finite complex array, or raise if it is not Hermitian."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    # every comparison below is False on NaN, so non-finite input stops here
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    gap = float(np.abs(a - a.conj().T).max(initial=0.0))
    if gap > tolerances.hermiticity * scale:
        raise DomainError(f"matrix is not Hermitian: max |A - A^H| = {gap}")
    return a


def jacobi_eigen(
    a: np.ndarray, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> EigenDecomposition:
    """Eigendecomposition of a dense complex Hermitian matrix.

    LAPACK's Hermitian solver (numpy's eigh) does the work; the result is
    accepted only if its reconstruction residual ||A V - V diag(lambda)||_F
    is within tol.eigen_residual * ||A||_F.  The name is kept from the
    cyclic Jacobi solver this replaced, because it is public API.
    """
    tol = tolerances
    a = require_hermitian(a, tol)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"eigendecomposition failed: {exc}") from exc
    norm = float(np.linalg.norm(a))
    residual = float(np.linalg.norm(a @ vectors - vectors * values))
    if not residual <= tol.eigen_residual * norm:
        raise SolverFailure(
            "eigendecomposition residual too large",
            {"residual": residual, "norm": norm},
        )
    return EigenDecomposition(values, vectors, {"residual": residual})
