"""Shared numerical kernels: dense two-phase simplex and Hermitian eigensolver.

Both are written against numpy arrays and nothing else, so every
optimality or accuracy claim made by the higher-level modules can be
traced to code in this file.  The simplex returns a full primal/dual
certificate pair, and certificate_residuals checks any such pair, whichever
solver produced it; the eigensolver hands the work to LAPACK (numpy's
eigh) and accepts the decomposition only after checking its
reconstruction residual here.
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


class _Tableau:
    """Revised simplex state over a fixed column pool.

    The basis inverse is maintained by eta updates; a cheap probe residual
    (two matrix-vector products, sampled every few pivots) detects real
    drift and triggers refactorization exactly when needed.
    """

    def __init__(self, a, b, tol: Tolerances):
        self.a = a
        self.b = b
        self.tol = tol
        self.basis: np.ndarray | None = None
        self.b_inv: np.ndarray | None = None
        self.basis_matrix: np.ndarray | None = None
        self.x_b: np.ndarray | None = None
        self.updates = 0
        m = len(b)
        self._probe = np.random.default_rng(7).standard_normal(m)

    def set_basis(self, basis):
        self.basis = np.array(basis, dtype=int)
        self.refresh()

    def refresh(self):
        self.basis_matrix = self.a[:, self.basis].copy()
        try:
            self.b_inv = np.linalg.solve(self.basis_matrix, np.eye(len(self.b)))
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"singular simplex basis: {exc}") from exc
        self.x_b = self.b_inv @ self.b
        self.updates = 0
        # a fresh factorization already carries eps * condition(B) of probe
        # error; drift is judged against that floor, not an absolute one
        self._fresh_residual = max(self._probe_residual(), 1e-14)

    def _probe_residual(self):
        err = self.basis_matrix @ (self.b_inv @ self._probe) - self._probe
        return float(np.abs(err).max())

    def stale(self):
        """True when the eta-updated inverse has measurably drifted."""
        if self.updates == 0:
            return False
        if self.updates >= 500:
            return True
        if self.updates % 4:
            return False
        return self._probe_residual() > max(100.0 * self._fresh_residual, 1e-10)

    def pivot(self, entering, leaving_row, w):
        piv = w[leaving_row]
        pivot_row = self.b_inv[leaving_row, :] / piv
        # full rank-one update, then overwrite the pivot row (cheaper than a
        # masked update, which round-trips the whole inverse through copies)
        self.b_inv -= np.outer(w, pivot_row)
        self.b_inv[leaving_row, :] = pivot_row
        step = self.x_b[leaving_row] / piv
        self.x_b = self.x_b - step * w
        self.x_b[leaving_row] = step
        self.basis[leaving_row] = entering
        self.basis_matrix[:, leaving_row] = self.a[:, entering]
        self.updates += 1


def _run_simplex(
    tab: _Tableau, cost, allowed, tol: Tolerances, iteration_budget, retire_from=None
):
    """Maximize cost over the current basis; returns (status, iterations).

    Candidate-list partial pricing (Dantzig within the list, full rescan
    when it runs dry) until the objective stalls for
    tol.simplex_stall_limit degenerate iterations, then Bland's smallest
    index rule, which cannot cycle.  Columns flagged False in `allowed`
    never enter; columns at or past `retire_from` (phase-1 artificials)
    are struck from `allowed` once they leave the basis.
    """
    n_pool = tab.a.shape[1]
    basic_mask = np.zeros(n_pool, dtype=bool)
    basic_mask[tab.basis] = True
    candidates_list = np.array([], dtype=int)
    list_size = max(64, n_pool // 16)

    bland = False
    stall = 0
    last_objective = -np.inf
    iterations = 0
    while True:
        if iterations >= iteration_budget:
            raise SolverFailure(
                "simplex iteration cap exceeded",
                {"iterations": iterations, "objective": float(last_objective)},
            )
        if tab.stale():
            tab.refresh()
        x_b = tab.x_b
        y = cost[tab.basis] @ tab.b_inv
        if bland:
            reduced = cost - y @ tab.a
            reduced[basic_mask] = -np.inf
            reduced[~allowed] = -np.inf
            eligible = np.flatnonzero(reduced > tol.dual_feasibility)
            if eligible.size == 0:
                return OPTIMAL, iterations
            entering = int(eligible[0])
        else:
            # partial pricing: keep a candidate list of recently attractive
            # columns and only price those; rebuild from a full scan when
            # the list runs dry
            entering = None
            if candidates_list.size:
                live = candidates_list[
                    allowed[candidates_list] & ~basic_mask[candidates_list]
                ]
                if live.size:
                    rc = cost[live] - y @ tab.a[:, live]
                    k = int(np.argmax(rc))
                    if rc[k] > tol.dual_feasibility:
                        entering = int(live[k])
                candidates_list = live
            if entering is None:
                reduced = cost - y @ tab.a
                reduced[basic_mask] = -np.inf
                reduced[~allowed] = -np.inf
                top = np.argsort(-reduced)[:list_size]
                top = top[reduced[top] > tol.dual_feasibility]
                if top.size == 0:
                    return OPTIMAL, iterations
                candidates_list = top
                entering = int(top[0])

        w = tab.b_inv @ tab.a[:, entering]
        # pivots are accepted relative to the column scale; anything close
        # to cancellation noise is refused so it cannot poison the inverse
        scale = max(1.0, float(np.abs(w).max(initial=0.0)))
        candidates = np.flatnonzero(w > 1e-7 * scale)
        if candidates.size == 0:
            if tab.updates > 0:
                tab.refresh()
                continue  # retry the iteration with a clean inverse
            # freshly factored: fall back to the contractual threshold
            candidates = np.flatnonzero(w > tol.pivot_threshold * scale)
            if candidates.size == 0:
                return UNBOUNDED, iterations
        # Harris-style two-pass ratio test: relax the blocking ratio by the
        # feasibility tolerance, then take the largest pivot among the rows
        # inside the relaxation.  These cone systems are heavily degenerate,
        # and picking small pivots corrupts the basis inverse.
        blocked = np.maximum(x_b[candidates], 0.0)
        ratios = blocked / w[candidates]
        if bland:
            # Bland needs the exact minimum ratio, with the smallest basis
            # index leaving (the termination guarantee depends on both)
            ties = candidates[np.flatnonzero(ratios <= ratios.min())]
            leaving_row = int(ties[np.argmin(tab.basis[ties])])
        else:
            relaxed = ((blocked + tol.primal_feasibility) / w[candidates]).min()
            ties = candidates[np.flatnonzero(ratios <= relaxed)]
            leaving_row = int(ties[np.argmax(w[ties])])

        leaving_var = int(tab.basis[leaving_row])
        tab.pivot(entering, leaving_row, w)
        iterations += 1
        basic_mask[leaving_var] = False
        basic_mask[entering] = True
        if retire_from is not None and leaving_var >= retire_from:
            allowed[leaving_var] = False  # an artificial never re-enters

        objective = float(cost[tab.basis] @ tab.x_b)
        if objective > last_objective + 1e-12:
            stall = 0
            last_objective = objective
        else:
            stall += 1
            if stall >= tol.simplex_stall_limit and not bland:
                bland = True


def simplex_solve(
    lp: LinearProgram,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    _perturb: bool = True,
) -> SimplexResult:
    """Dense two-phase revised simplex with a primal/dual certificate.

    On OPTIMAL status the result satisfies, within the configured
    tolerances: primal feasibility ||a x - b||_inf, dual feasibility
    (all reduced costs <= 0, exactly 0 on free columns), and
    complementary slackness max |x_j * reduced_cost_j|.

    Degenerate instances are solved against a deterministic right-hand
    side perturbation of relative size ~1e-9 (the classic anti-stalling
    device); the returned solution is always recomputed and validated
    against the exact data, and the solve silently reruns unperturbed if
    that validation fails.
    """
    m, n = lp.a.shape
    tol = tolerances

    def rerun_exact(reason):
        if _perturb:
            return simplex_solve(lp, tolerances, _perturb=False)
        raise SolverFailure(f"simplex validation failed: {reason}")

    # split free variables into positive and negative parts
    free_idx = np.flatnonzero(lp.free)
    a_std = np.hstack([lp.a, -lp.a[:, free_idx]]) if free_idx.size else lp.a.copy()
    c_std = np.concatenate([lp.objective, -lp.objective[free_idx]])
    n_std = a_std.shape[1]

    # orient rows so the right-hand side is non-negative
    b = lp.b.copy()
    flip = b < 0
    a_std[flip, :] *= -1
    b[flip] *= -1

    if _perturb and m > 1:
        rng = np.random.default_rng(0xF17E)
        delta = 1e-9 * (1.0 + b) * rng.uniform(0.5, 1.0, size=m)
    else:
        delta = np.zeros(m)
    b_work = b + delta

    # phase 1: artificial basis, maximize minus the artificial mass
    pool = np.hstack([a_std, np.eye(m)])
    cost1 = np.concatenate([np.zeros(n_std), -np.ones(m)])
    allowed = np.ones(n_std + m, dtype=bool)
    tab = _Tableau(pool, b_work, tol)
    tab.set_basis(range(n_std, n_std + m))
    budget = tol.simplex_iteration_cap
    status, it1 = _run_simplex(tab, cost1, allowed, tol, budget, retire_from=n_std)
    if status != OPTIMAL:  # phase 1 objective is bounded above by zero
        raise SolverFailure("phase 1 terminated abnormally", {"status": status})
    infeasibility = -float(cost1[tab.basis] @ tab.x_b)
    if infeasibility > tol.primal_feasibility:
        if _perturb:
            # the perturbation may be to blame; decide on the exact data
            return simplex_solve(lp, tolerances, _perturb=False)
        return SimplexResult(
            INFEASIBLE, None, None, None, it1, {"infeasibility": infeasibility}
        )

    # drive leftover artificials out of the basis; a row with no real pivot
    # candidate is redundant and gets dropped
    drop_rows = []
    for row in range(m):
        if tab.basis[row] < n_std:
            continue
        candidates = np.abs(tab.b_inv[row, :] @ a_std)
        candidates[tab.basis[tab.basis < n_std]] = 0.0
        j = int(np.argmax(candidates))
        if candidates[j] > tol.pivot_threshold:
            tab.pivot(j, row, tab.b_inv @ pool[:, j])
        else:
            drop_rows.append(row)

    keep = np.setdiff1d(np.arange(m), drop_rows)
    row_map = keep  # positions in the original row order
    a2 = a_std[keep, :]
    tab2 = _Tableau(a2, b_work[keep], tol)
    tab2.set_basis([tab.basis[row] for row in range(m) if row not in drop_rows])

    # phase 2 on the real columns only
    allowed2 = np.ones(n_std, dtype=bool)
    status, it2 = _run_simplex(tab2, c_std, allowed2, tol, budget)
    iterations = it1 + it2
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, None, iterations, {})

    # evaluate the final basis against the exact right-hand side
    tab2.b = b[keep]
    tab2.refresh()
    x_basic = tab2.x_b
    if float(x_basic.min(initial=0.0)) < -tol.primal_feasibility:
        return rerun_exact("perturbed basis infeasible for exact data")
    x_std = np.zeros(n_std)
    x_std[tab2.basis] = np.maximum(x_basic, 0.0)
    x = x_std[:n].copy()
    x[free_idx] -= x_std[n:]

    y_kept = c_std[tab2.basis] @ tab2.b_inv
    y = np.zeros(m)
    y[row_map] = y_kept
    y[flip] *= -1  # undo the row orientation

    optimum = float(lp.objective @ x)
    residuals = certificate_residuals(lp, x, y)
    if not within_tolerances(residuals, tol):
        return rerun_exact(f"residuals {residuals}")
    return SimplexResult(OPTIMAL, optimum, x, y, iterations, residuals)


def certificate_residuals(lp: LinearProgram, x: np.ndarray, y: np.ndarray) -> dict:
    """Residuals of a primal/dual pair against the exact LP data.

    primal: ||a x - b||_inf; dual: the largest reduced cost on a
    non-negative column, or |reduced cost| on a free one (clipped at 0);
    complementary_slackness: max |x_j * reduced_cost_j|.  A pair within
    tolerance on all three is optimal, whatever algorithm produced it.
    """
    reduced = lp.objective - y @ lp.a
    dual_violation = float(
        max(
            reduced[~lp.free].max(initial=-np.inf),
            np.abs(reduced[lp.free]).max(initial=0.0),
        )
    )
    return {
        "primal": float(np.abs(lp.a @ x - lp.b).max(initial=0.0)),
        "dual": max(dual_violation, 0.0),
        "complementary_slackness": float(np.abs(x * reduced).max(initial=0.0)),
    }


def within_tolerances(residuals: dict, tolerances: Tolerances) -> bool:
    return (
        residuals["primal"] <= tolerances.primal_feasibility
        and residuals["dual"] <= tolerances.dual_feasibility
        and residuals["complementary_slackness"] <= tolerances.complementary_slackness
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
