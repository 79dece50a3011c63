"""Worst-case bounds as cone-membership linear programs.

The bound for sequence length s is  max c  such that the lifted observable
minus the constant c is a non-negative combination of the degree-s
monomials theta^n.  Substituting theta_d = 1 - theta_1 - ... - theta_{d-1}
and equating coefficients of every surviving monomial turns membership
into equality constraints: one row per reduced monomial, one non-negative
column u_n per count vector, plus the single free column c.  For the
six-face degree-2 instance that is the 21-row system worked in full by
the LP assembly examples.

The u-block is a nonsingular basis for free: theta^n reduces to
theta_1^n_1 ... theta_{d-1}^n_{d-1} (its own row, coefficient 1) plus terms
of strictly higher reduced degree, so ordered by degree it is unit
lower-triangular with identity diagonal blocks.  Starting from that basis, one pivot (c entering, the ratio test
picking the leaving column) reaches the optimum; the resulting primal and
dual are validated against the assembled system, so optimality is proved
by the certificate, not assumed from the structure."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, SolverFailure
from .exchangeable import BoundResult, oracle_bound
from .multiindex import CountVector, compositions, num_compositions
from .polynomial import (
    SimplexPolynomial,
    homogenize,
    monomial,
    reduce_to_free_vars,
)
from .solvers import (
    LinearProgram,
    certificate_residuals,
    simplex_solve,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
    within_tolerances,
)


@dataclass
class ConeMembershipLP:
    """Assembled equality system: columns u_n (non-negative) then c (free)."""

    d: int
    s: int
    u_columns: list[CountVector]
    rows: list[tuple[int, ...]]  # reduced-monomial exponent labelling each row
    lp: LinearProgram
    lifted: SimplexPolynomial = field(repr=False)


def assemble(g: SimplexPolynomial, s: int) -> ConeMembershipLP:
    """Build the coefficient-matching LP for g against length-s sequences.

    Rows are indexed by the reduced monomials theta_1^e1 ... theta_{d-1}^e_{d-1};
    the map n -> (n_1, ..., n_{d-1}) is a bijection from degree-s count
    vectors onto exponents with total degree <= s, so there are exactly
    C(s+d-1, d-1) rows.
    """
    if s < g.degree:
        raise DomainError(f"sequence length {s} < polynomial degree {g.degree}")
    d = g.d
    comps = compositions(s, d)
    row_of = {n[: d - 1]: i for i, n in enumerate(comps)}
    m = len(comps)

    a = np.zeros((m, m + 1))
    for j, n in enumerate(comps):
        for e, coeff in reduce_to_free_vars(monomial(n)).items():
            a[row_of[e], j] = coeff
    # the constant c contributes only to the constant-monomial row
    a[row_of[(0,) * (d - 1)], m] = 1.0

    lifted = homogenize(g, s)
    b = np.zeros(m)
    for e, coeff in reduce_to_free_vars(lifted).items():
        b[row_of[e]] = coeff

    objective = np.zeros(m + 1)
    objective[m] = 1.0
    free = np.zeros(m + 1, dtype=bool)
    free[m] = True
    assert m == num_compositions(s, d)
    return ConeMembershipLP(
        d=d,
        s=s,
        u_columns=comps,
        rows=[n[: d - 1] for n in comps],
        lp=LinearProgram(a, b, objective, free),
        lifted=lifted,
    )


def _structural_solve(
    cone_lp: ConeMembershipLP, tol: Tolerances
) -> tuple[float, np.ndarray, np.ndarray, dict]:
    """Optimal primal/dual pair from the u-block basis B and one pivot.

    Grouped by reduced degree, B's diagonal blocks are identities, so both
    triangular solves run one degree level at a time.  With B basic,
    u = p - c q for p = B^-1 b and q = B^-1 e_0 (e_0 is c's column); q
    holds the multinomial coefficients of (sum theta)^s, all positive.
    Entering c, the ratio test makes the column with the smallest p_j / q_j
    leave.  The dual B^T y = e_j / q_j then gives every u column a reduced
    cost <= 0 and c exactly 0, so the pivot is optimal; the pair is
    validated against the assembled a and b like any other certificate.
    Returns (optimal value, primal, dual, residuals).
    """
    lp = cone_lp.lp
    m = len(cone_lp.u_columns)
    level = np.array([sum(e) for e in cone_lp.rows])
    levels = [np.flatnonzero(level == k) for k in range(cone_lp.s + 1)]

    pq = np.column_stack([lp.b, lp.a[:, m]])
    for k in range(1, cone_lp.s + 1):
        rows, done = levels[k], np.concatenate(levels[:k])
        pq[rows] -= lp.a[np.ix_(rows, done)] @ pq[done]
    p, q = pq.T
    if not np.all(q > 0.0):
        raise SolverFailure(
            "cone LP normalization column solved to a non-positive entry",
            {"min_q": float(q.min())},
        )

    ratios = p / q
    leaving = int(np.argmin(ratios))
    c = float(ratios[leaving])
    u = np.maximum(p - c * q, 0.0)
    u[leaving] = 0.0
    primal = np.append(u, c)

    dual = np.zeros(m)
    dual[leaving] = 1.0 / q[leaving]
    for k in range(cone_lp.s - 1, -1, -1):
        cols, done = levels[k], np.concatenate(levels[k + 1 :])
        dual[cols] -= lp.a[np.ix_(done, cols)].T @ dual[done]

    residuals = certificate_residuals(lp, primal, dual)
    if not within_tolerances(residuals, tol):
        raise SolverFailure(f"cone LP validation failed: residuals {residuals}", residuals)
    return c, primal, dual, residuals


def solve_lp(
    cone_lp: ConeMembershipLP, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve an assembled system; returns (optimal value, primal, dual).

    The solve starts from the structural basis (the u-block, triangular
    by reduced degree) and needs a single pivot, c entering; the result
    is checked for primal, dual and complementary-slackness residuals
    against the assembled data, and SolverFailure is raised otherwise.
    The dual has one entry per monomial row; paired with the reduction of
    any degree-s monomial it prices that monomial's expectation, which is
    how the optimal dual encodes the minimizing exchangeable distribution.
    """
    value, primal, dual, _ = _structural_solve(cone_lp, tolerances)
    return value, primal, dual


def lower_bound_lp(
    g: SimplexPolynomial, s: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> BoundResult:
    """LP route to the worst-case expectation over length-s sequences.

    The solution carries validated residuals (see solve_lp), and its
    optimum must agree with the enumeration oracle within the
    cross-method tolerance.
    """
    cone_lp = assemble(g, s)
    value, primal, dual, residuals = _structural_solve(cone_lp, tolerances)
    oracle = oracle_bound(g, s)
    gap = abs(value - oracle.value)
    if gap > tolerances.method_agreement:
        raise SolverFailure(
            "LP bound disagrees with the enumeration oracle",
            {"lp": value, "oracle": oracle.value, "gap": gap},
        )
    u = {n: float(v) for n, v in zip(cone_lp.u_columns, primal[:-1]) if abs(v) > 0.0}
    certificate = {
        "u": u,
        "c": float(primal[-1]),
        "dual": dual.tolist(),
    }
    return BoundResult(
        value=value,
        method="lp",
        argmin=None,
        certificate=certificate,
        diagnostics={
            "iterations": 1,  # the single pivot, c entering
            "residuals": residuals,
            "rows": len(cone_lp.rows),
            "columns": len(cone_lp.u_columns) + 1,
            "oracle_gap": gap,
        },
    )


def dump(cone_lp: ConeMembershipLP) -> str:
    """Human-readable listing of the assembled system (debugging aid)."""
    lines = [
        f"cone membership LP  d={cone_lp.d}  s={cone_lp.s}",
        f"rows={len(cone_lp.rows)}  columns={len(cone_lp.u_columns) + 1}"
        "  (non-negative u columns + free c)",
        "objective: maximize c",
    ]
    a, b = cone_lp.lp.a, cone_lp.lp.b
    for i, e in enumerate(cone_lp.rows):
        parts = []
        for j, n in enumerate(cone_lp.u_columns):
            coeff = a[i, j]
            if coeff:
                parts.append(f"{coeff:+g}*u{list(n)}")
        if a[i, -1]:
            parts.append(f"{a[i, -1]:+g}*c")
        label = "".join(f"t{k+1}^{p}" for k, p in enumerate(e) if p) or "1"
        lines.append(f"[{label}]  " + " ".join(parts) + f" = {b[i]:g}")
    return "\n".join(lines)
