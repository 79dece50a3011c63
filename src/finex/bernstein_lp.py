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
lower-triangular with identity diagonal blocks.  Starting from that basis,
one pivot (c entering, the ratio test picking the leaving column) reaches
the optimum; the resulting primal and dual are validated against the
assembled system, so optimality is proved by the certificate, not assumed
from the structure.

Nothing in A depends on the observable, only on (d, s).  `_structure`
builds it once per shape and caches it: the u-block's off-diagonal
entries as read-only (row, column, weight) arrays (O(nnz), never a dense
matrix), the same entries grouped by the reduced degree of their row and
of their column, so each triangular solve is s scatters, and q, c's
column in the u-block basis.  `assemble` still writes a fresh dense A
from those entries on every call, and b is A's u-block times the lifted
coefficients, since the reduction is linear."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, SolverFailure
from .exchangeable import (
    BoundResult,
    oracle_bound,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
    oracle_bound_lifted,
)
from .multiindex import CountVector, composition_array, compositions, orbit_sizes, ranks
from .polynomial import (
    SimplexPolynomial,
    homogenize,
    reduce_to_free_vars,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
)
from .solvers import (
    LinearProgram,
    certificate_residuals,
    simplex_solve,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
    within_tolerances,
)

_PRUNE = DEFAULT_TOLERANCES.coefficient_prune


@dataclass
class ConeMembershipLP:
    """Assembled equality system: columns u_n (non-negative) then c (free)."""

    d: int
    s: int
    u_columns: list[CountVector]
    rows: list[tuple[int, ...]]  # reduced-monomial exponent labelling each row
    lp: LinearProgram
    lifted: SimplexPolynomial = field(repr=False)


@dataclass(frozen=True)
class _Structure:
    """Everything in the cone LP that depends on (d, s) alone.

    Row i and column i both belong to compositions(s, d)[i]; the u-block
    is the identity plus the off-diagonal entries (rows, cols, weights), sorted
    by the reduced degree of their row.  forward[k-1] is the slice whose
    rows have reduced degree k, for k = 1..s; backward holds the same
    entries grouped by the reduced degree of their column, for
    k = s-1 down to 0.  q = B^-1 e_0 is c's column in the u-block basis.
    Every array is read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    forward: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    backward: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    q: np.ndarray


def _by_level(level: np.ndarray, entries: tuple, levels: range) -> tuple:
    """Sort the entries by level; return them and one slice of them per level."""
    order = np.argsort(level, kind="stable")
    entries = tuple(x[order] for x in entries)
    for x in entries:
        x.setflags(write=False)
    start = np.searchsorted(level[order], levels, side="left")
    stop = np.searchsorted(level[order], levels, side="right")
    return entries, tuple(
        tuple(x[i:j] for x in entries) for i, j in zip(start.tolist(), stop.tolist())
    )


@lru_cache(maxsize=None)
def _structure(d: int, s: int) -> _Structure:
    """Build the (d, s) structure of the cone LP; cached, as it never changes.

    Substituting theta_d = 1 - theta_1 - ... - theta_{d-1} into theta^n
    with k = n_d expands (1 - theta_1 - ... - theta_{d-1})^k: for every
    j in compositions(k, d) the reduced monomial head(n) + j[1:] gets
    orbit_size(j) * (-1)^(k - j_0).  j = (k, 0, ..., 0) is the diagonal 1.
    The weights are exact integers, so A is the same bitwise as expanding
    each column monomial by monomial.
    """
    counts = composition_array(s, d)
    m = len(counts)
    level = s - counts[:, -1]  # reduced degree of row i and of column i

    rows, cols, weights = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], [np.zeros(0)]
    for k in range(1, s + 1):
        js = composition_array(k, d)[1:]  # every j but the diagonal (k, 0, ..., 0)
        if not len(js):  # d == 1: the u-block is the 1x1 identity
            continue
        w = orbit_sizes(k, d)[1:] * (-1.0) ** (k - js[:, 0])
        cols_k = np.flatnonzero(counts[:, -1] == k)
        targets = (counts[cols_k, None, :-1] + js[None, :, 1:]).reshape(-1, d - 1)
        full = np.column_stack([targets, s - targets.sum(axis=1)])
        rows.append(ranks(full, s).astype(np.int32))
        cols.append(np.repeat(cols_k, len(js)).astype(np.int32))
        weights.append(np.tile(w, len(cols_k)))
    rows, cols, weights = (np.concatenate(x) for x in (rows, cols, weights))

    (rows, cols, weights), forward = _by_level(
        level[rows], (rows, cols, weights), range(1, s + 1)
    )
    _, backward = _by_level(level[cols], (rows, cols, weights), range(s - 1, -1, -1))
    e0 = np.zeros(m)
    e0[m - 1] = 1.0  # c's column: the constant monomial's row, last in order
    q = _forward_solve(forward, e0)
    if not np.all(q > 0.0):
        raise SolverFailure(
            "cone LP normalization column solved to a non-positive entry",
            {"min_q": float(q.min())},
        )
    q.setflags(write=False)
    return _Structure(rows, cols, weights, forward, backward, q)


def _forward_solve(forward, x: np.ndarray) -> np.ndarray:
    """B^-1 x, one reduced-degree level of rows at a time."""
    x = x.copy()
    for rows, cols, w in forward:
        x -= np.bincount(rows, weights=w * x[cols], minlength=len(x))
    return x


def assemble(g: SimplexPolynomial, s: int) -> ConeMembershipLP:
    """Build the coefficient-matching LP for g against length-s sequences.

    Rows are indexed by the reduced monomials theta_1^e1 ... theta_{d-1}^e_{d-1};
    the map n -> (n_1, ..., n_{d-1}) is a bijection from degree-s count
    vectors onto exponents with total degree <= s, so there are exactly
    C(s+d-1, d-1) rows, in the order of compositions(s, d).  A is written
    fresh from the cached structure on every call; b is the reduction of
    the lifted observable, which is linear, so b = A_u @ lifted.
    """
    if s < g.degree:
        raise DomainError(f"sequence length {s} < polynomial degree {g.degree}")
    d = g.d
    st = _structure(d, s)
    comps = compositions(s, d)
    m = len(comps)

    a = np.zeros((m, m + 1))
    a[st.rows, st.cols] = st.weights
    a[np.arange(m), np.arange(m)] = 1.0
    # the constant c contributes only to the constant-monomial row
    a[m - 1, m] = 1.0

    lifted = homogenize(g, s)
    b = a[:, :m] @ lifted.coefficient_vector
    b[np.abs(b) < _PRUNE] = 0.0

    objective = np.zeros(m + 1)
    objective[m] = 1.0
    free = np.zeros(m + 1, dtype=bool)
    free[m] = True
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
    triangular solves run one degree level at a time, each level a single
    scatter of the cached off-diagonal entries.  With B basic, u = p - c q
    for p = B^-1 b and q = B^-1 e_0 (e_0 is c's column); q holds the
    multinomial coefficients of (sum theta)^s, all positive, and is
    cached with the structure.  Entering c, the ratio test makes the
    column with the smallest p_j / q_j leave.  The dual B^T y = e_j / q_j
    then gives every u column a reduced cost <= 0 and c exactly 0, so the
    pivot is optimal; the pair is validated against the assembled a and b
    like any other certificate.
    Returns (optimal value, primal, dual, residuals).
    """
    lp = cone_lp.lp
    st = _structure(cone_lp.d, cone_lp.s)
    p, q = _forward_solve(st.forward, lp.b), st.q

    ratios = p / q
    leaving = int(np.argmin(ratios))
    c = float(ratios[leaving])
    u = np.maximum(p - c * q, 0.0)
    u[leaving] = 0.0
    primal = np.append(u, c)

    dual = np.zeros(len(q))
    dual[leaving] = 1.0 / q[leaving]
    for rows, cols, w in st.backward:
        dual -= np.bincount(cols, weights=w * dual[rows], minlength=len(dual))

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
    oracle = oracle_bound_lifted(cone_lp.lifted)
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
        parts = [
            f"{a[i, j]:+g}*u{list(cone_lp.u_columns[j])}"
            for j in np.flatnonzero(a[i, :-1])
        ]
        if a[i, -1]:
            parts.append(f"{a[i, -1]:+g}*c")
        label = "".join(f"t{k+1}^{p}" for k, p in enumerate(e) if p) or "1"
        lines.append(f"[{label}]  " + " ".join(parts) + f" = {b[i]:g}")
    return "\n".join(lines)
