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
lower-triangular.  Its inverse is explicit: the reduced monomial theta^e
is theta^(e,0) (sum theta)^(s-|e|) on the simplex, a sum of degree-s
monomials with multinomial weights.  Starting from that basis, one pivot
(c entering, the ratio test picking the leaving column) reaches the
optimum; the resulting primal and dual are validated against the
assembled system, so optimality is proved by the certificate, not
assumed from the structure.

Nothing in A depends on the observable, only on (d, s).  `_structure`
builds it once per shape and caches it: the u-block's off-diagonal
entries as read-only (row, column, weight) arrays sorted by row (O(nnz),
never a dense matrix), the inverse's weights on the same entries, and
q, c's column in the u-block basis.  b is g's own reduction, not its
lift's ((sum theta)^(s-k) reduces to 1), and the certificate is evaluated
from the same cached entries, so the solve writes no dense A;
ConeMembershipLP.lp writes one on first read, for dump and the tests.
Since A is shared, lp_block solves a block of observables of one shape
together, one column of b each, and validates each column's certificate
on its own; lower_bound_lp is a block of one."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainError, SolverFailure
from .exchangeable import (
    BoundResult,
    oracle_bound,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
)
from .multiindex import CountVector, composition_array, compositions, orbit_sizes, ranks
from .polynomial import (
    PolynomialBlock,
    SimplexPolynomial,
    homogenize,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
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
    """Equality system: columns u_n (non-negative) then c (free); b by row."""

    d: int
    s: int
    u_columns: list[CountVector]
    rows: list[tuple[int, ...]]  # reduced-monomial exponent labelling each row
    b: np.ndarray

    @cached_property
    def lp(self) -> LinearProgram:
        """The system as a dense LinearProgram, written on first read; shares b."""
        st = _structure(self.d, self.s)
        m = len(self.b)
        a = np.eye(m, m + 1)
        a[st.rows, st.cols] = st.weights
        # the constant c contributes only to the constant-monomial row
        a[m - 1, m] = 1.0
        is_c = np.arange(m + 1) == m  # c is the one free column and the objective
        return LinearProgram(a, self.b, is_c.astype(float), is_c)


@dataclass(frozen=True)
class _Structure:
    """Everything in the cone LP that depends on (d, s) alone.

    Row i and column i both belong to compositions(s, d)[i]; the u-block B
    is the identity plus the off-diagonal entries (rows, cols, weights),
    sorted by row.  B^-1 is explicit and has the same entries with the
    weights' absolute values (inverse_weights) plus the identity, so row i
    of either is the slice row_start[i]:row_start[i + 1], diagonal aside.
    q = B^-1 e_0 is c's column in the u-block basis.  Every array is
    read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    inverse_weights: np.ndarray
    row_start: np.ndarray
    q: np.ndarray


@lru_cache(maxsize=None)
def _structure(d: int, s: int) -> _Structure:
    """Build the (d, s) structure of the cone LP; cached, as it never changes.

    Substituting theta_d = 1 - theta_1 - ... - theta_{d-1} into theta^n
    with k = n_d expands (1 - theta_1 - ... - theta_{d-1})^k: for every
    j in compositions(k, d) the reduced monomial head(n) + j[1:] gets
    orbit_size(j) * (-1)^(k - j_0).  j = (k, 0, ..., 0) is the diagonal 1.
    The weights are exact integers, so A is the same bitwise as expanding
    each column monomial by monomial.

    Column e of B^-1 is theta^(e,0) (sum theta)^(s-|e|): orbit_size(j') at
    row (e,0) + j' for j' in compositions(s - |e|, d).  With j' = (j[1:], j_0)
    that is B's entry at the same row and column, unsigned, since a
    multinomial does not depend on the order of its parts.  Column 0 is
    (sum theta)^s, so q = orbit_sizes(s, d).
    """
    counts = composition_array(s, d)
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
    rows = np.concatenate(rows)
    # stable: the entries of one row keep their order, so every sum over a row adds alike
    order = np.argsort(rows, kind="stable")
    rows, cols, weights = rows[order], np.concatenate(cols)[order], np.concatenate(weights)[order]
    row_start = np.searchsorted(rows, np.arange(len(counts) + 1, dtype=np.int32))
    q = orbit_sizes(s, d)
    if not np.all(q > 0.0):
        raise SolverFailure(
            "cone LP normalization column has a non-positive entry", {"min_q": float(q.min())}
        )
    inverse_weights = np.abs(weights)
    for x in (rows, cols, weights, inverse_weights, row_start):
        x.setflags(write=False)
    return _Structure(rows, cols, weights, inverse_weights, row_start, q)


@lru_cache(maxsize=None)
def _placement(d: int, k: int, s: int) -> tuple[np.ndarray, tuple, tuple]:
    """Where the degree-k reduction lands at length s, and the LP's labels.

    Returns the rows (e, s - |e|) of the exponents e in compositions(k, d)
    order (read-only), the u columns compositions(s, d) and the row labels.
    """
    heads = composition_array(k, d)[:, :-1]
    positions = ranks(np.column_stack([heads, s - heads.sum(axis=1)]), s).astype(np.int32)
    positions.setflags(write=False)
    comps = tuple(compositions(s, d))
    return positions, comps, tuple(n[: d - 1] for n in comps)


def _scatter(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """Sum values (entries x B) into a (rows x B) matrix, values[e, j] at row index[e].

    One np.bincount over index * B + j: it adds in entry order, so each
    column sums exactly as a bincount of that column alone does.
    """
    size = values.shape[1]
    flat = index if size == 1 else (index[:, None] * np.int64(size) + np.arange(size)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=rows * size).reshape(rows, size)


# an overflow makes a residual inf or NaN, which the certificate check refuses
@np.errstate(over="ignore", invalid="ignore")
def _right_hand_sides(block: PolynomialBlock, s: int) -> np.ndarray:
    """b for every column of the block at length s, one column each.

    Each column's b is its reduction (the cached degree-k structure on its
    coefficients, k = block.degree), pruned and placed at the rows
    (e, s - |e|).
    """
    if s < block.degree:
        raise DomainError(f"sequence length {s} < polynomial degree {block.degree}")
    d, k = block.d, block.degree
    x = block.coefficient_matrix
    st = _structure(d, k)
    reduced = x + _scatter(st.rows, st.weights[:, None] * x[st.cols], len(x))
    reduced[np.abs(reduced) < _PRUNE] = 0.0
    positions, comps, _ = _placement(d, k, s)
    b = np.zeros((len(comps), block.size))
    b[positions] = reduced
    return b


def assemble(g: SimplexPolynomial, s: int) -> ConeMembershipLP:
    """Build the coefficient-matching LP for g against length-s sequences.

    Rows are indexed by the reduced monomials theta_1^e1 ... theta_{d-1}^e_{d-1};
    the map n -> (n_1, ..., n_{d-1}) is a bijection from degree-s count
    vectors onto exponents with total degree <= s, so there are exactly
    C(s+d-1, d-1) rows, in the order of compositions(s, d).  b is g's
    reduction, placed at the rows (e, s - |e|); no dense A.
    """
    b = _right_hand_sides(PolynomialBlock.of([g]), s)[:, 0]
    _, comps, rows = _placement(g.d, g.degree, s)
    return ConeMembershipLP(g.d, s, list(comps), list(rows), b)


@np.errstate(over="ignore", invalid="ignore")  # as for _right_hand_sides
def _solve(
    d: int, s: int, b: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Optimal primal/dual pair of each column of b from the u-block basis B and one pivot.

    B^-1 is cached with the structure, so no system is solved.  With B
    basic, u = p - c q for p = B^-1 b, one scatter of the inverse's
    entries, and q = B^-1 e_0 (e_0 is c's column), the multinomial
    coefficients of (sum theta)^s, all positive.  Entering c, the ratio
    test makes the column with the smallest p_j / q_j leave.  The dual
    B^T y = e_j / q_j is row j of B^-1 over q_j; it gives every u column a
    reduced cost <= 0 and c exactly 0, so the pivot is optimal.  Each
    column's pair is validated like any other certificate, from B's own
    entries; A x and y A are summed before b and the objective are
    subtracted (subtracting b first misses the 1e-8 primal contract on
    coefficients from 1e-6 to 1e12).  The first column outside the
    tolerances raises SolverFailure with its residuals.
    Returns (optimal values, primals, duals, residuals), one column (one
    entry of each residual array) per column of b.
    """
    st = _structure(d, s)
    q = st.q
    m, size = b.shape
    columns = np.arange(size)
    p = b + _scatter(st.rows, st.inverse_weights[:, None] * b[st.cols], m)

    ratios = p / q[:, None]
    leaving = np.argmin(ratios, axis=0)
    c = ratios[leaving, columns]
    u = np.maximum(p - c * q[:, None], 0.0)
    u[leaving, columns] = 0.0
    primal = np.vstack([u, c])

    # the dual of column j is row leaving[j] of B^-1 over q[leaving[j]]
    starts, lengths = st.row_start[leaving], np.diff(st.row_start)[leaving]
    entries = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    owner = np.repeat(columns, lengths)
    dual = np.zeros((m, size))
    dual[st.cols[entries], owner] = st.inverse_weights[entries] / q[leaving][owner]
    dual[leaving, columns] = 1.0 / q[leaving]

    ax = u + _scatter(st.rows, st.weights[:, None] * u[st.cols], m)
    ax[-1] += c  # c's column is the constant-monomial row's unit vector
    # y A: y itself (the identity, then c's column), plus the off-diagonal entries
    ya = np.vstack([dual, dual[-1]]) + _scatter(st.cols, st.weights[:, None] * dual[st.rows], m + 1)
    reduced = -ya
    reduced[m] += 1.0  # objective - y A: the objective is c
    residuals = certificate_residuals(ax - b, reduced, primal, np.arange(m + 1) == m)
    failed = np.flatnonzero(~within_tolerances(residuals, tol))
    if len(failed):
        column = _column(residuals, failed[0])
        raise SolverFailure(f"cone LP validation failed: residuals {column}", column)
    return c, primal, dual, residuals


def _column(residuals: dict, j: int) -> dict:
    """Column j's residuals, as the floats a single solve reports."""
    return {key: float(value[j]) for key, value in residuals.items()}


def _structural_solve(
    cone_lp: ConeMembershipLP, tol: Tolerances
) -> tuple[float, np.ndarray, np.ndarray, dict]:
    """_solve for an assembled system, one column; returns (value, primal, dual, residuals)."""
    c, primal, dual, residuals = _solve(cone_lp.d, cone_lp.s, cone_lp.b[:, None], tol)
    return float(c[0]), primal[:, 0], dual[:, 0], _column(residuals, 0)


def solve_lp(
    cone_lp: ConeMembershipLP, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve an assembled system; returns (optimal value, primal, dual).

    The solve starts from the structural basis (the u-block, whose inverse
    is cached with it) and needs a single pivot, c entering; the result
    is checked for primal, dual and complementary-slackness residuals
    against the cached sparse A and b, and SolverFailure is raised otherwise.
    The dual has one entry per monomial row; paired with the reduction of
    any degree-s monomial it prices that monomial's expectation, which is
    how the optimal dual encodes the minimizing exchangeable distribution.
    """
    value, primal, dual, _ = _structural_solve(cone_lp, tolerances)
    return value, primal, dual


def lp_block(
    block: PolynomialBlock, s: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """LP route to the worst-case expectation over length-s sequences, for each column.

    Builds every column's b from its reduction and solves them together
    (see _solve); each column's certificate is validated on its own.  It
    neither lifts nor consults another route: comparing the routes is left
    to the commands that compute more than one.  Returns (optimal values,
    primals, duals, residuals), one column each.
    """
    return _solve(block.d, s, _right_hand_sides(block, s), tolerances)


def lower_bound_lp(
    g: SimplexPolynomial, s: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> BoundResult:
    """LP route to the worst-case expectation over length-s sequences, for g alone.

    g is a block of one: assemble writes its b as lp_block does, and the
    solve is _solve on that one column.  The solution carries validated
    residuals (see solve_lp).  It neither lifts g nor consults another
    route: comparing the routes is left to the commands that compute more
    than one.
    """
    cone_lp = assemble(g, s)
    value, primal, dual, residuals = _structural_solve(cone_lp, tolerances)
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
