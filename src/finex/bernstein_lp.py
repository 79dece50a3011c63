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

Nothing in A depends on the observable, and no entry of it is stored.
The u-block B substitutes theta_d - (theta_1 + ... + theta_{d-1}) for
theta_d in a degree-s form, and B^-1 theta_d + (theta_1 + ... +
theta_{d-1}), so B, B^-1 and their transposes are Horner sweeps (Farouki &
Rajan 1988) over O(N d) index maps cached per (d, s).  b is g's own
reduction, not its lift's ((sum theta)^(s-k) reduces to 1), a sweep at
(d, g.degree).  ConeMembershipLP.lp writes a dense A on first read, for
dump and the tests.  Since A is shared, lp_block solves a block of
observables of one shape together, one column of b each, and validates
each column's certificate on its own; lower_bound_lp is a block of one."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DomainError, SolverFailure
from .exchangeable import (
    BoundResult,
    oracle_bound,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
)
from .multiindex import (
    CountVector,
    composition_array,
    compositions,
    head_ranks,
    num_compositions,
    orbit_sizes,
)
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
    """Equality system: columns u_n (non-negative) then c (free); b by row.

    Row i and column i both belong to compositions(s, d)[i]; their labels
    are built only when read.
    """

    d: int
    s: int
    b: np.ndarray

    @property
    def u_columns(self) -> list[CountVector]:
        """The count vector of each u column, compositions(s, d); a fresh list."""
        return compositions(self.s, self.d)

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The reduced-monomial exponent labelling each row, (n_1, ..., n_{d-1}); a fresh list."""
        return [n[: self.d - 1] for n in compositions(self.s, self.d)]

    @cached_property
    def lp(self) -> LinearProgram:
        """The system as a dense LinearProgram, written on first read; shares b."""
        maps, m = _sweeps(self.d, self.s), len(self.b)
        x = np.zeros((m + 1, m + 1))
        x[maps.position[:m], np.arange(m)] = 1.0
        a = _sweep(maps, x, np.subtract)[maps.position[:m]]  # B e_j: exact integers
        # the constant c contributes only to the constant-monomial row
        a[m - 1, m] = 1.0
        is_c = np.arange(m + 1) == m  # c is the one free column and the objective
        return LinearProgram(a, self.b, is_c.astype(float), is_c)


@dataclass(frozen=True)
class _Sweeps:
    """The (d, s) index maps of the u-block's Horner sweeps; read-only.

    Level order lists compositions(s, d) by n_d descending, stably, so the
    count vectors with n_d >= k are the first bounds[k] positions, k <= s.
    order[t] is the natural index (in compositions(s, d)) at level position
    t and position[i] the level position of natural index i, with
    position[N] = N appended for c's row of a primal.  up[i, t] is the level
    position of n - e_i + e_d for the n at t, down[i, t] that of
    n + e_i - e_d; either is N, a zero sentinel row, off the simplex.  q is
    orbit_sizes(s, d) in level order.
    """

    order: np.ndarray
    position: np.ndarray
    bounds: tuple[int, ...]
    up: np.ndarray
    down: np.ndarray
    q: np.ndarray


@lru_cache(maxsize=None)
def _sweeps(d: int, s: int) -> _Sweeps:
    """Build the (d, s) sweep maps of the cone LP; cached, as they never change."""
    counts = composition_array(s, d)
    q = orbit_sizes(s, d)
    if not np.all(q > 0.0):
        raise SolverFailure(
            "cone LP normalization column has a non-positive entry", {"min_q": float(q.min())}
        )
    n = len(counts)
    order = np.argsort(-counts[:, -1], kind="stable")
    position = np.empty(n + 1, dtype=np.intp)
    position[order] = np.arange(n)
    position[n] = n
    heads = counts[order, :-1]
    levels = np.bincount(counts[:, -1], minlength=s + 1)
    bounds = tuple(np.cumsum(levels[::-1])[::-1].tolist())
    up = np.full((d - 1, n), n, dtype=np.intp)
    down = up.copy()
    moved, faces = np.nonzero(heads)  # a ball on face i < d to move to face d
    shifted = heads[moved]
    shifted[np.arange(len(moved)), faces] -= 1
    up[faces, moved] = targets = position[head_ranks(shifted, s)]
    down[faces, targets] = moved  # the move back, for every n with n_d >= 1
    q = q[order]
    for x in (order, position, up, down, q):
        x.setflags(write=False)
    return _Sweeps(order, position, bounds, up, down, q)


def _sweep(maps: _Sweeps, x: np.ndarray, combine, transpose: bool = False) -> np.ndarray:
    """x <- B x (combine np.subtract) or B^-1 x (np.add), or B^T x, B^-T x; in place.

    x is in level order, with the zero sentinel row N last.  By Horner's
    rule in theta_d, B and B^-1 are s steps, k = s - 1 down to 0: each n
    with n_d >= k gains (or loses) its neighbours n - e_i + e_d, all read
    before any is written.  An n at level k first changes at step k, so x
    starts as the whole input.  The transposes run the steps in reverse,
    and step k gathers into each n with n_d >= k + 1 its n + e_i - e_d.
    """
    neighbours = maps.down if transpose else maps.up
    for m in maps.bounds[1:] if transpose else maps.bounds[-2::-1]:
        combine(x[:m], x.take(neighbours[:, :m], axis=0).sum(axis=0), out=x[:m])
    return x


@lru_cache(maxsize=None)
def _placement(d: int, k: int, s: int) -> np.ndarray:
    """Where the degree-k reduction lands at length s: the rows (e, s - |e|).

    One per exponent e (the head of a count vector) in compositions(k, d)
    order; read-only.
    """
    positions = head_ranks(composition_array(k, d)[:, :-1], s).astype(np.int32)
    positions.setflags(write=False)
    return positions


# an overflow makes a residual inf or NaN, which the certificate check refuses
@np.errstate(over="ignore", invalid="ignore")
def _right_hand_sides(block: PolynomialBlock, s: int) -> np.ndarray:
    """b for every column of the block at length s, one column each.

    Each column's b is its reduction (the degree-k sweep for B on its
    coefficients, k = block.degree), pruned and placed at the rows
    (e, s - |e|).
    """
    block.check_length(s)
    d, k = block.d, block.degree
    maps, x = _sweeps(d, k), block.coefficient_matrix
    reduced = np.zeros((len(x) + 1, block.size))
    np.take(x, maps.order, axis=0, out=reduced[:-1])
    _sweep(maps, reduced, np.subtract)
    reduced[np.abs(reduced) < _PRUNE] = 0.0
    b = np.zeros((num_compositions(s, d), block.size))
    b[_placement(d, k, s)] = reduced.take(maps.position[:-1], axis=0)
    return b


def assemble(g: SimplexPolynomial, s: int) -> ConeMembershipLP:
    """Build the coefficient-matching LP for g against length-s sequences.

    Rows are indexed by the reduced monomials theta_1^e1 ... theta_{d-1}^e_{d-1};
    the map n -> (n_1, ..., n_{d-1}) is a bijection from degree-s count
    vectors onto exponents with total degree <= s, so there are exactly
    C(s+d-1, d-1) rows, in the order of compositions(s, d).  b is g's
    reduction, placed at the rows (e, s - |e|); no dense A.
    """
    return ConeMembershipLP(g.d, s, _right_hand_sides(PolynomialBlock.of([g]), s)[:, 0])


@np.errstate(over="ignore", invalid="ignore")  # as for _right_hand_sides
def _solve(d: int, s: int, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Optimal primal/dual pair of each column of b from the u-block basis B and one pivot.

    Every product with B, B^-1 or a transpose is a sweep, in level order:
    b is permuted in and the primal and dual out once.  With B basic,
    u = p - c q for p = B^-1 b and q = B^-1 e_0 (e_0 is c's column), the
    multinomial coefficients of (sum theta)^s, all positive.  Entering c,
    the ratio test makes the column with the smallest p_j / q_j leave, the
    first in compositions(s, d) order on a tie.  The dual B^T y = e_j / q_j
    is row j of B^-1 over q_j; it gives every u column a reduced cost <= 0
    and c exactly 0, so the pivot is optimal.  Each column's pair is
    validated like any other certificate; A x and y A are summed before b
    and the objective are subtracted (subtracting b first misses the 1e-8
    primal contract on coefficients from 1e-6 to 1e12).  The first column
    outside DEFAULT_TOLERANCES raises DomainError if a residual overflowed,
    else SolverFailure with its residuals.  Returns (optimal values,
    primals, duals, residuals, leaving), one column (one entry of each
    residual array and of leaving, a natural index) per column of b.
    """
    maps = _sweeps(d, s)
    q = maps.q[:, None]
    m, size = b.shape
    columns = np.arange(size)
    levelled = np.zeros((m + 1, size))  # b in level order, then the zero sentinel row
    np.take(b, maps.order, axis=0, out=levelled[:m])
    p = _sweep(maps, levelled.copy(), np.add)[:m]

    ratios = p / q
    # the ratio test in compositions order, where the first minimum wins a tie
    first = np.argmin(ratios.take(maps.position[:m], axis=0), axis=0)
    leaving = maps.position[first]
    c = ratios[leaving, columns]
    primal = np.empty((m + 1, size))
    np.maximum(p - c * q, 0.0, out=primal[:m])
    primal[leaving, columns] = 0.0
    primal[m] = c

    # the dual of column j is row leaving[j] of B^-1 over q[leaving[j]]
    dual = np.zeros((m, size))
    dual[leaving, columns] = 1.0
    _sweep(maps, dual, np.add, transpose=True)
    dual /= q[leaving, 0]

    ax = primal.copy()
    ax[m] = 0.0
    _sweep(maps, ax, np.subtract)
    ax[0] += c  # c's column is the constant-monomial row's unit vector, first in level order
    # y A: B^T y, then y's constant-monomial entry for c's column
    ya = np.empty((m + 1, size))
    ya[:m] = dual
    _sweep(maps, ya, np.subtract, transpose=True)
    ya[m] = dual[0]
    reduced = -ya
    reduced[m] += 1.0  # objective - y A: the objective is c
    is_c = np.arange(m + 1) == m
    residuals = certificate_residuals(ax[:m] - levelled[:m], reduced, primal, is_c)
    failed = np.flatnonzero(~within_tolerances(residuals))
    if len(failed):
        column = _column(residuals, failed[0])
        if not np.isfinite(list(column.values())).all():
            raise DomainError(
                f"the cone LP at length s={s} overflows: its certificate exceeds the float range"
            )
        raise SolverFailure(f"cone LP validation failed: residuals {column}", column)
    primal, dual = primal.take(maps.position, axis=0), dual.take(maps.position[:m], axis=0)
    return c, primal, dual, residuals, first


def _column(residuals: dict, j: int) -> dict:
    """Column j's residuals, as the floats a single solve reports."""
    return {key: float(value[j]) for key, value in residuals.items()}


def _structural_solve(cone_lp: ConeMembershipLP) -> tuple[float, np.ndarray, np.ndarray, dict, int]:
    """_solve for an assembled system, one column; (value, primal, dual, residuals, leaving)."""
    c, primal, dual, residuals, leaving = _solve(cone_lp.d, cone_lp.s, cone_lp.b[:, None])
    return float(c[0]), primal[:, 0], dual[:, 0], _column(residuals, 0), int(leaving[0])


def solve_lp(cone_lp: ConeMembershipLP) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve an assembled system; returns (optimal value, primal, dual).

    The solve starts from the structural basis (the u-block, whose inverse
    is a Horner sweep, like the block itself) and needs a single pivot, c
    entering; the result's primal, dual and complementary-slackness
    residuals against A (applied by the sweeps) and b must be within
    DEFAULT_TOLERANCES.  Otherwise it raises DomainError if a residual
    overflowed and SolverFailure if not.
    The dual has one entry per monomial row; paired with the reduction of
    any degree-s monomial it prices that monomial's expectation, which is
    how the optimal dual encodes the minimizing exchangeable distribution.
    """
    value, primal, dual, _, _ = _structural_solve(cone_lp)
    return value, primal, dual


def lp_block(block: PolynomialBlock, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """LP route to the worst-case expectation over length-s sequences, for each column.

    Builds every column's b from its reduction and solves them together
    (see _solve); each column's certificate is validated on its own.  It
    neither lifts nor consults another route: comparing the routes is left
    to the commands that compute more than one.  Returns (optimal values,
    primals, duals, residuals), one column each.
    """
    return _solve(block.d, s, _right_hand_sides(block, s))[:4]


def lower_bound_lp(g: SimplexPolynomial, s: int) -> BoundResult:
    """LP route to the worst-case expectation over length-s sequences, for g alone.

    g is a block of one: assemble writes its b as lp_block does, and the
    solve is _solve on that one column.  The solution carries validated
    residuals (see solve_lp).  Its argmin is the leaving column's count
    vector: p_j / q_j there is the urn's expectation, the smallest.  It
    neither lifts g nor consults another route: comparing the routes is
    left to the commands that compute more than one.
    """
    cone_lp = assemble(g, s)
    value, primal, dual, residuals, leaving = _structural_solve(cone_lp)
    counts = composition_array(s, g.d)
    u_values = primal[:-1]
    kept = np.flatnonzero(np.abs(u_values) > 0.0)
    u = dict(zip(map(tuple, counts[kept].tolist()), u_values[kept].tolist()))
    certificate = {
        "u": u,
        "c": float(primal[-1]),
        "dual": dual.tolist(),
    }
    return BoundResult(
        value=value,
        method="lp",
        argmin=tuple(counts[leaving].tolist()),
        certificate=certificate,
        diagnostics={
            "iterations": 1,  # the single pivot, c entering
            "residuals": residuals,
            "rows": len(u_values),
            "columns": len(primal),
        },
    )


def dump(cone_lp: ConeMembershipLP) -> str:
    """Human-readable listing of the assembled system (debugging aid)."""
    u_columns, rows = cone_lp.u_columns, cone_lp.rows
    lines = [
        f"cone membership LP  d={cone_lp.d}  s={cone_lp.s}",
        f"rows={len(rows)}  columns={len(u_columns) + 1}"
        "  (non-negative u columns + free c)",
        "objective: maximize c",
    ]
    a, b = cone_lp.lp.a, cone_lp.lp.b
    for i, e in enumerate(rows):
        parts = [
            f"{a[i, j]:+g}*u{list(u_columns[j])}"
            for j in np.flatnonzero(a[i, :-1])
        ]
        if a[i, -1]:
            parts.append(f"{a[i, -1]:+g}*c")
        label = "".join(f"t{k+1}^{p}" for k, p in enumerate(e) if p) or "1"
        lines.append(f"[{label}]  " + " ".join(parts) + f" = {b[i]:g}")
    return "\n".join(lines)
