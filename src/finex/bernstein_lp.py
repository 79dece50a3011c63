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
(d, g.degree).  dump lists B row by row, each row a transpose sweep, and
refuses past DENSE_CAP rows.  Since A is shared, lp_block solves a block
of observables of one shape together, one column of b each, and validates
each column's certificate on its own; lower_bound_lp is a block of one.
Its lengths share the sweeps too: their count vectors form one union,
which serves the sweeps alone (_Sweeps).  Each length's ratio test,
certificate and residuals are read from its own rows, in compositions
order, and come out bitwise as its own solve gives them.  Each length's
tables are checked in order before the union is built, so the first
length that fails raises its own error."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .config import DEFAULT_TOLERANCES, DENSE_CAP
from .errors import CapacityError, DomainError, FinexError, SolverFailure
from .exchangeable import (
    BoundResult,
    oracle_bound,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
)
from .multiindex import (
    composition_array,
    compositions,
    head_ranks,
    orbit_sizes,
    table_rows,
)
from .polynomial import (
    PolynomialBlock,
    SimplexPolynomial,
    homogenize,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
    reduce_to_free_vars,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
)
from .solvers import (
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
    def rows(self) -> list[tuple[int, ...]]:
        """The reduced-monomial exponent labelling each row, (n_1, ..., n_{d-1}); a fresh list."""
        return [n[: self.d - 1] for n in compositions(self.s, self.d)]


@dataclass(frozen=True)
class _Sweeps:
    """The index maps of the u-block's Horner sweeps at one or more lengths; read-only.

    The lengths' count vectors form one union, compositions(s, d) of each
    length in turn, length l at indices a to b, (a, b) = spans[l].  The
    union serves the sweeps alone.  Level order lists it by n_d
    descending, stably, so the count vectors with n_d >= k are the first
    bounds[k] positions.  order[t] is the index at level position t and
    position[i] the level position of index i.  up[i, t] is the level
    position of n - e_i + e_d for the n at t, down[i, t] that of
    n + e_i - e_d, both at n's length; either is N, a zero sentinel row,
    off the simplex.  Everything else is read per length from its own
    span, in compositions order: q holds each length's orbit_sizes(s, d)
    in turn.  One length is a union of one.
    """

    order: np.ndarray
    position: np.ndarray
    bounds: tuple[int, ...]
    up: np.ndarray
    down: np.ndarray
    spans: tuple[tuple[int, int], ...]
    q: np.ndarray


@lru_cache(maxsize=None)
def _sweeps(d: int, *lengths: int) -> _Sweeps:
    """Build the sweep maps of the cone LP over d at the lengths; cached, as they never change."""
    tables = [composition_array(s, d) for s in lengths]
    offsets = [0, *accumulate(map(len, tables))]
    spans = tuple(zip(offsets, offsets[1:]))
    last = np.concatenate([table[:, -1] for table in tables])  # n_d
    n = len(last)
    order = np.argsort(-last, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    levels = np.bincount(last, minlength=max(lengths) + 1)
    bounds = tuple(np.cumsum(levels[::-1])[::-1].tolist())
    up = np.full((d - 1, n), n, dtype=np.intp)
    down = up.copy()
    for (a, b), s, table in zip(spans, lengths, tables):
        # (n, i, n - e_i + e_d) for a ball on face i < d, by level position
        moved, faces = np.nonzero(table[:, :-1])
        shifted = table[:, :-1].take(moved, axis=0)  # take: half the time of table[moved, :-1]
        shifted[np.arange(len(moved)), faces] -= 1
        level = position[a:b]
        moved, targets = level[moved], level[head_ranks(shifted, s)]
        up[faces, moved] = targets
        down[faces, targets] = moved  # the move back, for every n with n_d >= 1
    q = np.concatenate([orbit_sizes(s, d) for s in lengths])
    for x in (order, position, up, down, q):
        x.setflags(write=False)
    return _Sweeps(order, position, bounds, up, down, spans, q)


def _sweep(maps: _Sweeps, x: np.ndarray, combine, transpose: bool = False) -> np.ndarray:
    """x <- B x (combine np.subtract) or B^-1 x (np.add), or B^T x, B^-T x; in place.

    x is in level order, with the zero sentinel row N last.  By Horner's
    rule in theta_d, B and B^-1 are s steps, k = s - 1 down to 0: each n
    with n_d >= k gains (or loses) its neighbours n - e_i + e_d, all read
    before any is written.  An n at level k first changes at step k, so x
    starts as the whole input.  The transposes run the steps in reverse,
    and step k gathers into each n with n_d >= k + 1 its n + e_i - e_d.
    Over several lengths s runs to the largest; a step k >= s' of a shorter
    length s' reaches only its (0, ..., 0, s'), whose neighbours are all
    the sentinel, and adds 0 there (k = s') or nothing.
    """
    neighbours = maps.down if transpose else maps.up
    if not len(neighbours):  # d = 1: no face but d, and B is the identity
        return x
    for m in maps.bounds[1:] if transpose else maps.bounds[-2::-1]:
        head = x[:m]  # np.add.reduce is ndarray.sum without its Python wrapper
        combine(head, np.add.reduce(x.take(neighbours[:, :m], axis=0), axis=0), out=head)
    return x


def _swept(maps: _Sweeps, x: np.ndarray, combine, transpose: bool = False) -> np.ndarray:
    """_sweep on a copy of x (N x B, in compositions order), in compositions order again."""
    levelled = np.zeros((len(x) + 1, x.shape[1]))  # x in level order, then the zero sentinel row
    levelled[:-1] = x.take(maps.order, axis=0)  # take's out= is buffered: twice the time
    return _sweep(maps, levelled, combine, transpose).take(maps.position, axis=0)


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
def _right_hand_sides(block: PolynomialBlock, *lengths: int) -> np.ndarray:
    """b for every column of the block at the lengths, one column each, their rows in turn.

    Each column's b at length s is its reduction (the degree-k sweep for B
    on its coefficients, k = block.degree), pruned and placed at the rows
    (e, s - |e|) of compositions(s, d).  The reduction does not depend on
    s, so it is made once for all the lengths, which are checked first
    (check_lengths).
    """
    block.check_lengths(lengths)
    d, k = block.d, block.degree
    reduced = _swept(_sweeps(d, k), block.coefficient_matrix, np.subtract)
    reduced[np.abs(reduced) < _PRUNE] = 0.0
    sizes = [table_rows(s, d) for s in lengths]
    b = np.zeros((sum(sizes), block.size))
    for s, end, size in zip(lengths, accumulate(sizes), sizes):
        b[end - size : end][_placement(d, k, s)] = reduced
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
def _solve(d: int, b: np.ndarray, *lengths: int) -> list[tuple[np.ndarray, ...]]:
    """Optimal primal/dual pair of each column of b from the u-block basis B and one pivot.

    b holds each length's rows in turn, in compositions order
    (_right_hand_sides).  Every product with B, B^-1 or a transpose is one
    sweep over the union of the lengths (_swept), which moves its input
    into level order and its result back.  A sweep's steps past a length s
    touch only its vertex (0, ..., 0, s), whose neighbours are all the zero
    sentinel, so each entry sees the additions of its own length's solve,
    in the same order, and comes out bitwise the same.  All else is read
    per length from its own span of rows, in compositions order.  With B
    basic, u = p - c q for p = B^-1 b and q = B^-1 e_0 (e_0 is c's column,
    the unit vector of the constant monomial, the span's last row), the
    multinomial coefficients of (sum theta)^s, all positive.  Entering c,
    the ratio test makes the column with the smallest p_j / q_j leave, the
    first in compositions(s, d) order on a tie.  The dual B^T y = e_j / q_j
    is row j of B^-1 over q_j; it gives every u column a reduced cost <= 0
    and c exactly 0, so the pivot is optimal.  Each column's pair [u; c], y
    at each length is validated like any other certificate; A x and y A
    are summed before b and the objective are subtracted (subtracting b
    first misses the 1e-8 primal contract on coefficients from 1e-6 to
    1e12).  The first length, then the first column there, outside
    DEFAULT_TOLERANCES raises DomainError if a residual overflowed, else
    SolverFailure with its residuals.  Returns, per length, (optimal
    values, primals [u; c], duals, residuals, leaving), one column (one
    entry of each residual array and of leaving, a row of compositions(s,
    d)) per column of b.
    """
    maps = _sweeps(d, *lengths)
    q = maps.q[:, None]
    columns = np.arange(b.shape[1])
    starts, ends = np.array(maps.spans).T
    sizes, vertices = ends - starts, ends - 1  # a vertex (0, ..., 0, s) is its length's last row
    p = _swept(maps, b, np.add)
    ratios = p / q
    # the ratio test in each length's compositions order, where the first minimum wins a tie
    first = np.array([ratios[a:e].argmin(axis=0) for a, e in maps.spans])
    leaving = first + starts[:, None]
    c = ratios[leaving, columns]
    u = np.maximum(p - c.repeat(sizes, axis=0) * q, 0.0)
    u[leaving, columns] = 0.0

    # the dual of column j is row leaving[j] of B^-1 over q[leaving[j]]
    dual = np.zeros(p.shape)
    dual[leaving, columns] = 1.0
    dual = _swept(maps, dual, np.add, transpose=True)
    dual /= maps.q[leaving].repeat(sizes, axis=0)
    gap = _swept(maps, u, np.subtract)  # B u
    gap[vertices] += c  # c's column is the unit vector of each length's constant monomial
    gap -= b  # A x - b
    reduced = -_swept(maps, dual, np.subtract, transpose=True)  # objective - y A on u
    costs = 1.0 - dual[vertices]  # and on c, whose column is the vertex's unit vector
    free = np.zeros(len(p) + 1, dtype=bool)
    free[-1] = True  # c's row, last: each length reads the mask's tail
    solved = []
    for l, (a, e) in enumerate(maps.spans):
        primal = np.concatenate([u[a:e], c[l : l + 1]])
        residuals = certificate_residuals(
            gap[a:e], np.concatenate([reduced[a:e], costs[l : l + 1]]), primal, free[a - e - 1 :]
        )
        solved.append((c[l], primal, dual[a:e], residuals, first[l]))
    # the first failing length, then column
    every = {key: np.concatenate([x[3][key] for x in solved]) for key in solved[0][3]}
    failed = np.flatnonzero(~within_tolerances(every))
    if len(failed):
        l, j = divmod(int(failed[0]), len(columns))
        column = _column(solved[l][3], j)
        if not np.isfinite(list(column.values())).all():
            raise DomainError(
                f"the cone LP at length s={lengths[l]} overflows: "
                "its certificate exceeds the float range"
            )
        raise SolverFailure(f"cone LP validation failed: residuals {column}", column)
    return solved


def _column(residuals: dict, j: int) -> dict:
    """Column j's residuals, as the floats a single solve reports."""
    return {key: float(value[j]) for key, value in residuals.items()}


def lp_block(block: PolynomialBlock, lengths) -> list[tuple[np.ndarray, np.ndarray]]:
    """LP route to the worst-case expectation over each length's sequences, for each column.

    Checks each length's tables in order (orbit_sizes builds them), then
    builds every column's b at every length from its reduction and solves
    them in one set of sweeps over the union of the lengths (see _solve).
    Each length's ratio test, certificate and residuals are read from its
    own rows, in compositions order, and each column's certificate is
    validated on its own at each length.  The first length, then column,
    that fails raises: a length whose tables are refused raises only once
    the lengths before it have solved.  It neither lifts nor consults
    another route: comparing the routes is left to the commands that
    compute more than one.  Returns one (values, rows) pair per length, in
    the order given: each column's optimal value and its leaving row in
    compositions(s, d), the urn whose expectation the value is.
    """
    lengths = block.check_lengths(lengths)
    for l, s in enumerate(lengths):
        try:
            orbit_sizes(s, block.d)
        except FinexError:
            if l:
                lp_block(block, lengths[:l])  # an earlier length's error comes first
            raise
    b = _right_hand_sides(block, *lengths)
    return [(c, leaving) for c, _, _, _, leaving in _solve(block.d, b, *lengths)]


def lower_bound_lp(g: SimplexPolynomial, s: int) -> BoundResult:
    """LP route to the worst-case expectation over length-s sequences, for g alone.

    g is a block of one: assemble writes its b as lp_block does, and the
    solve is _solve on that one column, with validated residuals.  Its
    argmin is the leaving column's count vector: p_j / q_j there is the
    urn's expectation, the smallest.  The certificate holds the solve's own
    arrays, in compositions(s, d) order: u, the cone coefficients; c, the
    value; and dual, one price per monomial row.  Paired with the reduction
    of any degree-s monomial the dual prices that monomial's expectation,
    which is how it encodes the minimizing exchangeable distribution.  It
    neither lifts g nor consults another route: comparing the routes is
    left to the commands that compute more than one.
    """
    c, primal, dual, residuals, leaving = _solve(g.d, assemble(g, s).b[:, None], s)[0]
    value = float(c[0])
    return BoundResult(
        value=value,
        method="lp",
        argmin=tuple(composition_array(s, g.d)[leaving[0]].tolist()),
        certificate={"u": primal[:-1, 0], "c": value, "dual": dual[:, 0]},
        diagnostics={
            "iterations": 1,  # the single pivot, c entering
            "residuals": _column(residuals, 0),
            "rows": len(dual),
            "columns": len(primal),
        },
    )


def dump(cone_lp: ConeMembershipLP) -> str:
    """Human-readable listing of the assembled system (debugging aid).

    Row i of the u-block is B^T e_i, written by transpose sweeps of 64 unit
    vectors at a time, so no N x N array is built.  Past DENSE_CAP rows it
    raises CapacityError before any sweep.
    """
    d, s, m = cone_lp.d, cone_lp.s, len(cone_lp.b)
    if m > DENSE_CAP:
        raise CapacityError(f"the cone LP listing has N = {m} rows, over the dense cap {DENSE_CAP}")
    counts, maps = compositions(s, d), _sweeps(d, s)
    columns = [f"*u{list(n)}" for n in counts]
    lines = [
        f"cone membership LP  d={d}  s={s}",
        f"rows={m}  columns={m + 1}  (non-negative u columns + free c)",
        "objective: maximize c",
    ]
    for rows in np.split(np.arange(m), range(64, m, 64)):
        x = np.zeros((m, len(rows)))
        x[rows, np.arange(len(rows))] = 1.0
        block = _swept(maps, x, np.subtract, transpose=True)
        for i, row in zip(rows.tolist(), block.T):
            nonzero = np.flatnonzero(row)
            parts = [f"{v:+g}{columns[j]}" for j, v in zip(nonzero.tolist(), row[nonzero].tolist())]
            if i == m - 1:  # c enters only the constant-monomial row, last in compositions order
                parts.append("+1*c")
            label = "".join(f"t{k+1}^{p}" for k, p in enumerate(counts[i][:-1]) if p) or "1"
            lines.append(f"[{label}]  " + " ".join(parts) + f" = {cone_lp.b[i]:g}")
    return "\n".join(lines)
