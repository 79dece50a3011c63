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
Its lengths are solved as one system too: their count vectors form one
union, whose sweeps cover every length at once (_Sweeps), and each
length's values, certificates and residuals come out bitwise as its own
solve gives them.  Each length's tables are checked in order before the
union is built, so the first length that fails raises its own error."""

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

    The lengths' count vectors form one union: compositions(s, d) of each
    length in turn, segment l holding natural indices a to b, (a, b) =
    spans[l].  Level order lists the union by n_d descending, stably, so
    the count vectors with n_d >= k are the first bounds[k] positions, and
    each segment keeps its own length's level order.  order[t] is the
    natural index at level position t and position[i] the level position
    of natural index i, with position[N] = N appended.  up[i, t] is the
    level position of n - e_i + e_d for the n at t, down[i, t] that of
    n + e_i - e_d, both in n's segment; either is N, a zero sentinel row,
    off the simplex.  q is each length's orbit_sizes(s, d), in level order.

    A primal or a reduced cost has the N rows of u, then one row of c per
    length (N + l for segment l).  natural lists each segment's rows in
    compositions order, grouped in level order, each followed by its c
    row; in both, segment l is rows[l], a + l to b + l + 1, and is_c marks
    the c rows of grouped.  starts holds each a, as a column.  segment
    picks, for each level position, its segment's row of an L x B array,
    and vertices is the level position of each segment's (0, ..., 0, s),
    its constant-monomial row.  One length is a union of one.
    """

    order: np.ndarray
    position: np.ndarray
    bounds: tuple[int, ...]
    up: np.ndarray
    down: np.ndarray
    q: np.ndarray
    spans: tuple[tuple[int, int], ...]
    rows: tuple[slice, ...]
    starts: np.ndarray
    natural: np.ndarray
    grouped: np.ndarray
    is_c: np.ndarray
    segment: np.ndarray
    vertices: np.ndarray


@lru_cache(maxsize=None)
def _sweeps(d: int, *lengths: int) -> _Sweeps:
    """Build the sweep maps of the cone LP over d at the lengths; cached, as they never change."""
    tables = [composition_array(s, d) for s in lengths]
    q = np.concatenate([orbit_sizes(s, d) for s in lengths])
    offsets = [0, *accumulate(map(len, tables))]
    spans = tuple(zip(offsets, offsets[1:]))
    last = np.concatenate([table[:, -1] for table in tables])  # n_d
    n, many = len(last), len(lengths)
    order = np.argsort(-last, kind="stable")
    position = np.empty(n + 1, dtype=np.intp)
    position[order] = np.arange(n)
    position[n] = n
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
    q = q[order]
    rows = tuple([slice(a + l, b + l + 1) for l, (a, b) in enumerate(spans)])
    starts = np.array(offsets[:-1])[:, None]
    segment = np.repeat(np.arange(many), [b - a for a, b in spans])[order]
    by_segment = np.argsort(segment, kind="stable")  # each length's u rows in level order
    natural, grouped = np.empty(n + many, dtype=np.intp), np.empty(n + many, dtype=np.intp)
    for l, (a, b) in enumerate(spans):
        natural[a + l : b + l] = position[a:b]
        grouped[a + l : b + l] = by_segment[a:b]
        natural[b + l] = grouped[b + l] = n + l
    is_c = natural >= n
    vertices = position[[b - 1 for _, b in spans]]  # last in compositions order
    for x in (order, position, up, down, q, is_c, starts, natural, grouped, segment, vertices):
        x.setflags(write=False)
    return _Sweeps(
        order, position, bounds, up, down, q, spans, rows, starts, natural, grouped, is_c,
        segment, vertices,
    )


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
    maps, x = _sweeps(d, k), block.coefficient_matrix
    reduced = np.zeros((len(x) + 1, block.size))
    np.take(x, maps.order, axis=0, out=reduced[:-1])
    _sweep(maps, reduced, np.subtract)
    reduced[np.abs(reduced) < _PRUNE] = 0.0
    reduced = reduced.take(maps.position[:-1], axis=0)
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

    b holds each length's rows in turn (_right_hand_sides).  Every product
    with B, B^-1 or a transpose is a sweep over all the lengths at once, in
    level order (_Sweeps): b is permuted in and the primal and dual out
    once.  A sweep's steps past a length s touch only its vertex
    (0, ..., 0, s), whose neighbours are all the zero sentinel, so each
    entry sees the additions of its own length's solve, in the same order,
    and comes out bitwise the same.  With B basic, u = p - c q for
    p = B^-1 b and q = B^-1 e_0 (e_0 is c's column), the multinomial
    coefficients of (sum theta)^s, all positive.  Entering c, the ratio
    test makes the column with the smallest p_j / q_j leave, the first in
    compositions(s, d) order on a tie, at each length.  The dual
    B^T y = e_j / q_j is row j of B^-1 over q_j; it gives every u column a
    reduced cost <= 0 and c exactly 0, so the pivot is optimal.  Each
    column's pair at each length is validated like any other certificate;
    A x and y A are summed before b and the objective are subtracted
    (subtracting b first misses the 1e-8 primal contract on coefficients
    from 1e-6 to 1e12).  The first length, then the first column there,
    outside DEFAULT_TOLERANCES raises DomainError if a residual
    overflowed, else SolverFailure with its residuals.  Returns, per
    length, (optimal values, primals, duals, residuals, leaving), one
    column (one entry of each residual array and of leaving, a natural
    index) per column of b.
    """
    maps = _sweeps(d, *lengths)
    q = maps.q[:, None]
    m, size = b.shape
    columns = np.arange(size)
    levelled = np.zeros((m + 1, size))  # b in level order, then the zero sentinel row
    np.take(b, maps.order, axis=0, out=levelled[:m])
    p = _sweep(maps, levelled.copy(), np.add)[:m]

    ratios = p / q
    # the ratio test in each length's compositions order, where the first minimum wins a tie
    in_order = ratios.take(maps.position[:m], axis=0)
    first = np.array([in_order[a:b].argmin(axis=0) for a, b in maps.spans])
    leaving = maps.position[first + maps.starts]
    c = ratios[leaving, columns]
    primal = np.empty((m + len(lengths), size))  # u, then c at each length
    np.maximum(p - c.take(maps.segment, axis=0) * q, 0.0, out=primal[:m])
    primal[leaving, columns] = 0.0
    primal[m:] = c

    # the dual of column j is row leaving[j] of B^-1 over q[leaving[j]]
    dual = np.zeros((m, size))
    dual[leaving, columns] = 1.0
    _sweep(maps, dual, np.add, transpose=True)
    dual /= maps.q[leaving].take(maps.segment, axis=0)

    gap = primal.copy()
    gap[m:] = 0.0  # row m is the sentinel
    _sweep(maps, gap, np.subtract)
    gap[maps.vertices] += c  # c's column is the constant-monomial row's unit vector
    gap[:m] -= levelled[:m]  # A x - b
    # y A: B^T y, then y's constant-monomial entry for c's column
    ya = np.empty((m + len(lengths), size))
    ya[:m] = dual
    _sweep(maps, ya, np.subtract, transpose=True)
    ya[m:] = dual[maps.vertices]
    reduced = -ya
    reduced[m:] += 1.0  # objective - y A: the objective is c

    # each length's rows in its own level order, then its c row, as its own solve has them
    gap, reduced, grouped = (x.take(maps.grouped, axis=0) for x in (gap, reduced, primal))
    residuals = [
        certificate_residuals(gap[r.start : r.stop - 1], reduced[r], grouped[r], maps.is_c[r])
        for r in maps.rows
    ]
    # the first failing length, then column
    failed = np.flatnonzero(~np.concatenate([within_tolerances(r) for r in residuals]))
    if len(failed):
        l, j = divmod(int(failed[0]), size)
        column = _column(residuals[l], j)
        if not np.isfinite(list(column.values())).all():
            raise DomainError(
                f"the cone LP at length s={lengths[l]} overflows: "
                "its certificate exceeds the float range"
            )
        raise SolverFailure(f"cone LP validation failed: residuals {column}", column)
    primal, dual = primal.take(maps.natural, axis=0), dual.take(maps.position[:m], axis=0)
    return [
        (c[l], primal[r], dual[a:b], residuals[l], first[l])
        for l, (r, (a, b)) in enumerate(zip(maps.rows, maps.spans))
    ]


def _column(residuals: dict, j: int) -> dict:
    """Column j's residuals, as the floats a single solve reports."""
    return {key: float(value[j]) for key, value in residuals.items()}


def lp_block(block: PolynomialBlock, lengths) -> list[tuple[np.ndarray, np.ndarray]]:
    """LP route to the worst-case expectation over each length's sequences, for each column.

    Checks each length's tables in order (orbit_sizes builds them), then
    builds every column's b at every length from its reduction and solves
    them as one system (see _solve); each column's certificate is
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
        x = np.zeros((m + 1, len(rows)))
        x[maps.position[rows], np.arange(len(rows))] = 1.0
        block = _sweep(maps, x, np.subtract, transpose=True).take(maps.position[:m], axis=0)
        for i, row in zip(rows.tolist(), block.T):
            nonzero = np.flatnonzero(row)
            parts = [f"{v:+g}{columns[j]}" for j, v in zip(nonzero.tolist(), row[nonzero].tolist())]
            if i == m - 1:  # c enters only the constant-monomial row, last in compositions order
                parts.append("+1*c")
            label = "".join(f"t{k+1}^{p}" for k, p in enumerate(counts[i][:-1]) if p) or "1"
            lines.append(f"[{label}]  " + " ".join(parts) + f" = {cone_lp.b[i]:g}")
    return "\n".join(lines)
