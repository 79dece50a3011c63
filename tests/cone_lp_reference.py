"""The cone LP's u-block stored entry by entry, and its solve in exact rationals.

finex applies the u-block B and its inverse by Horner sweeps and stores no
entry of either.  The references here store them: reference_structure is
the column-stack build of B's off-diagonal entries, sorted by row, that the
LP once cached, with B^-1's weights (their absolute values) on the same
entries.  reference_solve is the LP's solve written on those triplets, one
bincount per product and a vstack (the "vstack formulation"), and
exact_solve and exact_dual are the same solve in fractions.Fraction
arithmetic.  None of it shares code with the sweeps; the tables come from
the recursive tuple builders below, not from finex.multiindex.  finex
writes no dense A, so dense_lp writes one, from either u-block, for the
tests and the reference simplex.  Only swept, last, calls the sweeps, in
compositions order, for the tests to hold against these references.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from finex.bernstein_lp import _sweep, _sweeps
from finex.multiindex import ranks
from finex.solvers import LinearProgram, certificate_residuals


@lru_cache(maxsize=None)
def reference_compositions(r, d):
    if d == 1:
        return ((r,),)
    out = []
    for v in range(r, -1, -1):
        for tail in reference_compositions(r - v, d - 1):
            out.append((v,) + tail)
    return tuple(out)


def reference_composition_array(r, d):
    return np.array(reference_compositions(r, d), dtype=np.int64).reshape(-1, d)


def reference_orbit_sizes(r, d):
    # the top level listed afresh, not kept: the orbit-size grid lists 3.8 million rows
    counts = np.array(reference_compositions.__wrapped__(r, d), dtype=np.int64).reshape(-1, d)
    factorials = np.array([math.factorial(k) for k in range(r + 1)], dtype=object)
    exact = factorials[r] // np.prod(factorials[counts], axis=1)
    return exact.astype(np.float64)


@lru_cache(maxsize=None)
def reference_structure(d, s):
    """rows, cols, weights, inverse_weights, row_start, q as the cone LP once cached them.

    Row i and column i belong to compositions(s, d)[i]; B is the identity
    plus weights at (rows, cols), B^-1 the identity plus inverse_weights
    there, and q = B^-1 e_0 the orbit sizes.
    """
    counts = reference_composition_array(s, d)
    rows, cols, weights = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], [np.zeros(0)]
    for k in range(1, s + 1):
        js = reference_composition_array(k, d)[1:]
        if not len(js):
            continue
        w = reference_orbit_sizes(k, d)[1:] * (-1.0) ** (k - js[:, 0])
        cols_k = np.flatnonzero(counts[:, -1] == k)
        targets = (counts[cols_k, None, :-1] + js[None, :, 1:]).reshape(-1, d - 1)
        full = np.column_stack([targets, s - targets.sum(axis=1)])
        rows.append(ranks(full, s).astype(np.int32))
        cols.append(np.repeat(cols_k, len(js)).astype(np.int32))
        weights.append(np.tile(w, len(cols_k)))
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    rows, cols, weights = rows[order], np.concatenate(cols)[order], np.concatenate(weights)[order]
    row_start = np.searchsorted(rows, np.arange(len(counts) + 1, dtype=np.int32))
    out = rows, cols, weights, np.abs(weights), row_start, reference_orbit_sizes(s, d)
    for x in out:
        x.setflags(write=False)
    return out


def dense_u_block(d, s):
    """B and B^-1 as dense matrices, written from the triplets."""
    rows, cols, weights, inverse_weights, _, q = reference_structure(d, s)
    block, inverse = np.eye(len(q)), np.eye(len(q))
    block[rows, cols] = weights
    inverse[rows, cols] = inverse_weights
    return block, inverse


def dense_lp(cone_lp, block):
    """cone_lp as a dense LinearProgram: u-block `block` (n x n), then c's free column.

    c enters only the constant-monomial row, last in compositions order,
    and is the objective.
    """
    m = len(cone_lp.b)
    a = np.zeros((m, m + 1))
    a[:, :m] = block
    a[-1, m] = 1.0
    is_c = np.arange(m + 1) == m
    return LinearProgram(a, cone_lp.b, is_c.astype(float), is_c)


def reference_scatter(index, values, rows):
    size = values.shape[1]
    flat = index if size == 1 else (index[:, None] * np.int64(size) + np.arange(size)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=rows * size)
    return sums.astype(float, copy=False).reshape(rows, size)


@np.errstate(over="ignore", invalid="ignore")
def reference_solve(d, s, b):
    """The solve on the triplets, without its validation: (values, primal, dual, residuals, p)."""
    rows, cols, weights, inverse_weights, row_start, q = reference_structure(d, s)
    m, size = b.shape
    columns = np.arange(size)
    p = b + reference_scatter(rows, inverse_weights[:, None] * b[cols], m)
    ratios = p / q[:, None]
    leaving = np.argmin(ratios, axis=0)
    c = ratios[leaving, columns]
    u = np.maximum(p - c * q[:, None], 0.0)
    u[leaving, columns] = 0.0
    primal = np.vstack([u, c])
    starts, lengths = row_start[leaving], np.diff(row_start)[leaving]
    entries = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    owner = np.repeat(columns, lengths)
    dual = np.zeros((m, size))
    dual[cols[entries], owner] = inverse_weights[entries] / q[leaving][owner]
    dual[leaving, columns] = 1.0 / q[leaving]
    ax = u + reference_scatter(rows, weights[:, None] * u[cols], m)
    ax[-1] += c
    ya = np.vstack([dual, dual[-1]]) + reference_scatter(cols, weights[:, None] * dual[rows], m + 1)
    reduced = -ya
    reduced[m] += 1.0
    residuals = certificate_residuals(ax - b, reduced, primal, np.arange(m + 1) == m)
    return c, primal, dual, residuals, p


def exact_solve(d, s, b):
    """The solve of each column of the float array b in exact rationals.

    Returns one dict per column: p = B^-1 b, its magnitude |B^-1| |b| (a
    float, the scale of p's rounding error), the ratios p_j / q_j, the
    optimal value c (their minimum) and the leaving index (the first
    minimum), all but the magnitude and the index as Fractions.
    """
    rows, cols, _, inverse_weights, _, q = reference_structure(d, s)
    entries = list(zip(rows.tolist(), cols.tolist(), [int(w) for w in inverse_weights]))
    out = []
    for column in b.T.tolist():
        p = [Fraction(v) for v in column]
        magnitude = [abs(v) for v in p]
        for i, j, w in entries:
            p[i] += w * Fraction(column[j])
            magnitude[i] += w * abs(Fraction(column[j]))
        ratios = [v / int(n) for v, n in zip(p, q)]
        c = min(ratios)
        out.append(
            {
                "p": p,
                "magnitude": np.array([float(v) for v in magnitude]),
                "ratios": ratios,
                "c": c,
                "leaving": ratios.index(c),
            }
        )
    return out


def exact_dual(d, s, leaving):
    """Row leaving of B^-1 over q_leaving, the dual of that pivot, as Fractions."""
    rows, cols, _, inverse_weights, _, q = reference_structure(d, s)
    orbit = int(q[leaving])
    dual = [Fraction(0)] * len(q)
    dual[leaving] = Fraction(1, orbit)
    for i, j, w in zip(rows.tolist(), cols.tolist(), inverse_weights.tolist()):
        if i == leaving:
            dual[j] = Fraction(int(w), orbit)
    return dual


def swept(d, s, x, inverse=False, transpose=False):
    """B x, B^-1 x, B^T x or B^-T x by finex's sweeps, x and the result in compositions order."""
    maps = _sweeps(d, s)
    n = len(x)
    levelled = np.zeros((n + 1, x.shape[1]))
    levelled[:n] = x[maps.order]
    _sweep(maps, levelled, np.add if inverse else np.subtract, transpose)
    return levelled[maps.position[:n]]
