"""The (d, s) tables pinned bitwise against the builders they replaced.

composition_array is built by numpy block concatenation, orbit_sizes in
int64 wherever the multinomials fit, and the cone LP's structure ranks
the heads of its targets and sorts on a narrow key.  The references below
are the earlier builders, kept as they were: the recursive tuple list,
the object-factorial orbit sizes, and the column_stack + int32 argsort
structure.  Every output must match them in dtype, shape and bytes, but
for the structure's rows and cols, now held as intp: those match the
reference's values cast to intp.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from finex.bernstein_lp import _placement, _structural_solve, _structure, assemble, lower_bound_lp
from finex.multiindex import composition_array, compositions, orbit_sizes, ranks
from finex.polynomial import SimplexPolynomial, sum_of_squares, two_face_witness


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
    factorials = np.array([math.factorial(k) for k in range(r + 1)], dtype=object)
    exact = factorials[r] // np.prod(factorials[reference_composition_array(r, d)], axis=1)
    return exact.astype(np.float64)


def reference_structure(d, s):
    """rows, cols, weights, inverse_weights, row_start, q as the earlier _structure built them."""
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
    return rows, cols, weights, np.abs(weights), row_start, reference_orbit_sizes(s, d)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


TABLE_SHAPES = [(r, d) for d in range(1, 8) for r in range(26 if d < 5 else 16)]


@pytest.mark.parametrize("d", range(1, 8))
def test_composition_tables_match_the_recursive_tuples(d):
    for r, dd in TABLE_SHAPES:
        if dd != d:
            continue
        assert_bitwise(composition_array(r, d), reference_composition_array(r, d))
        listed = compositions(r, d)
        assert listed == list(reference_compositions(r, d))
        assert all(type(v) is int for v in listed[-1])


@pytest.mark.parametrize("d", range(1, 8))
def test_orbit_sizes_match_on_every_table_shape(d):
    for r, dd in TABLE_SHAPES:
        if dd == d:
            assert_bitwise(orbit_sizes(r, d), reference_orbit_sizes(r, d))


@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("r", [20, 21, 24, 30])
def test_orbit_sizes_match_across_the_int64_boundary(r, d):
    expected = reference_orbit_sizes(r, d)
    assert_bitwise(orbit_sizes(r, d), expected)
    if (r, d) == (30, 6):  # some multinomials here pass 2^63, so both paths ran
        assert expected.max() > 2.0**63 > expected.min()


@pytest.mark.parametrize(
    "r, d", [(66, 2), (67, 2), (70, 2), (200, 2), (120, 3), (40, 4), (60, 3), (1, 1), (0, 3)]
)
def test_orbit_sizes_match_where_the_binomials_overflow(r, d):
    assert_bitwise(orbit_sizes(r, d), reference_orbit_sizes(r, d))


STRUCTURE_SHAPES = [(d, s) for d in range(1, 7) for s in range(11)] + [(3, 16)]
FIELDS = ("rows", "cols", "weights", "inverse_weights", "row_start", "q")


@pytest.mark.parametrize("d, s", STRUCTURE_SHAPES, ids=[f"d{d}-s{s}" for d, s in STRUCTURE_SHAPES])
def test_structure_matches_the_column_stack_build(d, s):
    st = _structure(d, s)
    for name, expected in zip(FIELDS, reference_structure(d, s)):
        if name in ("rows", "cols"):
            expected = expected.astype(np.intp)
        assert_bitwise(getattr(st, name), expected)


@pytest.mark.parametrize("d, k, s", [(1, 0, 3), (2, 2, 5), (3, 3, 3), (6, 2, 8)])
def test_placement_is_the_rank_of_each_padded_head(d, k, s):
    heads = reference_composition_array(k, d)[:, :-1]
    full = np.column_stack([heads, s - heads.sum(axis=1)])
    assert_bitwise(_placement(d, k, s), ranks(full, s).astype(np.int32))


def test_cached_tables_are_read_only():
    st = _structure(3, 4)
    cached = [composition_array(4, 3), orbit_sizes(4, 3), _placement(3, 2, 4)]
    cached += [getattr(st, name) for name in FIELDS if name != "q"]
    for array in cached:
        assert not array.flags.writeable


def test_compositions_returns_a_fresh_list():
    first = compositions(3, 3)
    assert first is not compositions(3, 3)
    first.reverse()
    first.append((9, 9, 9))
    assert compositions(3, 3) == list(reference_compositions(3, 3))


@pytest.mark.parametrize(
    "g, s",
    [(two_face_witness(6), 6), (two_face_witness(3), 9), (sum_of_squares(4), 5),
     (SimplexPolynomial(2, 1, {(1, 0): 1.0}), 3)],
)
def test_certificate_u_is_the_nonzero_primal_by_composition(g, s):
    primal = _structural_solve(assemble(g, s))[1]
    expected = {
        n: float(v) for n, v in zip(reference_compositions(s, g.d), primal[:-1]) if abs(v) > 0.0
    }
    u = lower_bound_lp(g, s).certificate["u"]
    assert list(u.items()) == list(expected.items())
    assert all(type(v) is int for n in u for v in n)
