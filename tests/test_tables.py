"""The (d, s) tables pinned bitwise against the builders they replaced.

composition_array is built by numpy block concatenation and orbit_sizes in
int64 wherever the multinomials fit; the references are the earlier
builders, kept as they were in cone_lp_reference: the recursive tuple list
and the object-factorial orbit sizes.  Every output must match them in
dtype, shape and bytes.  The cone LP keeps no entry of its u-block B, only
the index maps of the Horner sweeps that apply B, B^-1 and their
transposes; each sweep must reproduce, exactly, B from the column-stack
triplets the LP once cached (reference_structure).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cone_lp_reference import (
    dense_u_block,
    reference_composition_array,
    reference_compositions,
    reference_orbit_sizes,
    reference_structure,
    swept,
)

from finex import multiindex
from finex.bernstein_lp import _placement, _solve, _sweeps, assemble, lower_bound_lp
from finex.errors import DomainError
from finex.multiindex import composition_array, compositions, orbit_sizes, ranks
from finex.polynomial import SimplexPolynomial, sum_of_squares, two_face_witness


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


def test_two_face_tables_match_the_recursive_build():
    """d = 2 is built directly, not from r + 1 cached one-row tails; the rows are the same."""
    for r in range(201):
        assert_bitwise(composition_array(r, 2), reference_composition_array(r, 2))
    r = 99_999  # the d = 2 grid of boson.simplex_minimum
    rows = np.array([(v, r - v) for v in range(r, -1, -1)], dtype=np.int64)
    assert_bitwise(composition_array(r, 2), rows)
    assert not composition_array(r, 2).flags.writeable


def test_the_two_face_grid_caches_at_most_three_tables():
    code = (
        "from finex import boson, multiindex\n"
        "from finex.polynomial import two_face_witness\n"
        "boson._grid_argmin(two_face_witness(2))\n"
        "print(multiindex._composition_array.cache_info().currsize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 3


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


# every length to 59, then 100, 170 and 171 (171! passes the float range), 300,
# 1029 and 1030 (C(1030, 515) passes it too), d <= 5 and N <= 3e5: 307 shapes
ORBIT_GRID = [
    (r, d)
    for r in [*range(60), 100, 170, 171, 300, 1029, 1030]
    for d in range(1, 6)
    if math.comb(r + d - 1, d - 1) <= 300_000
]


@pytest.mark.parametrize("d", range(1, 6))
def test_orbit_sizes_match_the_exact_reference_on_the_grid(d):
    try:
        for r in [r for r, dd in ORBIT_GRID if dd == d]:
            try:
                expected = reference_orbit_sizes(r, d)
            except OverflowError:  # an exact multinomial past the float range
                with pytest.raises(DomainError, match="exceeds the float range"):
                    orbit_sizes(r, d)
                continue
            assert_bitwise(orbit_sizes(r, d), expected)
    finally:  # the grid's tables would hold 150 MB for the rest of the session
        orbit_sizes.cache_clear()
        multiindex._composition_array.cache_clear()


STRUCTURE_SHAPES = [(d, s) for d in range(1, 7) for s in range(11)] + [(3, 16)]


def triplet_product(d, s, x, inverse=False, transpose=False):
    """The same product from the triplets, in exact integers."""
    rows, cols, weights, inverse_weights, _, _ = reference_structure(d, s)
    w = (inverse_weights if inverse else weights).astype(np.int64)
    if transpose:
        rows, cols = cols, rows
    out = x.copy()
    np.add.at(out, rows, w[:, None] * x[cols])
    return out


@pytest.mark.parametrize("d, s", STRUCTURE_SHAPES, ids=[f"d{d}-s{s}" for d, s in STRUCTURE_SHAPES])
def test_structure_matches_the_column_stack_build(d, s):
    # every unit vector where B fits densely, else a block of small integers;
    # either way every product is an exact integer
    n = len(composition_array(s, d))
    if n <= 500:
        x = np.eye(n, dtype=np.int64)
        block, block_inverse = dense_u_block(d, s)
        assert np.array_equal(block @ block_inverse, x)
        assert np.array_equal(swept(d, s, x.astype(float)), block)
    else:
        x = np.random.default_rng(n).integers(-3, 4, size=(n, 6))
    for inverse in (False, True):
        for transpose in (False, True):
            expected = triplet_product(d, s, x, inverse, transpose)
            assert np.abs(expected).max() < 2**53
            actual = swept(d, s, x.astype(float), inverse, transpose)
            assert np.array_equal(actual, expected.astype(float))
    back = swept(d, s, swept(d, s, x.astype(float)), inverse=True)
    assert np.array_equal(back, x)
    maps = _sweeps(d, s)
    assert_bitwise(maps.q, reference_orbit_sizes(s, d))  # compositions order


@pytest.mark.parametrize("d, k, s", [(1, 0, 3), (2, 2, 5), (3, 3, 3), (6, 2, 8)])
def test_placement_is_the_rank_of_each_padded_head(d, k, s):
    heads = reference_composition_array(k, d)[:, :-1]
    full = np.column_stack([heads, s - heads.sum(axis=1)])
    assert_bitwise(_placement(d, k, s), ranks(full, s).astype(np.int32))


def test_cached_tables_are_read_only():
    maps = _sweeps(3, 4)
    cached = [composition_array(4, 3), orbit_sizes(4, 3), _placement(3, 2, 4)]
    cached += [maps.order, maps.position, maps.up, maps.down, maps.q]
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
    # the certificate is the solve's own arrays, u in compositions order
    _, primal, dual, _, _ = _solve(g.d, assemble(g, s).b[:, None], s)[0]
    certificate = lower_bound_lp(g, s).certificate
    assert_bitwise(certificate["u"], primal[:-1, 0])
    assert_bitwise(certificate["dual"], dual[:, 0])
    assert certificate["c"] == primal[-1, 0]
