"""Properties of the composition tables over generated (r, d)."""

import numpy as np
import pytest

from finex.multiindex import composition_array, orbit_sizes, ranks

hypothesis = pytest.importorskip("hypothesis")  # declared in the test extra
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

shapes = st.tuples(st.integers(0, 14), st.integers(1, 6))
small_shapes = st.tuples(st.integers(0, 12), st.integers(1, 6))
budget = settings(max_examples=60, deadline=None)


@budget
@given(shapes)
def test_each_row_ranks_at_its_own_position(shape):
    r, d = shape
    counts = composition_array(r, d)
    assert np.array_equal(ranks(counts, r), np.arange(len(counts)))


@budget
@given(shapes)
def test_rows_are_strictly_lex_descending(shape):
    r, d = shape
    counts = composition_array(r, d)
    step = counts[:-1] - counts[1:]
    first = np.argmax(step != 0, axis=1)  # the first entry where neighbours differ
    assert np.all(step[np.arange(len(step)), first] > 0)


@budget
@given(shapes)
def test_rows_sum_to_the_degree(shape):
    r, d = shape
    counts = composition_array(r, d)
    assert np.all(counts >= 0)
    assert np.array_equal(counts.sum(axis=1), np.full(len(counts), r))


@budget
@given(small_shapes)
def test_orbit_sizes_sum_to_every_sequence(shape):
    # d^r < 2^53 here, so the float sum is exact
    r, d = shape
    assert orbit_sizes(r, d).sum() == float(d**r)
