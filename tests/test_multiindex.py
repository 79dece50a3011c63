"""Count-vector enumeration, orbit sizes, and rank/unrank."""

import math
import time
from itertools import product

import numpy as np
import pytest

from finex.errors import DomainError
from finex.multiindex import (
    _binomials,
    composition_array,
    compositions,
    iter_orbit_sequences,
    num_compositions,
    orbit_size,
    orbit_sizes,
    rank,
    ranks,
    scatter_by_rank,
    sequence_to_counts,
    unrank,
)


def test_compositions_two_outcomes():
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_compositions_counts():
    assert len(compositions(2, 6)) == 21
    assert len(compositions(3, 6)) == 56
    assert num_compositions(2, 6) == 21
    assert num_compositions(3, 6) == 56


def test_compositions_strictly_descending():
    for r, d in [(0, 1), (1, 3), (4, 3), (5, 4), (3, 6)]:
        comps = compositions(r, d)
        assert len(comps) == num_compositions(r, d)
        assert all(a > b for a, b in zip(comps, comps[1:]))
        assert all(sum(n) == r and len(n) == d for n in comps)


def test_compositions_rejects_zero_outcomes():
    with pytest.raises(DomainError):
        compositions(2, 0)


def test_orbit_size_values():
    assert orbit_size((1, 1, 0, 0, 0, 0)) == 2
    assert orbit_size((2, 0, 0, 0, 0, 0)) == 1
    assert orbit_size((1, 1, 1, 0, 0, 0)) == 6


def test_orbit_size_large_exact():
    # 20 draws over 6 faces: must be exact, not floating point
    n = (4, 4, 3, 3, 3, 3)
    expected = math.factorial(20) // (
        math.factorial(4) ** 2 * math.factorial(3) ** 4
    )
    assert orbit_size(n) == expected


def test_orbits_partition_sequence_space():
    for d in range(1, 7):
        for r in range(0, 9):
            total = sum(orbit_size(n) for n in compositions(r, d))
            assert total == d**r


def test_sequence_to_counts():
    # outcomes 2, 3, 3 in 1-based labels are 1, 2, 2 in 0-based
    assert sequence_to_counts((1, 2, 2), 6) == (0, 1, 2, 0, 0, 0)
    assert sequence_to_counts((), 6) == (0, 0, 0, 0, 0, 0)
    assert sequence_to_counts((0, 0), 2) == (2, 0)


def test_sequence_to_counts_out_of_range():
    with pytest.raises(DomainError):
        sequence_to_counts((0, 2), 2)


def test_rank_first_element():
    assert rank((2, 0)) == 0
    assert unrank(2, 2, 2) == (0, 2)
    assert rank(unrank(13, 2, 6)) == 13


def test_rank_unrank_roundtrip():
    for d in range(1, 7):
        for r in range(0, 9):
            comps = compositions(r, d)
            for k, n in enumerate(comps):
                assert rank(n) == k
                assert unrank(k, r, d) == n
            positions = ranks(np.array(comps, dtype=np.int64).reshape(-1, d), r)
            assert positions.tolist() == list(range(len(comps)))


def test_binomial_table_holds_what_ranks_reads():
    for r in range(0, 13):
        for d in range(1, 7):
            expected = [
                [math.comb(a, b) if a - b < r else 0 for b in range(d)]
                for a in range(r + d - 1)
            ]
            assert _binomials(r, d).tolist() == expected


def test_rank_at_large_degree():
    # (0, 3, R): r(r+1)/2 vectors start above 0, then r - 3 have a middle entry above 3
    r = 10**6 + 3
    assert rank((0, 3, 10**6)) == r * (r + 1) // 2 + r - 3


def test_large_binomial_table_is_not_cached():
    # the degree-10**6 table has 3 million int64 entries (24 MB): it is built
    # for the call and dropped, while small tables stay cached for the hot paths
    before = _binomials.cache_info()
    rank((0, 3, 10**6))
    after = _binomials.cache_info()
    assert after == before  # neither a miss that stored it nor a hit on an earlier copy
    rank((1, 2, 3))
    rank((3, 2, 1))
    final = _binomials.cache_info()
    assert final.hits > after.hits
    assert final.currsize <= after.currsize + 1


def test_rank_validates():
    for bad in [(), (1, -1), (1.0, 1)]:
        with pytest.raises(DomainError):
            rank(bad)


def test_composition_arrays_follow_the_enumeration():
    for d in range(1, 7):
        for r in range(0, 9):
            comps = compositions(r, d)
            assert composition_array(r, d).tolist() == [list(n) for n in comps]
            sizes = orbit_sizes(r, d)
            assert sizes.dtype == np.float64
            assert sizes.tolist() == [float(orbit_size(n)) for n in comps]
            for cached in (composition_array(r, d), orbit_sizes(r, d)):
                with pytest.raises(ValueError):
                    cached[0] = 0


def test_orbit_sizes_round_like_float_division():
    # past 2**53 each float is the correctly rounded exact integer
    for r, d in [(60, 3), (40, 4)]:
        exact = [orbit_size(n) for n in compositions(r, d)]
        assert max(exact) > 2**53
        sizes = orbit_sizes(r, d)
        assert sizes.tolist() == [float(x) for x in exact]
        assert (1.0 / sizes).tolist() == [1.0 / x for x in exact]


def test_orbit_sizes_past_the_float_range_are_a_domain_error():
    # at d = 2 the middle multinomial C(s, s/2) passes 1.8e308 between s = 1029 and 1030
    assert np.isfinite(orbit_sizes(1029, 2)).all()
    with pytest.raises(DomainError, match="length-1030 sequences over d=2 .* float range"):
        orbit_sizes(1030, 2)


def test_orbit_sizes_refuse_an_overflowing_length_before_any_factorial(monkeypatch):
    def refuse(k):
        raise AssertionError("orbit_sizes built a Python factorial")

    monkeypatch.setattr(math, "factorial", refuse)
    start = time.perf_counter()
    with pytest.raises(DomainError) as caught:
        orbit_sizes(5000, 2)
    assert time.perf_counter() - start < 0.1
    assert str(caught.value) == (
        "the orbit sizes of length-5000 sequences over d=2 overflow: "
        "a multinomial exceeds the float range (about 1.8e308)"
    )


def test_scatter_by_rank():
    assert scatter_by_rank({(1, 1): 2.5, (0, 2): -1.0}, 2, 2).tolist() == [0.0, 2.5, -1.0]
    assert scatter_by_rank({}, 3, 2).tolist() == [0.0] * 4


def test_unrank_out_of_range():
    with pytest.raises(DomainError):
        unrank(21, 2, 6)
    with pytest.raises(DomainError):
        unrank(-1, 2, 6)


def test_sequences_and_index():
    # the row-major order the tests enumerate sequences in
    for i, seq in enumerate(product(range(3), repeat=3)):
        assert np.ravel_multi_index(seq, (3, 3, 3)) == i


def test_orbit_sequences():
    orbit = list(iter_orbit_sequences((1, 1, 1)))
    assert len(orbit) == 6
    assert len(set(orbit)) == 6
    assert all(sequence_to_counts(seq, 3) == (1, 1, 1) for seq in orbit)
    assert list(iter_orbit_sequences((2, 0))) == [(0, 0)]


def recursive_orbit_sequences(n):
    """The orderings of n, depth first by recursion: the order iter_orbit_sequences keeps."""
    left = list(n)

    def extend(prefix):
        if not any(left):
            yield prefix
        for t, k in enumerate(left):
            if k:
                left[t] -= 1
                yield from extend(prefix + (t,))
                left[t] += 1

    return extend(())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_orbit_walk_lists_the_recursive_order(d):
    for r in range(7):
        for n in compositions(r, d):
            assert list(iter_orbit_sequences(n)) == list(recursive_orbit_sequences(n))
