"""The urn formula against brute-force enumeration of every ordering.

Run with:  python3 -m pytest perfbench/test_reference.py
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest

import reference


def orbit(m) -> int:
    size = factorial(sum(m))
    for k in m:
        size //= factorial(k)
    return size


def brute_force(g: dict, n) -> Fraction:
    """E[g] under the urn n, by averaging over all s! orderings of its balls.

    The observable on a sequence of r draws is c_m / orbit(m), where m
    counts the draws; it sums to c_m over the orbit, so its expectation
    under i.i.d. draws is g(theta).
    """
    r = reference.degree_of(g)
    d = len(n)
    balls = [face for face, k in enumerate(n) for _ in range(k)]
    total = Fraction(0)
    count = 0
    for order in permutations(balls):
        m = tuple(order[:r].count(face) for face in range(d))
        total += Fraction(g.get(m, 0)) / orbit(m)
        count += 1
    return total / count


def random_observable(rng, d: int, r: int) -> dict:
    comps = [tuple(int(v) for v in row) for row in reference.stars_and_bars(r, d)]
    return {m: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for m in comps}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_stars_and_bars_lists_every_composition_once(d, s):
    urns = reference.stars_and_bars(s, d)
    assert urns.shape == (comb(s + d - 1, d - 1), d)
    assert (urns >= 0).all() and (urns.sum(axis=1) == s).all()
    assert len({tuple(row) for row in urns}) == len(urns)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_urn_formula_matches_every_ordering_exactly(d, s):
    rng = np.random.default_rng(100 * d + s)
    for r in range(1, min(s, 3) + 1):
        g = random_observable(rng, d, r)
        for n in reference.stars_and_bars(s, d):
            n = tuple(int(v) for v in n)
            exact = reference.urn_value_exact(g, n)
            assert exact == brute_force(g, n)
            floats = {m: float(c) for m, c in g.items()}
            assert reference.urn_values(floats, s, np.array([n]))[0] == pytest.approx(
                float(exact), abs=1e-12
            )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_minimum_is_the_smallest_brute_force_urn(d, s):
    rng = np.random.default_rng(7 * d + s)
    g = random_observable(rng, d, 2)
    want = min(brute_force(g, tuple(int(v) for v in n)) for n in reference.stars_and_bars(s, d))
    got = reference.minimum({m: float(c) for m, c in g.items()}, s)
    assert got == pytest.approx(float(want), abs=1e-12)


@pytest.mark.parametrize("d", [3, 6])
def test_witness_closed_form(d):
    g = reference.witness(d)
    for s in range(2, 9):
        assert reference.minimum(g, s) == pytest.approx(reference.witness_bound(s), abs=1e-15)
    urn = (1, 1, 3) + (0,) * (d - 3)
    assert reference.urn_value_exact(g, urn) == Fraction(-1, 5 * 4) == brute_force(g, urn)
    assert reference.simplex_sample_minimum(g, 0) == reference.WITNESS_LIMIT


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sum_of_squares_rises_to_its_limit(d):
    g = reference.sum_of_squares(d)
    values = [reference.minimum(g, s) for s in range(2, 16)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] < reference.sum_of_squares_limit(d)
    # balanced urns, s a multiple of d: (s/d - 1) / (s - 1)
    s = 3 * d
    assert reference.minimum(g, s) == pytest.approx((s / d - 1) / (s - 1), abs=1e-15)
    sampled = reference.simplex_sample_minimum(g, 0)
    assert reference.sum_of_squares_limit(d) <= sampled < reference.sum_of_squares_limit(d) + 1e-3
