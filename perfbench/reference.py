"""Independent reference values for the benchmark's checks.

Nothing here imports finex.  An observable is a dict mapping a count
vector m (a tuple of d non-negative ints summing to the degree r) to a
real coefficient c_m.  Its worst-case expectation over length-s
exchangeable sequences is attained at an urn: draw all s balls of a
composition n without replacement.  The chance that the first r draws
form one fixed ordering with counts m is a ratio of falling factorials
(Diaconis & Freedman, "Finite exchangeable sequences", Ann. Probab. 8,
1980), so

    E_n[g] = sum_m c_m * prod_i n_i^(m_i falling) / s^(r falling)

and the bound is the minimum of E_n[g] over every composition n of s.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np


def stars_and_bars(s: int, d: int) -> np.ndarray:
    """Every composition of s balls into d boxes, one per row (int64).

    Choosing d-1 bar positions among s+d-1 slots fixes the composition:
    box i holds the stars between bar i-1 and bar i.
    """
    if d == 1:
        return np.array([[s]], dtype=np.int64)
    bars = np.array(list(combinations(range(s + d - 1), d - 1)), dtype=np.int64)
    edges = np.hstack(
        [
            np.full((len(bars), 1), -1, dtype=np.int64),
            bars,
            np.full((len(bars), 1), s + d - 1, dtype=np.int64),
        ]
    )
    return np.diff(edges, axis=1) - 1


def falling(x, k: int):
    """x (x-1) ... (x-k+1); works on ints, Fractions and numpy arrays."""
    out = 1
    for j in range(k):
        out = out * (x - j)
    return out


def degree_of(g: dict) -> int:
    degrees = {sum(m) for m in g}
    if len(degrees) != 1:
        raise ValueError("observable must be homogeneous and non-empty")
    return degrees.pop()


def urn_values(g: dict, s: int, urns: np.ndarray) -> np.ndarray:
    """E_n[g] for every urn n (row of urns), in float64."""
    r = degree_of(g)
    n = urns.astype(np.float64)
    total = np.zeros(len(urns))
    for m, c in g.items():
        term = np.full(len(urns), float(c))
        for i, k in enumerate(m):
            if k:
                term *= falling(n[:, i], k)
        total += term
    return total / float(falling(s, r))


def urn_value_exact(g: dict, n) -> Fraction:
    """E_n[g] in exact rational arithmetic (coefficients read as Fractions)."""
    r = degree_of(g)
    s = sum(n)
    total = Fraction(0)
    for m, c in g.items():
        num = 1
        for ni, k in zip(n, m):
            num *= falling(ni, k)
        total += Fraction(c) * num
    return total / falling(s, r)


class UrnMinimum:
    """The worst case of g at length s, with every urn value kept."""

    def __init__(self, g: dict, s: int):
        d = len(next(iter(g)))
        self.g = g
        self.s = s
        self.urns = stars_and_bars(s, d)
        self.values = urn_values(g, s, self.urns)
        self.value = float(self.values.min())

    def value_at(self, n) -> float:
        """E_n[g] at one urn, for checking a reported argmin."""
        row = np.asarray([n], dtype=np.int64)
        return float(urn_values(self.g, self.s, row)[0])


def minimum(g: dict, s: int) -> float:
    return UrnMinimum(g, s).value


# closed forms


def witness(d: int) -> dict:
    """theta_1^2 - theta_1 theta_2 + theta_2^2 over d faces."""

    def unit(i, j):
        n = [0] * d
        n[i] += 1
        n[j] += 1
        return tuple(n)

    return {unit(0, 0): 1.0, unit(0, 1): -1.0, unit(1, 1): 1.0}


def witness_bound(s: int) -> float:
    """Worst case of the witness at length s over d >= 3 faces.

    Attained at the urn (1, 1, s-2, 0, ...); with two faces only, the
    other s-2 balls must go to a flagged face and the bound is higher.
    """
    return -1.0 / (s * (s - 1))


WITNESS_LIMIT = 0.0  # non-negative on the simplex, 0 where theta_1 = theta_2 = 0


def sum_of_squares(d: int) -> dict:
    return {tuple(2 if j == i else 0 for j in range(d)): 1.0 for i in range(d)}


def sum_of_squares_limit(d: int) -> float:
    """Minimum of sum theta_i^2 on the simplex, at the barycentre."""
    return 1.0 / d


# the i.i.d. limit from above


def evaluate(g: dict, points: np.ndarray) -> np.ndarray:
    """g at each row of points."""
    total = np.zeros(len(points))
    for m, c in g.items():
        term = np.full(len(points), float(c))
        for i, k in enumerate(m):
            if k:
                term *= points[:, i] ** k
        total += term
    return total


def simplex_sample_minimum(g: dict, seed: int, count: int = 20000) -> float:
    """Minimum of g over a seeded sample of the simplex.

    The sample holds the vertices, a uniform grid and Dirichlet draws at
    three concentrations.  Every point lies on the simplex, so the result
    bounds the infinitely exchangeable limit from above.
    """
    d = len(next(iter(g)))
    rng = np.random.default_rng(seed)
    resolution = 1
    while comb(resolution + d, d - 1) <= count // 2:
        resolution += 1
    grid = stars_and_bars(resolution, d) / resolution
    draws = [rng.dirichlet(np.full(d, a), size=count // 6) for a in (0.3, 1.0, 3.0)]
    points = np.vstack([np.eye(d), grid, *draws])
    return float(evaluate(g, points).min())
