"""The vectorized lift, urn values and dense checks against per-element references.

The references below are the straightforward loops: the dict convolution
for homogenize, one orbit_size division per composition for the oracle
and the boson diagonal, one enumeration-position lookup for the LP's b,
and one sequence_to_counts + rank + orbit_size (or one reordered sequence)
per sequence for the dense tensor-space matrices.  Every comparison is
bitwise but two: the LP's b against reduce_to_free_vars, which sums in
another order, is held to 1e-15 of the largest entry, and the boson
minimum, which comes from falling factorials and not from the lift, to
4 units in the last place of the largest urn value.
"""

from itertools import permutations

import numpy as np
import pytest

import finex.polynomial
from finex.bernstein_lp import assemble
from finex.boson import (
    BosonDensityMatrix,
    OccupationBasis,
    permutation_matrix,
    quantum_bound,
    symmetrizer,
)
from finex.exchangeable import oracle_bound
from finex.multiindex import (
    compositions,
    orbit_size,
    rank,
    sequence_to_counts,
    sequences,
)
from finex.polynomial import (
    SimplexPolynomial,
    homogenize,
    reduce_to_free_vars,
    two_face_witness,
)


def reference_homogenize(g, s):
    """Multiply by (sum theta)^(s - degree) one composition and term at a time."""
    if s == g.degree:
        return g
    terms = {}
    for m in compositions(s - g.degree, g.d):
        w = orbit_size(m)
        for n, c in g.terms.items():
            key = tuple(a + b for a, b in zip(n, m))
            terms[key] = terms.get(key, 0.0) + c * w
    return SimplexPolynomial(g.d, s, terms)


def reference_urn_minimum(lifted):
    """(value, argmin) over compositions, the first minimum winning ties."""
    best_value, best_n = None, None
    for n in compositions(lifted.degree, lifted.d):
        value = lifted.terms.get(n, 0.0) / orbit_size(n)
        if best_value is None or value < best_value:
            best_value, best_n = value, n
    return best_value, best_n


def reference_vector(lifted):
    comps = compositions(lifted.degree, lifted.d)
    position = {n: i for i, n in enumerate(comps)}
    coefficients = np.zeros(len(comps))
    for n, c in lifted.terms.items():
        coefficients[position[n]] = c
    return coefficients


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def same_terms(p, q):
    return p.d == q.d and p.degree == q.degree and (
        {n: c.hex() for n, c in p.terms.items()} == {n: c.hex() for n, c in q.terms.items()}
    )


def seeded_observables():
    rng = np.random.default_rng(20240)
    cases = []
    for _ in range(50):
        d = int(rng.integers(1, 5))
        degree = int(rng.integers(0, 4))
        comps = compositions(degree, d)
        picked = rng.choice(len(comps), size=int(rng.integers(1, len(comps) + 1)), replace=False)
        # small integers make exact cancellations (pruned terms) common
        coeffs = rng.integers(-3, 4, size=len(picked)) if rng.random() < 0.3 else rng.normal(
            scale=10.0 ** rng.integers(-3, 4), size=len(picked)
        )
        g = SimplexPolynomial(d, degree, {comps[k]: float(c) for k, c in zip(picked, coeffs)})
        cases.append((g, int(rng.integers(degree, 9))))
    return cases


WITNESS_CASES = [(two_face_witness(6), s) for s in range(2, 13)]
# 0.1 + 0.2 - 0.3 leaves 5.6e-17 on theta1 theta2 theta3, which the lift prunes
CANCELLING = SimplexPolynomial(3, 1, {(1, 0, 0): 0.1, (0, 1, 0): 0.2, (0, 0, 1): -0.3})
CASES = seeded_observables() + WITNESS_CASES + [(CANCELLING, s) for s in (3, 6)]


@pytest.mark.parametrize("g, s", CASES)
def test_lift_and_urn_minimum_match_the_loops(g, s):
    expected = reference_homogenize(g, s)
    lifted = homogenize(g, s)
    assert same_terms(lifted, expected)
    assert np.array_equal(bits(lifted.coefficient_vector), bits(reference_vector(expected)))
    value, argmin = reference_urn_minimum(expected)
    result = oracle_bound(g, s)
    assert bits(result.value) == bits(value)
    assert result.argmin == argmin

    # the boson route sums falling factorials, not the lift, so it agrees to
    # rounding; where the minimum is tied within rounding (a degree-0 g reads
    # exactly c on every urn, its lift does not) any tied composition may win
    reference = [expected.terms.get(n, 0.0) / orbit_size(n) for n in compositions(s, g.d)]
    tol = 4 * 2.0**-52 * max(1.0, np.abs(reference).max())
    near = [n for n, v in zip(compositions(s, g.d), reference) if v <= value + tol]
    boson = quantum_bound(g, s)
    assert abs(boson.value - value) <= tol
    assert boson.argmin == argmin if len(near) == 1 else boson.argmin in near


@pytest.mark.parametrize("g, s", [c for c in CASES if c[1] - c[0].degree >= 2])
def test_lift_in_small_blocks_adds_in_the_same_order(g, s, monkeypatch):
    monkeypatch.setattr(finex.polynomial, "_LIFT_BLOCK", 24)
    lifted = homogenize(g, s)
    assert same_terms(lifted, reference_homogenize(g, s))
    assert np.array_equal(bits(lifted.coefficient_vector), bits(reference_vector(lifted)))


@pytest.mark.parametrize("g, s", [c for c in CASES if c[0].d < 6 or c[1] <= 10])
def test_lp_b_matches_the_enumeration_position(g, s):
    # b is g's own reduction: at length s it is b at length g.degree, each
    # entry moved to the row of the same exponent e, that is (e, s - |e|)
    short = assemble(g, g.degree).b
    position = {n: i for i, n in enumerate(compositions(s, g.d))}
    expected = np.zeros(len(position))
    for n, value in zip(compositions(g.degree, g.d), short):
        e = n[: g.d - 1]
        expected[position[e + (s - sum(e),)]] = value
    assert np.array_equal(bits(assemble(g, s).b), bits(expected))

    row_of = {n[: g.d - 1]: i for i, n in enumerate(compositions(g.degree, g.d))}
    reference = np.zeros(len(short))
    for e, c in reduce_to_free_vars(g).items():
        reference[row_of[e]] = c
    assert np.abs(short - reference).max() <= 1e-15 * max(1.0, np.abs(reference).max())


def reference_isometry(d, s):
    v = np.zeros((d**s, len(compositions(s, d))))
    for i, seq in enumerate(sequences(s, d)):
        n = sequence_to_counts(seq, d)
        v[i, rank(n)] = 1.0 / np.sqrt(orbit_size(n))
    return v


def reference_dense(rho):
    seqs = sequences(rho.basis.s, rho.basis.d)
    counts = [sequence_to_counts(seq, rho.basis.d) for seq in seqs]
    idx = np.array([rank(n) for n in counts])
    orb = np.array([orbit_size(n) for n in counts], dtype=float)
    return rho.matrix[np.ix_(idx, idx)] / np.sqrt(np.outer(orb, orb))


def reference_symmetrizer(s, d):
    seqs = sequences(s, d)
    pi = np.zeros((len(seqs), len(seqs)))
    for a, x in enumerate(seqs):
        for b, y in enumerate(seqs):
            n = sequence_to_counts(x, d)
            if n == sequence_to_counts(y, d):
                pi[a, b] = 1.0 / orbit_size(n)
    return pi


def reference_permutation_matrix(perm, d):
    seqs = sequences(len(perm), d)
    p = np.zeros((len(seqs), len(seqs)))
    for col, seq in enumerate(seqs):
        p[seqs.index(tuple(seq[i] for i in perm)), col] = 1.0
    return p


@pytest.mark.parametrize("d, s", [(d, s) for d in (1, 2, 3) for s in range(5)])
def test_dense_matrices_match_the_per_sequence_loops(d, s):
    basis = OccupationBasis(d, s)
    assert np.array_equal(bits(basis.dense_isometry()), bits(reference_isometry(d, s)))
    assert np.array_equal(bits(symmetrizer(s, d)), bits(reference_symmetrizer(s, d)))
    rng = np.random.default_rng(100 * d + s)
    z = rng.normal(size=(basis.dimension,) * 2) + 1j * rng.normal(size=(basis.dimension,) * 2)
    m = z @ z.conj().T
    rho = BosonDensityMatrix(basis, m / np.trace(m).real)
    assert np.array_equal(
        rho.dense().view(np.int64), reference_dense(rho).view(np.int64)
    )
    for perm in permutations(range(s)):
        assert np.array_equal(permutation_matrix(perm, d), reference_permutation_matrix(perm, d))
