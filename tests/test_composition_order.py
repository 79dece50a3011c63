"""The vectorized lift, urn values and dense checks against per-element references.

The references below are the straightforward loops: the dict convolution
for homogenize, one orbit_size division per composition for the oracle
and the boson diagonal, one enumeration-position lookup for the LP's b,
and one sequence_to_counts + rank + orbit_size (or one reordered sequence)
per sequence for the dense tensor-space matrices, and one permutation
matrix per drawn permutation for verify's four dense rows.  Every comparison is
bitwise but two: the LP's b against reduce_to_free_vars, which sums in
another order, is held to 1e-15 of the largest entry, and the boson
minimum, which comes from falling factorials and not from the lift, to
4 units in the last place of the largest urn value.
"""

from itertools import islice, permutations, product

import numpy as np
import pytest

import finex.polynomial
from finex.bernstein_lp import assemble
from finex import boson
from finex.boson import (
    BosonDensityMatrix,
    OccupationBasis,
    permutation_matrix,
    quantum_bound,
    symmetrizer,
)
from finex.cli import _seeded_quadratics, _verify_checks
from finex.exchangeable import oracle_bound
from finex.multiindex import (
    compositions,
    orbit_size,
    rank,
    sequence_to_counts,
)
from finex.polynomial import (
    SimplexPolynomial,
    evaluate,
    gradient,
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
    for i, seq in enumerate(product(range(d), repeat=s)):
        n = sequence_to_counts(seq, d)
        v[i, rank(n)] = 1.0 / np.sqrt(orbit_size(n))
    return v


def reference_dense(rho):
    seqs = list(product(range(rho.basis.d), repeat=rho.basis.s))
    counts = [sequence_to_counts(seq, rho.basis.d) for seq in seqs]
    idx = np.array([rank(n) for n in counts])
    orb = np.array([orbit_size(n) for n in counts], dtype=float)
    return rho.matrix[np.ix_(idx, idx)] / np.sqrt(np.outer(orb, orb))


def reference_symmetrizer(s, d):
    seqs = list(product(range(d), repeat=s))
    pi = np.zeros((len(seqs), len(seqs)))
    for a, x in enumerate(seqs):
        for b, y in enumerate(seqs):
            n = sequence_to_counts(x, d)
            if n == sequence_to_counts(y, d):
                pi[a, b] = 1.0 / orbit_size(n)
    return pi


def reference_permutation_matrix(perm, d):
    seqs = list(product(range(d), repeat=len(perm)))
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
    perms = list(permutations(range(s)))  # s = 0 has one, the empty permutation
    for perm in perms:
        p = permutation_matrix(perm, d)
        assert p.shape == (d**s, d**s)
        assert np.array_equal(bits(p), bits(reference_permutation_matrix(perm, d)))


def reference_dense_rows(seed, perturb):
    """verify's four dense-row residuals, one permutation matrix per drawn permutation."""
    rng = np.random.default_rng(seed)
    _seeded_quadratics(rng)  # the agreement row draws first

    worst_projector = 0.0
    for d in (2, 3):
        for s in (2, 3, 4):
            pi = boson.symmetrizer(s, d)
            if perturb:
                pi = pi.copy()
                pi[0, 0] += 1e-3
            worst_projector = max(
                worst_projector,
                float(np.abs(pi @ pi - pi).max()),
                float(np.abs(pi - pi.T).max()),
            )

    worst_absorb = 0.0
    for d in (2, 3):
        for s in (2, 3, 4):
            pi = boson.symmetrizer(s, d)
            for _ in range(10):
                perm = tuple(int(v) for v in rng.permutation(s))
                p = boson.permutation_matrix(perm, d)
                worst_absorb = max(
                    worst_absorb,
                    float(np.abs(pi @ p - pi).max()),
                    float(np.abs(p @ pi - pi).max()),
                )

    worst_gram = 0.0
    for d in (2, 3):
        for s in range(1, 6):
            v = boson.OccupationBasis(d, s).dense_isometry()
            gram = v.T @ v
            worst_gram = max(worst_gram, float(np.abs(gram - np.eye(v.shape[1])).max()))

    worst_state = 0.0
    for d, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        basis = boson.OccupationBasis(d, s)
        z = rng.normal(size=(basis.dimension, basis.dimension)) + 1j * rng.normal(
            size=(basis.dimension, basis.dimension)
        )
        m = z @ z.conj().T
        m /= np.trace(m).real
        dense = boson.BosonDensityMatrix(basis, m).dense()
        for _ in range(5):
            perm = tuple(int(v) for v in rng.permutation(s))
            p = boson.permutation_matrix(perm, d)
            worst_state = max(
                worst_state,
                float(np.abs(p @ dense - dense).max()),
                float(np.abs(dense @ p.T - dense).max()),
            )
    return [worst_projector, worst_absorb, worst_gram, worst_state]


DENSE_ROWS = [
    "symmetrizer-projector",
    "symmetrizer-absorbs-permutations",
    "occupation-orthonormality",
    "state-index-symmetry",
]


@pytest.mark.parametrize(
    "perturb, seeds", [(False, range(64)), (True, (0, 5, 17))], ids=["plain", "perturbed"]
)
def test_verify_dense_rows_match_the_per_permutation_loops(perturb, seeds):
    for seed in seeds:
        rows = list(islice(_verify_checks(seed, 1e-7, perturb), 1, 5))
        assert [name for name, *_ in rows] == DENSE_ROWS
        residuals = [residual for _, _, residual, _ in rows]
        assert [r.hex() for r in residuals] == [
            r.hex() for r in reference_dense_rows(seed, perturb)
        ], f"seed {seed}"


def shuffled_pairs():
    """60 seeded observables over d = 3..5, degree 2 or 3, forward and in a shuffled term order.

    Each comes with a Dirichlet point to evaluate it at.
    """
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(60):
        d, degree = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        items = [(n, float(rng.uniform(-1, 1))) for n in compositions(degree, d)]
        shuffled = dict(items[k] for k in rng.permutation(len(items)))
        forward = SimplexPolynomial(d, degree, dict(items))
        pairs.append((forward, SimplexPolynomial(d, degree, shuffled), rng.dirichlet(np.ones(d))))
    return pairs


def test_the_given_term_order_changes_no_sum():
    # the terms are kept in composition order, so evaluate, gradient and the
    # simplex minimum's grid and descent add them in one order however they came
    for forward, shuffled, theta in shuffled_pairs():
        degree = forward.degree
        assert list(shuffled.terms) == list(forward.terms) == compositions(degree, forward.d)
        assert bits(evaluate(shuffled, theta)) == bits(evaluate(forward, theta))
        assert np.array_equal(bits(gradient(shuffled, theta)), bits(gradient(forward, theta)))
        assert bits(boson.simplex_minimum(shuffled)) == bits(boson.simplex_minimum(forward))
