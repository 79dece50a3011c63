"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run pytest -s to see them
all); a failure surfaces through the assertion itself.  Expected values
marked as derived were confirmed by the independent brute-force
enumerations included here before being frozen into assertions.
"""

import time

import numpy as np
import pytest

from finex.bernstein_lp import assemble, dump, lower_bound_lp
from finex.boson import (
    BosonDensityMatrix,
    OccupationBasis,
    permutation_matrix,
    quantum_bound,
    rho_from_exchangeable,
    simplex_minimum,
    symmetrizer,
    witness_value,
)
from finex.exchangeable import from_sequence_probs, oracle_bound
from finex.multiindex import compositions, iter_orbit_sequences, sequence_to_counts
from finex.polynomial import (
    evaluate,
    two_face_witness,
    sum_of_squares,
    to_diagonal_observable,
)

WITNESS = two_face_witness()  # theta1^2 - theta1 theta2 + theta2^2, six faces


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def brute_force_bound(g, s):
    """Worst case over s-ball urns by full enumeration of orderings."""
    obs = to_diagonal_observable(g)
    best = None
    for n in compositions(s, g.d):
        orderings = list(iter_orbit_sequences(n))
        value = sum(
            obs.value(sequence_to_counts(seq[: g.degree], g.d)) for seq in orderings
        ) / len(orderings)
        best = value if best is None else min(best, value)
    return best


def test_criterion_1_pair_bound_by_all_three_methods():
    start = time.perf_counter()
    oracle = oracle_bound(WITNESS, 2)
    lp = lower_bound_lp(WITNESS, 2)
    eigen = quantum_bound(WITNESS, 2)
    elapsed = time.perf_counter() - start
    assert abs(oracle.value - (-0.5)) <= 1e-9
    assert abs(eigen.value - (-0.5)) <= 1e-9
    assert abs(lp.value - (-0.5)) <= 1e-7
    assert elapsed < 1.0
    _report(1, f"v2 = -0.5 by oracle/lp/eigen in {elapsed:.3f}s")


def test_criterion_2_triple_bound_is_minus_one_sixth():
    start = time.perf_counter()
    # confirm the exact value by brute-force orbit enumeration first
    brute = brute_force_bound(WITNESS, 3)
    assert abs(brute - (-1.0 / 6.0)) <= 1e-12
    for result in (
        oracle_bound(WITNESS, 3),
        lower_bound_lp(WITNESS, 3),
        quantum_bound(WITNESS, 3),
    ):
        assert abs(result.value - (-1.0 / 6.0)) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"v3 = -1/6 confirmed by brute force and all methods in {elapsed:.3f}s")


def test_criterion_3_infinite_limit_is_zero():
    start = time.perf_counter()
    floor = simplex_minimum(WITNESS)
    elapsed = time.perf_counter() - start
    assert abs(floor) <= 1e-6
    assert elapsed < 5.0
    _report(3, f"v_infinity = {floor:.2e} in {elapsed:.2f}s")


def test_criterion_4_monotone_convergence_curve():
    start = time.perf_counter()
    values = []
    for s in range(2, 13):
        v_oracle = oracle_bound(WITNESS, s).value
        v_eigen = quantum_bound(WITNESS, s).value
        assert abs(v_oracle - v_eigen) <= 1e-9
        values.append(v_oracle)
    elapsed = time.perf_counter() - start
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert all(v < 0.0 for v in values)
    assert values[-1] >= -0.06
    assert elapsed < 60.0
    _report(
        4,
        f"v_2..v_12 non-decreasing, negative, v_12 = {values[-1]:.4f} >= -0.06 "
        f"in {elapsed:.1f}s",
    )


def test_criterion_5_coin_demo_matrix_and_witness():
    start = time.perf_counter()
    coin = from_sequence_probs({(0, 1): 0.5, (1, 0): 0.5}, 2, 2)
    rho = rho_from_exchangeable(coin)
    dense = rho.dense()
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(dense.real, expected)
    assert np.array_equal(dense.imag, np.zeros((4, 4)))
    value = witness_value(np.diag([1.0, -0.5, -0.5, 1.0]).astype(complex), rho)
    assert abs(value - (-0.5)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(5, f"rho entry-exact, Tr(D rho) = {value} in {elapsed:.3f}s")


def test_criterion_6_three_method_agreement_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        from finex.polynomial import SimplexPolynomial

        g = SimplexPolynomial(
            d, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
        )
        for s in range(2, 6):
            values = [
                oracle_bound(g, s).value,
                lower_bound_lp(g, s).value,
                quantum_bound(g, s).value,
            ]
            worst = max(worst, max(values) - min(values))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-7
    assert elapsed < 30.0
    _report(6, f"50 observables, s=2..5: max discrepancy {worst:.2e} in {elapsed:.1f}s")


def test_criterion_7_structural_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)

    for d in (2, 3):
        for s in (2, 3, 4):
            pi = symmetrizer(s, d)
            assert np.abs(pi @ pi - pi).max() <= 1e-12
            assert np.abs(pi - pi.conj().T).max() <= 1e-12
            for _ in range(10):
                perm = tuple(int(v) for v in rng.permutation(s))
                p = permutation_matrix(perm, d)
                assert np.abs(pi @ p - pi).max() <= 1e-12
                assert np.abs(p @ pi - pi).max() <= 1e-12

    for d in (2, 3):
        for s in range(1, 6):
            v = OccupationBasis(d, s).dense_isometry()
            assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-12

    # index symmetries of random boson states: either index block of the
    # dense matrix may be permuted independently of the other
    for d, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        basis = OccupationBasis(d, s)
        z = rng.normal(size=(basis.dimension, basis.dimension)) + 1j * rng.normal(
            size=(basis.dimension, basis.dimension)
        )
        m = z @ z.conj().T
        m /= np.trace(m).real
        dense = BosonDensityMatrix(basis, m).dense()
        for _ in range(5):
            perm = tuple(int(v) for v in rng.permutation(s))
            p = permutation_matrix(perm, d)
            assert np.abs(p @ dense - dense).max() <= 1e-10
            assert np.abs(dense @ p.T - dense).max() <= 1e-10
            assert np.abs(p @ dense @ p.T - dense).max() <= 1e-10

    cone_lp = assemble(WITNESS, 2)
    assert len(cone_lp.rows) == len(cone_lp.b) == 21
    assert "rows=21  columns=22" in dump(cone_lp)

    elapsed = time.perf_counter() - start
    _report(7, f"projector, orthonormality, index symmetry, 21 rows in {elapsed:.1f}s")


def test_criterion_8_pair_distribution_certified_non_extendable():
    start = time.perf_counter()
    probs = {}
    for i in range(6):
        for j in range(6):
            probs[(i, j)] = 0.0 if i == j else 1.0 / 30.0
    dist = from_sequence_probs(probs, 6, 2)  # validates exchangeability
    witness = sum_of_squares(6)
    rho = rho_from_exchangeable(dist)
    value = witness_value(to_diagonal_observable(witness), rho)
    assert abs(value) <= 1e-12

    floor = simplex_minimum(witness)
    barycenter = evaluate(witness, [1.0 / 6.0] * 6)
    assert abs(barycenter - 1.0 / 6.0) <= 1e-15  # analytic confirmation
    assert abs(floor - 1.0 / 6.0) <= 1e-6
    assert value < floor - 0.1  # the witness separates the state
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        8,
        f"expectation 0 < product minimum {floor:.6f}: not infinitely "
        f"extendable, in {elapsed:.2f}s",
    )
