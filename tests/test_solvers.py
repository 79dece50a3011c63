"""Simplex and Jacobi kernels against independent oracles.

LP oracle: exhaustive basic-feasible-solution enumeration (exact for
bounded feasible problems).  Eigensolver oracle: numpy.linalg.eigvalsh
plus algebraic identities (trace, Rayleigh quotients, reconstruction).
"""

import itertools

import numpy as np
import pytest

from finex.errors import DomainError
from finex.solvers import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    jacobi_eigen,
    require_hermitian,
    simplex_solve,
)


def vertex_enumeration_max(a, b, c):
    """Best objective over all basic feasible solutions (x >= 0 columns only)."""
    m, n = a.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = a[:, list(cols)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        xb = np.linalg.solve(sub, b)
        if np.all(xb >= -1e-9):
            value = float(c[list(cols)] @ xb)
            if best is None or value > best:
                best = value
    return best


def random_bounded_lp(rng, m, n):
    """Random equality-form LP made bounded by pinning the coordinate sum."""
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.1, 1.0, size=n)
    a = np.vstack([a, np.ones(n)])
    b = a @ x0
    c = rng.normal(size=n)
    return LinearProgram(a, b, c, np.zeros(n, dtype=bool))


class TestSimplex:
    def test_single_bound(self):
        # max c subject to c + slack = 1
        lp = LinearProgram(
            np.array([[1.0, 1.0]]),
            np.array([1.0]),
            np.array([1.0, 0.0]),
            np.array([True, False]),
        )
        result = simplex_solve(lp)
        assert result.status == OPTIMAL
        assert result.optimum == pytest.approx(1.0, abs=1e-9)

    def test_free_variable_pinned_to_zero(self):
        # max c subject to -c = 0
        lp = LinearProgram(
            np.array([[-1.0]]), np.array([0.0]), np.array([1.0]), np.array([True])
        )
        result = simplex_solve(lp)
        assert result.status == OPTIMAL
        assert result.optimum == pytest.approx(0.0, abs=1e-12)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        solved = 0
        while solved < 20:
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m + 2, 11))
            lp = random_bounded_lp(rng, m, n)
            result = simplex_solve(lp)
            assert result.status == OPTIMAL
            oracle = vertex_enumeration_max(lp.a, lp.b, lp.objective)
            assert oracle is not None
            assert result.optimum == pytest.approx(oracle, abs=1e-8)
            solved += 1

    def test_certificates_on_large_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(3):
            lp = random_bounded_lp(rng, 49, 80)
            result = simplex_solve(lp)
            assert result.status == OPTIMAL
            assert result.residuals["primal"] <= 1e-8
            assert result.residuals["dual"] <= 1e-8
            assert result.residuals["complementary_slackness"] <= 1e-8
            # strong duality: b @ y equals the optimum
            assert float(lp.b @ result.dual) == pytest.approx(
                result.optimum, abs=1e-7
            )

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        lp = random_bounded_lp(rng, 4, 9)
        base = simplex_solve(lp).optimum
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(lp.a.shape[0])
            shuffled = LinearProgram(
                lp.a[perm], lp.b[perm], lp.objective, lp.free
            )
            assert simplex_solve(shuffled).optimum == pytest.approx(base, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(
            np.array([[1.0, 1.0]]),
            np.array([-1.0]),
            np.array([1.0, 0.0]),
            np.zeros(2, dtype=bool),
        )
        assert simplex_solve(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(
            np.array([[1.0, -1.0]]),
            np.array([0.0]),
            np.array([1.0, 0.0]),
            np.zeros(2, dtype=bool),
        )
        assert simplex_solve(lp).status == UNBOUNDED

    def test_redundant_rows(self):
        # second row duplicates the first; solver must drop it and still solve
        a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 0.0, 2.0]])
        b = np.array([1.0, 2.0, 0.5])
        c = np.array([1.0, 2.0, 3.0])
        result = simplex_solve(LinearProgram(a, b, c, np.zeros(3, dtype=bool)))
        assert result.status == OPTIMAL
        oracle = vertex_enumeration_max(a[[0, 2]], b[[0, 2]], c)
        assert result.optimum == pytest.approx(oracle, abs=1e-9)

    def test_beale_degenerate_instance(self):
        # classic cycling-prone instance (in standard form with slacks)
        a = np.array(
            [
                [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([0.75, -150.0, 1.0 / 50.0, -6.0, 0.0, 0.0, 0.0])
        result = simplex_solve(LinearProgram(a, b, c, np.zeros(7, dtype=bool)))
        assert result.status == OPTIMAL
        oracle = vertex_enumeration_max(a, b, c)
        assert result.optimum == pytest.approx(oracle, abs=1e-9)

    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            LinearProgram(
                np.eye(2), np.zeros(3), np.zeros(2), np.zeros(2, dtype=bool)
            )


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


class TestJacobi:
    def test_diagonal_input(self):
        decomp = jacobi_eigen(np.diag([1.0, -0.5, 1.0]))
        np.testing.assert_allclose(decomp.eigenvalues, [-0.5, 1.0, 1.0])

    def test_antisymmetric_imaginary(self):
        a = np.array([[0.0, 1j], [-1j, 0.0]])
        decomp = jacobi_eigen(a)
        np.testing.assert_allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 50)
        decomp = jacobi_eigen(a)
        assert decomp.eigenvalues.sum() == pytest.approx(
            float(np.trace(a).real), rel=1e-9
        )

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 7, 20, 50):
            a = random_hermitian(rng, n)
            decomp = jacobi_eigen(a)
            np.testing.assert_allclose(
                decomp.eigenvalues, np.linalg.eigvalsh(a), atol=1e-9 * max(n, 10)
            )

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 30)
        decomp = jacobi_eigen(a)
        q, lam = decomp.eigenvectors, decomp.eigenvalues
        norm = np.linalg.norm(a)
        assert np.linalg.norm(a - (q * lam) @ q.conj().T) <= 1e-9 * norm
        assert np.abs(q.conj().T @ q - np.eye(30)).max() <= 1e-10

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(rng, 25)
        decomp = jacobi_eigen(a)
        norm = np.linalg.norm(a)
        for k in range(25):
            v = decomp.eigenvectors[:, k]
            res = np.linalg.norm(a @ v - decomp.eigenvalues[k] * v)
            assert res <= 1e-9 * norm

    def test_permutation_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 12)
        base = jacobi_eigen(a).eigenvalues
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(12)
            p = np.eye(12)[perm]
            conjugated = p @ a @ p.T
            np.testing.assert_allclose(
                jacobi_eigen(conjugated).eigenvalues, base, atol=1e-9
            )

    def test_rayleigh_lower_bound(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, 15)
        smallest = jacobi_eigen(a).eigenvalues[0]
        for _ in range(100):
            x = rng.normal(size=15) + 1j * rng.normal(size=15)
            x /= np.linalg.norm(x)
            assert smallest <= float((x.conj() @ a @ x).real) + 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            jacobi_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            require_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a NaN fails every comparison, so it must be caught before them
        a = np.eye(3, dtype=complex)
        a[1, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            jacobi_eigen(a)
        a = np.eye(3, dtype=complex)
        a[0, 2] = a[2, 0] = complex(0.0, bad)
        with pytest.raises(DomainError, match="finite"):
            jacobi_eigen(a)

    def test_real_symmetric(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        np.testing.assert_allclose(
            jacobi_eigen(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-10
        )
