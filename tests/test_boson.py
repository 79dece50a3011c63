"""Symmetric subspace machinery against literal dense tensor algebra."""

import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from finex.boson import (
    BosonDensityMatrix,
    _falling_factorials,
    OccupationBasis,
    compress,
    compress_hermitian,
    occupation_diagonal,
    permutation_matrix,
    quantum_bound,
    rho_from_exchangeable,
    simplex_minimum,
    symmetrizer,
    witness_value,
)
from finex.errors import CapacityError, DomainError
from finex.exchangeable import (
    from_sequence_probs,
    marginalize,
    oracle_bound,
    urn_distribution,
)
from finex.multiindex import (
    compositions,
    orbit_size,
    sequence_to_counts,
    sequences,
)
from finex.polynomial import (
    SimplexPolynomial,
    constant,
    homogenize,
    monomial,
    two_face_witness,
    sum_of_squares,
    to_diagonal_observable,
)


def compose_permutations(pi, sigma):
    """The permutation whose matrix is permutation_matrix(pi) @ permutation_matrix(sigma)."""
    return tuple(sigma[pi[i]] for i in range(len(pi)))


def symmetrizer_from_permutations(s, d):
    """Literal (1/s!) sum over all s! permutation matrices."""
    perms = list(permutations(range(s)))
    return sum(permutation_matrix(perm, d) for perm in perms) / len(perms)


def sequence_index(seq, d):
    """Row-major position of a sequence in the d**s tensor basis."""
    return int(np.ravel_multi_index(seq, (d,) * len(seq)))


def dense_diagonal_observable(obs):
    """Literal d**s diagonal matrix, one entry per sequence."""
    entries = [
        obs.value(sequence_to_counts(seq, obs.d)) for seq in sequences(obs.s, obs.d)
    ]
    return np.diag(np.array(entries, dtype=complex))


def random_boson_state(rng, d, s):
    basis = OccupationBasis(d, s)
    z = rng.normal(size=(basis.dimension, basis.dimension)) + 1j * rng.normal(
        size=(basis.dimension, basis.dimension)
    )
    m = z @ z.conj().T
    m /= np.trace(m).real
    return BosonDensityMatrix(basis, m)


class TestSymmetrizer:
    def test_single_particle_is_identity(self):
        for d in (2, 3, 5):
            np.testing.assert_array_equal(symmetrizer(1, d), np.eye(d))

    def test_two_qubits(self):
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(symmetrizer(2, 2), expected)

    def test_matches_permutation_average(self):
        for s, d in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            np.testing.assert_allclose(
                symmetrizer(s, d), symmetrizer_from_permutations(s, d), atol=1e-13
            )

    def test_projector_properties(self):
        for d in (2, 3):
            for s in (2, 3, 4):
                pi = symmetrizer(s, d)
                assert np.abs(pi @ pi - pi).max() <= 1e-12
                assert np.abs(pi - pi.T).max() <= 1e-12

    def test_fixes_product_states(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            s = int(rng.integers(2, 5))
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            x /= np.linalg.norm(x)
            product = x
            for _ in range(s - 1):
                product = np.kron(product, x)
            np.testing.assert_allclose(
                symmetrizer(s, d) @ product, product, atol=1e-12
            )

    def test_absorbs_permutations(self):
        rng = np.random.default_rng(33)
        for d, s in [(2, 3), (3, 3), (2, 4)]:
            pi = symmetrizer(s, d)
            for _ in range(10):
                perm = tuple(int(v) for v in rng.permutation(s))
                p = permutation_matrix(perm, d)
                assert np.abs(pi @ p - pi).max() <= 1e-12
                assert np.abs(p @ pi - pi).max() <= 1e-12

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            symmetrizer(7, 6)  # 6**7 way past the dense cap


class TestPermutationMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(
            permutation_matrix((0, 1, 2), 2), np.eye(8)
        )

    def test_swap(self):
        swap = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(permutation_matrix((1, 0), 2), swap)

    def test_relabels_tensor_factors(self):
        perm = (2, 0, 1)
        p = permutation_matrix(perm, 3)
        for seq in sequences(3, 3):
            e = np.zeros(27)
            e[sequence_index(seq, 3)] = 1.0
            permuted = tuple(seq[perm[i]] for i in range(3))
            assert p @ e @ np.eye(27)[sequence_index(permuted, 3)] == 1.0

    def test_group_homomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pi = tuple(int(v) for v in rng.permutation(3))
            sigma = tuple(int(v) for v in rng.permutation(3))
            lhs = permutation_matrix(pi, 2) @ permutation_matrix(sigma, 2)
            rhs = permutation_matrix(compose_permutations(pi, sigma), 2)
            np.testing.assert_array_equal(lhs, rhs)

    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            permutation_matrix((0, 0), 2)


class TestOccupationBasis:
    def test_isometry_columns_orthonormal(self):
        for d in (2, 3):
            for s in range(1, 6):
                v = OccupationBasis(d, s).dense_isometry()
                gram = v.T @ v
                assert np.abs(gram - np.eye(v.shape[1])).max() <= 1e-12

    def test_dimension(self):
        assert OccupationBasis(6, 2).dimension == 21
        assert OccupationBasis(6, 5).dimension == 252

    @pytest.mark.parametrize("n", [(5, 0), (2, 0), (0, 0, 9), (1, 0, 0), (1, 1, 0, 0), (3, -1, 0)])
    def test_index_rejects_wrong_shape(self, n):
        with pytest.raises(DomainError):
            OccupationBasis(3, 2).index(n)

    def test_isometry_spans_symmetrizer_range(self):
        for d, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            v = OccupationBasis(d, s).dense_isometry()
            np.testing.assert_allclose(v @ v.T, symmetrizer(s, d), atol=1e-12)


class TestCompress:
    def test_two_coin_witness(self):
        obs = to_diagonal_observable(two_face_witness(2))
        compressed = compress(obs)
        np.testing.assert_allclose(
            compressed, np.diag([1.0, -0.5, 1.0]).astype(complex), atol=1e-15
        )
        # against explicit dense V^H D V
        v = OccupationBasis(2, 2).dense_isometry()
        dense = dense_diagonal_observable(obs)
        np.testing.assert_allclose(compressed, v.T @ dense @ v, atol=1e-13)

    def test_unit_observable_compresses_to_identity(self):
        obs = to_diagonal_observable(homogenize(constant(1.0, 3), 3))
        np.testing.assert_allclose(compress(obs), np.eye(10), atol=1e-13)

    def test_six_face_witness_observable(self):
        obs = to_diagonal_observable(two_face_witness())
        compressed = compress(obs)
        assert compressed.shape == (21, 21)
        basis = OccupationBasis(6, 2)
        k = basis.index((1, 1, 0, 0, 0, 0))
        assert compressed[k, k] == pytest.approx(-0.5)
        v = basis.dense_isometry()
        dense = dense_diagonal_observable(obs)
        np.testing.assert_allclose(compressed, v.T @ dense @ v, atol=1e-13)

    def test_compress_matches_dense_on_random_observables(self):
        rng = np.random.default_rng(6)
        for d, s in [(2, 2), (2, 4), (3, 2), (3, 3)]:
            terms = {n: float(rng.uniform(-1, 1)) for n in compositions(s, d)}
            obs = to_diagonal_observable(SimplexPolynomial(d, s, terms))
            v = OccupationBasis(d, s).dense_isometry()
            np.testing.assert_allclose(
                compress(obs), v.T @ dense_diagonal_observable(obs) @ v, atol=1e-12
            )


class TestCompressHermitian:
    def test_symmetrizer_compresses_to_identity(self):
        np.testing.assert_allclose(
            compress_hermitian(symmetrizer(2, 3), 2, 3), np.eye(6), atol=1e-12
        )

    def test_identity_compresses_to_identity(self):
        np.testing.assert_allclose(
            compress_hermitian(np.eye(9), 2, 3), np.eye(6), atol=1e-13
        )

    def test_coin_witness_matrix(self):
        d_matrix = np.diag([1.0, -0.5, -0.5, 1.0]).astype(complex)
        np.testing.assert_allclose(
            compress_hermitian(d_matrix, 2, 2),
            np.diag([1.0, -0.5, 1.0]),
            atol=1e-13,
        )

    def test_rejects_non_hermitian(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(DomainError):
            compress_hermitian(bad, 2, 2)


class TestQuantumBound:
    def test_six_face_pair(self):
        result = quantum_bound(two_face_witness(), 2)
        assert result.value == pytest.approx(-0.5, abs=1e-12)
        assert result.method == "boson"
        assert result.argmin == (1, 1, 0, 0, 0, 0)

    def test_six_face_triple(self):
        assert quantum_bound(two_face_witness(), 3).value == pytest.approx(
            -1.0 / 6.0, abs=1e-12
        )

    def test_normalization_polynomial(self):
        g = homogenize(constant(1.0, 3), 2)
        result = quantum_bound(g, 2)
        assert result.value == pytest.approx(1.0)
        diag = occupation_diagonal(to_diagonal_observable(homogenize(g, 2)))
        assert diag.max() == pytest.approx(1.0)

    def test_matches_oracle_everywhere(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            g = SimplexPolynomial(
                d, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
            )
            for s in range(2, 6):
                assert quantum_bound(g, s).value == pytest.approx(
                    oracle_bound(g, s).value, abs=1e-12
                )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_falling_factorials_are_the_lifted_urn_values_exactly(self, d):
        # <n| a^dagger^m a^m |n> / s^(k falling) against the coefficient of
        # theta^n in theta^m (sum theta)^(s-k), over orbit_size(n), in exact rationals
        for k in range(4):
            for s in range(k, 7):
                table = _falling_factorials(k, s)
                assert all(
                    table[j, x] == math.perm(x, j) for j in range(k + 1) for x in range(s + 1)
                )
                for m in compositions(k, d):
                    for n in compositions(s, d):
                        falling = math.prod(math.perm(ni, mi) for ni, mi in zip(n, m))
                        rest = tuple(ni - mi for ni, mi in zip(n, m))
                        lifted = orbit_size(rest) if min(rest) >= 0 else 0
                        assert Fraction(falling, math.perm(s, k)) == Fraction(
                            lifted, orbit_size(n)
                        )

    def test_does_not_lift(self, monkeypatch):
        import finex.boson

        def refuse(g, s):
            raise AssertionError("the boson route lifted")

        monkeypatch.setattr(finex.boson, "homogenize", refuse)
        g = SimplexPolynomial(3, 2, {(2, 0, 0): 1.0, (1, 1, 0): -1.0, (0, 2, 0): 1.0})
        assert quantum_bound(g, 5).value == pytest.approx(oracle_bound(g, 5).value, abs=1e-15)

    def test_empty_observable_reads_zero(self):
        result = quantum_bound(SimplexPolynomial(3, 2, {}), 4)
        assert result.value == 0.0
        assert result.argmin == (4, 0, 0)

    def test_constant_observable_reads_its_value_on_every_urn(self):
        result = quantum_bound(constant(-2.5, 3), 5)
        assert result.value == -2.5
        assert result.argmin == (5, 0, 0)
        assert quantum_bound(constant(-2.5, 3), 0).value == -2.5

    def test_one_outcome(self):
        assert quantum_bound(SimplexPolynomial(1, 2, {(2,): 3.0}), 7).value == 3.0

    def test_falling_factorials_past_the_float_range(self):
        # 200!/50! passes 1e308, so the table is scaled by 200 per factor
        g = SimplexPolynomial(2, 150, {(150, 0): 1.0, (75, 75): -2.0})
        value = quantum_bound(g, 200).value
        assert np.isfinite(value)
        assert value == pytest.approx(oracle_bound(g, 200).value, rel=1e-12)

    def test_certificate_is_ground_eigenvector(self):
        result = quantum_bound(two_face_witness(), 2)
        diag = occupation_diagonal(
            to_diagonal_observable(homogenize(two_face_witness(), 2))
        )
        vec = result.certificate
        assert np.linalg.norm(np.diag(diag) @ vec - result.value * vec) <= 1e-12


class TestRhoFromExchangeable:
    def test_coin_matrix(self):
        dist = from_sequence_probs({(0, 1): 0.5, (1, 0): 0.5}, 2, 2)
        rho = rho_from_exchangeable(dist)
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(rho.dense(), expected, atol=1e-15)

    def test_double_heads(self):
        rho = rho_from_exchangeable(urn_distribution((2, 0)))
        dense = rho.dense()
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(dense, expected, atol=1e-15)

    def test_dense_diagonal_is_sequence_probabilities(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            s = int(rng.integers(2, 4))
            comps = compositions(s, d)
            raw = rng.uniform(0.0, 1.0, len(comps))
            raw /= raw.sum()
            dist_probs = dict(zip(comps, raw))
            from finex.exchangeable import ExchangeableDistribution

            dist = ExchangeableDistribution(d, s, dist_probs)
            dense = rho_from_exchangeable(dist).dense()
            for i, seq in enumerate(sequences(s, d)):
                assert dense[i, i].real == pytest.approx(
                    dist.sequence_probability(seq), abs=1e-12
                )

    def test_symmetrizer_invariance(self):
        dist = marginalize(urn_distribution((2, 1, 1)), 3)
        dense = rho_from_exchangeable(dist).dense()
        pi = symmetrizer(3, 3)
        np.testing.assert_allclose(pi @ dense @ pi, dense, atol=1e-10)


class TestBosonDensityMatrix:
    def test_validation(self):
        basis = OccupationBasis(2, 2)
        with pytest.raises(DomainError):
            BosonDensityMatrix(basis, np.eye(3, dtype=complex))  # trace 3
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(DomainError):
            BosonDensityMatrix(basis, bad)  # negative eigenvalue

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        basis = OccupationBasis(2, 2)
        for i, j in [(0, 0), (0, 1)]:
            m = np.diag([1.0, 0.0, 0.0]).astype(complex)
            m[i, j] = m[j, i] = bad
            with pytest.raises(DomainError, match="finite"):
                BosonDensityMatrix(basis, m)

    def test_block_permutation_symmetry(self):
        # dense entries depend only on the orbits of the row and column
        # sequences, so either index may be permuted independently
        rng = np.random.default_rng(15)
        for d, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            rho = random_boson_state(rng, d, s).dense()
            for _ in range(5):
                perm = tuple(int(v) for v in rng.permutation(s))
                p = permutation_matrix(perm, d)
                np.testing.assert_allclose(p @ rho, rho, atol=1e-10)
                np.testing.assert_allclose(rho @ p.T, rho, atol=1e-10)
                np.testing.assert_allclose(p @ rho @ p.T, rho, atol=1e-10)


class TestWitnessValue:
    def test_coin_witness_fires(self):
        dist = from_sequence_probs({(0, 1): 0.5, (1, 0): 0.5}, 2, 2)
        rho = rho_from_exchangeable(dist)
        d_matrix = np.diag([1.0, -0.5, -0.5, 1.0]).astype(complex)
        assert witness_value(d_matrix, rho) == pytest.approx(-0.5, abs=1e-12)
        obs = to_diagonal_observable(two_face_witness(2))
        assert witness_value(obs, rho) == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_stays_positive(self):
        rho = rho_from_exchangeable(urn_distribution((2, 0)))
        d_matrix = np.diag([1.0, -0.5, -0.5, 1.0]).astype(complex)
        assert witness_value(d_matrix, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pair_distribution_beats_product_minimum(self):
        probs = {}
        for i in range(6):
            for j in range(6):
                probs[(i, j)] = 0.0 if i == j else 1.0 / 30.0
        rho = rho_from_exchangeable(from_sequence_probs(probs, 6, 2))
        obs = to_diagonal_observable(sum_of_squares(6))
        value = witness_value(obs, rho)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert value < simplex_minimum(sum_of_squares(6)) - 0.1

    def test_dimension_mismatch(self):
        rho = rho_from_exchangeable(urn_distribution((2, 0)))
        obs = to_diagonal_observable(two_face_witness(3))
        with pytest.raises(DomainError):
            witness_value(obs, rho)


class TestDensityMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(61)
        rho = random_boson_state(rng, 3, 2)
        from finex.boson import from_json, to_json

        back = from_json(to_json(rho))
        assert back.basis.elements == rho.basis.elements
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_rejects_wrong_shape_and_order(self):
        from finex.boson import from_json, to_json

        with pytest.raises(DomainError):
            from_json('{"d": 2, "s": 2, "matrix": [[[1.0, 0.0]]]}')
        rho = rho_from_exchangeable(urn_distribution((1, 1)))
        doc = to_json(rho).replace("[2, 0]", "[9, 9]", 1)
        with pytest.raises(DomainError):
            from_json(doc)

    def test_rejects_non_state(self):
        from finex.boson import from_json

        # trace 2 is not a density matrix
        text = (
            '{"d": 2, "s": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]],'
            ' [[0.0, 0.0], [1.0, 0.0]]]}'
        )
        with pytest.raises(DomainError):
            from_json(text)


    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_entry(self, bad):
        from finex.boson import from_json

        text = (
            '{"d": 2, "s": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]],'
            ' [[0.0, 0.0], [%s, 0.0]]]}' % bad
        )
        with pytest.raises(DomainError, match="finite"):
            from_json(text)

    @pytest.mark.parametrize(
        "change",
        [
            {"matrix": [[[1.0, 0.0], [0]], [[0.0, 0.0], [0.0, 0.0]]]},
            {"matrix": [[[1.0, 0.0], "x"], [[0.0, 0.0], [0.0, 0.0]]]},
            {"matrix": 5},
            {"matrix": [[[1.0, None], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            {"d": "2"},
            {"basis": 7},
            {"d": 10**7, "s": 10**7},
        ],
        ids=[
            "short-entry",
            "string-entry",
            "scalar-matrix",
            "null-part",
            "string-d",
            "scalar-basis",
            "huge-d-and-s",
        ],
    )
    def test_rejects_malformed_document(self, change):
        from finex.boson import from_json

        doc = {
            "d": 2,
            "s": 1,
            "basis": [[1, 0], [0, 1]],
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        from_json(json.dumps(doc))  # the unchanged document is a valid state
        doc.update(change)
        with pytest.raises(DomainError):
            from_json(json.dumps(doc))


class TestSimplexMinimum:
    def test_two_face_witness_is_nonnegative_with_zero_infimum(self):
        assert simplex_minimum(two_face_witness()) == pytest.approx(0.0, abs=1e-9)

    def test_sum_of_squares(self):
        assert simplex_minimum(sum_of_squares(6)) == pytest.approx(
            1.0 / 6.0, abs=1e-9
        )

    def test_linear_corner(self):
        assert simplex_minimum(monomial((1, 0))) == pytest.approx(0.0, abs=1e-12)

    def test_random_quadratics_match_fine_grid(self):
        rng = np.random.default_rng(44)
        grid = np.linspace(0.0, 1.0, 20001)
        for _ in range(5):
            terms = {n: float(rng.uniform(-1, 1)) for n in compositions(2, 2)}
            g = SimplexPolynomial(2, 2, terms)
            values = (
                terms[(2, 0)] * grid**2
                + terms[(1, 1)] * grid * (1 - grid)
                + terms[(0, 2)] * (1 - grid) ** 2
            )
            assert simplex_minimum(g) == pytest.approx(
                float(values.min()), abs=1e-6
            )
