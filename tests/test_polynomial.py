"""Simplex polynomials: lifting, reduction, evaluation, observables, JSON."""

from itertools import product

import numpy as np
import pytest

from finex.errors import DomainError
from finex.multiindex import compositions, sequence_to_counts
from finex.polynomial import (
    DiagonalObservable,
    SimplexPolynomial,
    constant,
    evaluate,
    from_json,
    gradient,
    homogenize,
    monomial,
    two_face_witness,
    reduce_to_free_vars,
    sum_of_squares,
    to_diagonal_observable,
    to_json,
)


def random_polynomial(rng, d, deg):
    terms = {n: rng.uniform(-1, 1) for n in compositions(deg, d)}
    return SimplexPolynomial(d, deg, terms)


def random_simplex_point(rng, d):
    return rng.dirichlet(np.ones(d))


def resubstitute(reduced, theta):
    """Evaluate a reduced (d-1)-variable expansion at a full simplex point."""
    free = theta[:-1]
    total = 0.0
    for e, c in reduced.items():
        term = c
        for t, p in zip(free, e):
            term *= t**p
        total += term
    return total


class TestHomogenize:
    def test_lift_theta1_squared_to_degree_three(self):
        g = monomial((2, 0, 0, 0, 0, 0))
        lifted = homogenize(g, 3)
        expected = {}
        for j in range(6):
            n = [2 if i == 0 else 0 for i in range(6)]
            n[j] += 1
            expected[tuple(n)] = pytest.approx(1.0)
        assert lifted.terms == expected

    def test_lift_to_own_degree_is_identity(self):
        g = two_face_witness()
        assert homogenize(g, 2) == g

    def test_lift_constant_to_degree_two(self):
        g = constant(1.0, 2)
        lifted = homogenize(g, 2)
        assert lifted.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}

    def test_lower_degree_rejected(self):
        with pytest.raises(DomainError):
            homogenize(two_face_witness(), 1)

    def test_overflow_names_the_length_not_a_term(self):
        g = SimplexPolynomial(3, 2, {(2, 0, 0): 1e308, (1, 1, 0): -1e308})
        with pytest.raises(DomainError, match=r"s=4 overflows") as info:
            homogenize(g, 4)
        assert "(" not in str(info.value)

    def test_commutes_with_evaluation_on_simplex(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            deg = int(rng.integers(0, 5))
            g = random_polynomial(rng, d, deg)
            s = deg + int(rng.integers(0, 4))
            theta = random_simplex_point(rng, d)
            assert evaluate(homogenize(g, s), theta) == pytest.approx(
                evaluate(g, theta), abs=1e-12
            )


class TestEvaluate:
    def test_corner(self):
        g = two_face_witness()
        assert evaluate(g, [1, 0, 0, 0, 0, 0]) == 1.0

    def test_half_half(self):
        g = two_face_witness()
        assert evaluate(g, [0.5, 0.5, 0, 0, 0, 0]) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            evaluate(two_face_witness(), [0.5, 0.5])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            d = int(rng.integers(2, 5))
            g = random_polynomial(rng, d, int(rng.integers(1, 4)))
            x = rng.uniform(0.1, 0.9, size=d)
            grad = gradient(g, x)
            for i in range(d):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                numeric = (evaluate(g, xp) - evaluate(g, xm)) / (2 * h)
                assert grad[i] == pytest.approx(numeric, abs=1e-5)


class TestReduceToFreeVars:
    def test_last_variable_alone(self):
        g = monomial((0, 1))  # theta_2 in d=2
        assert reduce_to_free_vars(g) == {(0,): 1.0, (1,): -1.0}

    def test_theta1_theta6(self):
        g = monomial((1, 0, 0, 0, 0, 1))
        reduced = reduce_to_free_vars(g)
        expected = {(1, 0, 0, 0, 0): 1.0}
        for i in range(5):
            e = [0, 0, 0, 0, 0]
            e[i] += 1
            e[0] += 1
            expected[tuple(e)] = expected.get(tuple(e), 0.0) - 1.0
        assert reduced == {e: pytest.approx(c) for e, c in expected.items()}

    def test_constant_term_of_last_square(self):
        # (1 - theta_1 - ... - theta_5)^2 has constant coefficient 1
        g = monomial((0, 0, 0, 0, 0, 2))
        reduced = reduce_to_free_vars(g)
        assert reduced[(0, 0, 0, 0, 0)] == pytest.approx(1.0)

    def test_resubstitution_recovers_values(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            g = random_polynomial(rng, d, int(rng.integers(1, 5)))
            reduced = reduce_to_free_vars(g)
            theta = random_simplex_point(rng, d)
            assert resubstitute(reduced, theta) == pytest.approx(
                evaluate(g, theta), abs=1e-12
            )


class TestDiagonalObservable:
    def test_two_face_witness_entries(self):
        obs = to_diagonal_observable(two_face_witness())
        assert obs.value((2, 0, 0, 0, 0, 0)) == 1.0
        assert obs.value((1, 1, 0, 0, 0, 0)) == -0.5
        assert obs.value((0, 2, 0, 0, 0, 0)) == 1.0
        assert obs.value((0, 0, 1, 1, 0, 0)) == 0.0

    def test_sum_of_squares_entries(self):
        obs = to_diagonal_observable(sum_of_squares(2))
        assert obs.value((2, 0)) == 1.0
        assert obs.value((0, 2)) == 1.0
        assert obs.value((1, 1)) == 0.0

    def test_normalization_polynomial_uniform_expectation(self):
        # expectation of the lifted constant 1 under the uniform distribution,
        # summed directly over all sequences, must be exactly 1
        for d, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            obs = to_diagonal_observable(homogenize(constant(1.0, d), r))
            if r == 2:
                assert obs.value((1, 1) + (0,) * (d - 2)) == pytest.approx(1.0)
            total = sum(
                obs.value(sequence_to_counts(seq, d)) for seq in product(range(d), repeat=r)
            )
            assert total * d**-r == pytest.approx(1.0, abs=1e-12)

    def test_expectation_against_sequence_sum(self):
        # sum over sequences of entry * theta^counts * 1 equals the polynomial
        rng = np.random.default_rng(7)
        for _ in range(10):
            d, deg = 3, 2
            g = random_polynomial(rng, d, deg)
            obs = to_diagonal_observable(g)
            theta = random_simplex_point(rng, d)
            total = 0.0
            for seq in product(range(d), repeat=deg):
                n = sequence_to_counts(seq, d)
                total += obs.value(n) * float(np.prod(theta**np.array(n)))
            assert total == pytest.approx(evaluate(g, theta), abs=1e-12)

    def test_expectation_against_random_exchangeable(self):
        # summing entry * per-sequence probability over every sequence must
        # reproduce the polynomial expectation for any exchangeable P
        from finex.exchangeable import ExchangeableDistribution, expectation

        rng = np.random.default_rng(19)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            r = int(rng.integers(2, 4))
            comps = compositions(r, d)
            raw = rng.uniform(0, 1, len(comps))
            raw /= raw.sum()
            dist = ExchangeableDistribution(d, r, dict(zip(comps, raw)))
            g = random_polynomial(rng, d, r)
            obs = to_diagonal_observable(g)
            total = sum(
                obs.value(sequence_to_counts(seq, d)) * dist.sequence_probability(seq)
                for seq in product(range(d), repeat=r)
            )
            assert total == pytest.approx(expectation(dist, g), abs=1e-12)

    def test_rejects_wrong_degree_entries(self):
        with pytest.raises(DomainError):
            DiagonalObservable(2, 2, {(1, 0): 1.0})


class TestJson:
    def test_roundtrip(self):
        g = two_face_witness()
        assert from_json(to_json(g)) == g

    def test_rejects_non_homogeneous(self):
        text = '{"d": 2, "terms": [{"counts": [2, 0], "coeff": 1.0}, {"counts": [1, 0], "coeff": 1.0}]}'
        with pytest.raises(DomainError, match=r"\[1, 0\]"):
            from_json(text)

    def test_rejects_bad_counts_length(self):
        text = '{"d": 3, "terms": [{"counts": [2, 0], "coeff": 1.0}]}'
        with pytest.raises(DomainError):
            from_json(text)

    def test_rejects_malformed(self):
        with pytest.raises(DomainError):
            from_json("{not json")
        with pytest.raises(DomainError):
            from_json('{"terms": []}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"d": 2, "terms": [{"counts": [2, 0], "coeff": "abc"}]}',
            '{"d": 2, "terms": [{"counts": [2, 0], "coeff": null}]}',
            '{"d": 2, "terms": [{"counts": [2, 0], "coeff": true}]}',
            '{"d": 2, "terms": [{"counts": [2, 0], "coeff": "1.5"}]}',
            '{"d": 2, "terms": [{"counts": [2, 0], "coeff": 1%s}]}' % ("0" * 400),
            '{"d": 2, "terms": {"counts": [2, 0], "coeff": 1.0}}',
            '{"d": 2, "terms": [{"counts": [true, true], "coeff": 1.0}]}',
            '{"d": true, "terms": [{"counts": [2], "coeff": 1.0}]}',
        ],
    )
    def test_rejects_non_numbers_as_domain_errors(self, text):
        with pytest.raises(DomainError):
            from_json(text)


class TestConstruction:
    def test_rejects_mixed_degree(self):
        with pytest.raises(DomainError):
            SimplexPolynomial(2, 2, {(2, 0): 1.0, (1, 0): 1.0})

    def test_prunes_tiny_coefficients(self):
        g = SimplexPolynomial(2, 2, {(2, 0): 1.0, (1, 1): 1e-16})
        assert (1, 1) not in g.terms

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coefficients(self, bad):
        # a NaN is not pruned and an infinity is not accepted: both raise
        with pytest.raises(DomainError, match="non-finite"):
            SimplexPolynomial(2, 2, {(2, 0): 1.0, (1, 1): bad})

    def test_json_nan_coefficient_is_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            from_json('{"d": 2, "terms": [{"counts": [2, 0], "coeff": NaN}]}')

    def test_zero_polynomial(self):
        g = SimplexPolynomial(3, 2, {})
        assert g.terms == {}
        assert evaluate(g, [0.2, 0.3, 0.5]) == 0.0
