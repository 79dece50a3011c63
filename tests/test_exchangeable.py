"""Exchangeable distributions, urn extreme points, and the enumeration oracle.

The brute-force helpers here are the independent cross-checks: they work
purely by enumerating orderings of urn multisets, never through orbit
probabilities, lifting, or the hypergeometric marginal formula.
"""

import numpy as np
import pytest

from finex.errors import (
    DomainError,
    ExchangeabilityError,
    NormalizationError,
)
from finex.exchangeable import (
    ExchangeableDistribution,
    expectation,
    from_json,
    from_sequence_probs,
    marginalize,
    oracle_bound,
    sample,
    to_json,
    urn_distribution,
)
from finex.multiindex import (
    compositions,
    orbit_sequences,
    sequence_to_counts,
)
from finex.polynomial import (
    SimplexPolynomial,
    constant,
    homogenize,
    two_face_witness,
    to_diagonal_observable,
)


def brute_marginal_orbits(n, r):
    """Histogram of count vectors of the first r draws over all orderings of n."""
    d = len(n)
    orderings = orbit_sequences(n)
    out = {}
    for seq in orderings:
        m = sequence_to_counts(seq[:r], d)
        out[m] = out.get(m, 0.0) + 1.0 / len(orderings)
    return out


def brute_urn_expectation(n, g):
    """E[D(first r draws)] under the urn n, averaging over every ordering."""
    obs = to_diagonal_observable(g)
    orderings = orbit_sequences(n)
    return sum(
        obs.value(sequence_to_counts(seq[: g.degree], len(n))) for seq in orderings
    ) / len(orderings)


def brute_oracle(g, s):
    """Worst case over s-ball urns by full ordering enumeration."""
    return min(brute_urn_expectation(n, g) for n in compositions(s, g.d))


def psym_distribution():
    """Uniform over ordered pairs of distinct faces, zero on doubles (d=6)."""
    probs = {}
    for i in range(6):
        for j in range(6):
            probs[(i, j)] = 0.0 if i == j else 1.0 / 30.0
    return from_sequence_probs(probs, 6, 2)


class TestFromSequenceProbs:
    def test_black_white_urn(self):
        dist = from_sequence_probs({(0, 1): 0.5, (1, 0): 0.5}, 2, 2)
        assert dist.orbit_probs == {(1, 1): pytest.approx(1.0)}

    def test_psym_counterexample(self):
        dist = psym_distribution()
        assert len(dist.orbit_probs) == 15
        for n, p in dist.orbit_probs.items():
            assert sorted(n) == [0, 0, 0, 0, 1, 1]
            assert p == pytest.approx(1.0 / 15.0)

    def test_asymmetric_input_rejected(self):
        probs = {(0, 0): 0.5, (0, 1): 0.3, (1, 0): 0.2}
        with pytest.raises(ExchangeabilityError, match=r"\(0, 1\)|\(1, 0\)"):
            from_sequence_probs(probs, 2, 2)

    def test_partially_specified_orbit_rejected(self):
        # (1, 0) omitted means zero, conflicting with P(0, 1) = 0.5
        probs = {(0, 0): 0.5, (0, 1): 0.5}
        with pytest.raises(ExchangeabilityError):
            from_sequence_probs(probs, 2, 2)

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            from_sequence_probs({(0, 1): 1.5, (1, 0): -0.5}, 2, 2)

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            from_sequence_probs({(0, 1): 0.4, (1, 0): 0.4}, 2, 2)


class TestUrnDistribution:
    def test_one_black_one_white(self):
        dist = urn_distribution((1, 1))
        assert dist.sequence_probability((0, 1)) == pytest.approx(0.5)
        assert dist.sequence_probability((1, 0)) == pytest.approx(0.5)
        assert dist.sequence_probability((0, 0)) == 0.0
        assert dist.sequence_probability((1, 1)) == 0.0

    def test_two_same(self):
        dist = urn_distribution((2, 0))
        assert dist.sequence_probability((0, 0)) == pytest.approx(1.0)

    def test_three_distinct_faces(self):
        dist = urn_distribution((1, 1, 1, 0, 0, 0))
        for seq in orbit_sequences((1, 1, 1, 0, 0, 0)):
            assert dist.sequence_probability(seq) == pytest.approx(1.0 / 6.0)

    def test_empty_urn_rejected(self):
        with pytest.raises(DomainError):
            urn_distribution((0, 0))

    @pytest.mark.parametrize("n", [(1, 0), (2, 0, 0), (1, 1, 0), (3, 0), (3, -1), ()])
    def test_orbit_probability_rejects_wrong_shape(self, n):
        with pytest.raises(DomainError):
            urn_distribution((1, 1)).orbit_probability(n)

    @pytest.mark.parametrize("seq", [(0, 1, 1), (0,), (), (0, 2)])
    def test_sequence_probability_rejects_wrong_shape(self, seq):
        with pytest.raises(DomainError):
            urn_distribution((1, 1)).sequence_probability(seq)


class TestMarginalize:
    def test_three_faces_down_to_two(self):
        dist = marginalize(urn_distribution((1, 1, 1, 0, 0, 0)), 2)
        expected = brute_marginal_orbits((1, 1, 1, 0, 0, 0), 2)
        assert set(dist.orbit_probs) == set(expected)
        for m, p in expected.items():
            assert dist.orbit_probs[m] == pytest.approx(p, abs=1e-12)
            assert p == pytest.approx(1.0 / 3.0)

    def test_identity(self):
        dist = urn_distribution((2, 1))
        assert marginalize(dist, 3) is dist

    def test_two_heads_one_tail(self):
        dist = marginalize(urn_distribution((2, 1)), 2)
        assert dist.orbit_probs[(2, 0)] == pytest.approx(1.0 / 3.0)
        assert dist.orbit_probs[(1, 1)] == pytest.approx(2.0 / 3.0)

    def test_above_length_rejected(self):
        with pytest.raises(DomainError):
            marginalize(urn_distribution((1, 1)), 3)

    def test_matches_brute_force_enumeration(self):
        # every urn with degree <= 5 over up to 3 colours, every shorter length
        for d in (2, 3):
            for s in range(1, 6):
                for n in compositions(s, d):
                    for r in range(1, s + 1):
                        got = marginalize(urn_distribution(n), r).orbit_probs
                        expected = brute_marginal_orbits(n, r)
                        assert set(got) == {m for m, p in expected.items() if p > 0}
                        for m, p in expected.items():
                            assert got.get(m, 0.0) == pytest.approx(p, abs=1e-12)

    def test_composes_with_itself(self):
        dist = urn_distribution((2, 2, 1))
        one_step = marginalize(dist, 2)
        two_step = marginalize(marginalize(dist, 3), 2)
        for m in compositions(2, 3):
            assert one_step.orbit_probability(m) == pytest.approx(
                two_step.orbit_probability(m), abs=1e-12
            )


class TestExpectation:
    def test_two_face_witness_worst_pair(self):
        g = two_face_witness()
        assert expectation(urn_distribution((1, 1, 0, 0, 0, 0)), g) == pytest.approx(-0.5)

    def test_normalization_polynomial(self):
        rng = np.random.default_rng(3)
        for d, r in [(2, 2), (3, 3), (6, 2)]:
            raw = rng.uniform(0, 1, len(compositions(r, d)))
            raw /= raw.sum()
            dist = ExchangeableDistribution(
                d, r, dict(zip(compositions(r, d), raw))
            )
            one = homogenize(constant(1.0, d), r)
            assert expectation(dist, one) == pytest.approx(1.0, abs=1e-12)

    def test_three_roll_lift(self):
        g = two_face_witness()
        value = expectation(urn_distribution((1, 1, 1, 0, 0, 0)), homogenize(g, 3))
        assert value == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert value == pytest.approx(
            brute_urn_expectation((1, 1, 1, 0, 0, 0), g), abs=1e-12
        )

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DomainError):
            expectation(urn_distribution((1, 1, 1)), SimplexPolynomial(3, 2, {(2, 0, 0): 1.0}))


class TestOracleBound:
    def test_pair_bound(self):
        result = oracle_bound(two_face_witness(), 2)
        assert result.value == pytest.approx(-0.5, abs=1e-12)
        assert result.argmin == (1, 1, 0, 0, 0, 0)
        assert result.method == "oracle"

    def test_triple_bound_is_minus_one_sixth(self):
        result = oracle_bound(two_face_witness(), 3)
        assert result.value == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert result.value == pytest.approx(brute_oracle(two_face_witness(), 3), abs=1e-12)

    def test_square_is_nonnegative(self):
        g = SimplexPolynomial(6, 2, {(2, 0, 0, 0, 0, 0): 1.0})
        result = oracle_bound(g, 2)
        assert result.value == 0.0

    def test_matches_brute_force_on_random_observables(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            g = SimplexPolynomial(
                d, 2, {n: rng.uniform(-1, 1) for n in compositions(2, d)}
            )
            for s in range(2, 6):
                assert oracle_bound(g, s).value == pytest.approx(
                    brute_oracle(g, s), abs=1e-12
                )

    def test_commutes_with_marginalization(self):
        # lifting the polynomial and marginalizing the urn are adjoint
        g = two_face_witness(3)
        for s in (2, 3, 4, 5):
            via_lift = oracle_bound(g, s).value
            via_marginal = min(
                expectation(marginalize(urn_distribution(n), 2), g)
                for n in compositions(s, 3)
            )
            assert via_lift == pytest.approx(via_marginal, abs=1e-12)

    def test_monotone_in_sequence_length(self):
        g = two_face_witness()
        values = [oracle_bound(g, s).value for s in range(2, 13)]
        assert values[0] == pytest.approx(-0.5)
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-12
        assert all(v < 0 for v in values)

    def test_short_sequence_rejected(self):
        with pytest.raises(DomainError):
            oracle_bound(two_face_witness(), 1)


class TestSample:
    def test_support(self):
        draws = sample(urn_distribution((1, 1)), 200, seed=1)
        assert set(draws) <= {(0, 1), (1, 0)}

    def test_law_of_large_numbers(self):
        draws = sample(urn_distribution((1, 1)), 100_000, seed=7)
        freq = sum(1 for s in draws if s == (0, 1)) / len(draws)
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_deterministic_given_seed(self):
        dist = marginalize(urn_distribution((2, 2, 1)), 3)
        assert sample(dist, 50, seed=3) == sample(dist, 50, seed=3)

    def test_orbit_frequencies(self):
        dist = marginalize(urn_distribution((2, 1)), 2)
        draws = sample(dist, 60_000, seed=11)
        doubles = sum(1 for s in draws if s == (0, 0)) / len(draws)
        assert doubles == pytest.approx(1.0 / 3.0, abs=0.01)


class TestJson:
    def test_roundtrip(self):
        dist = marginalize(urn_distribution((2, 2, 1)), 3)
        back = from_json(to_json(dist))
        assert back.d == dist.d and back.r == dist.r
        for n in compositions(3, 3):
            assert back.orbit_probability(n) == pytest.approx(
                dist.orbit_probability(n)
            )

    def test_rejects_malformed(self):
        with pytest.raises(DomainError):
            from_json("[1, 2, 3]")
        with pytest.raises(DomainError):
            from_json('{"d": 2, "r": 2}')


class TestInvariants:
    def test_distribution_validation(self):
        with pytest.raises(NormalizationError):
            ExchangeableDistribution(2, 2, {(1, 1): 0.5})
        with pytest.raises(DomainError):
            ExchangeableDistribution(2, 2, {(1, 1): 1.5, (2, 0): -0.5})
        with pytest.raises(DomainError):
            ExchangeableDistribution(2, 2, {(1, 1, 0): 1.0})

    def test_nan_orbit_probability_is_rejected(self):
        # a NaN total would slip past the normalization check, leaving an
        # empty distribution; it raises instead
        with pytest.raises(DomainError, match="not finite"):
            ExchangeableDistribution(2, 2, {(1, 1): float("nan")})
        with pytest.raises(DomainError, match="not finite"):
            ExchangeableDistribution(2, 2, {(1, 1): 1.0, (2, 0): float("nan")})
        with pytest.raises(DomainError):
            from_json('{"d": 2, "r": 2, "orbits": [{"counts": [1, 1], "prob": NaN}]}')

    def test_operations_return_valid_distributions(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            s = int(rng.integers(1, 6))
            comps = compositions(s, d)
            n = comps[int(rng.integers(0, len(comps)))]
            dist = marginalize(urn_distribution(n), int(rng.integers(1, s + 1)))
            total = sum(dist.orbit_probs.values())
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in dist.orbit_probs.values())
