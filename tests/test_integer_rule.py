"""One integer rule: a count, degree, length or outcome is a Python or numpy
integer, never bool, and anything else raises DomainError.

The caches are keyed by value, and True == 1 and 4.0 == 4 hash alike, so a
length that is not an integer must be refused before any cached table is
read; otherwise the answer depends on what ran before.
"""

import numpy as np
import pytest

from finex import boson, exchangeable, polynomial
from finex.bernstein_lp import _right_hand_sides, lp_block
from finex.boson import BosonDensityMatrix, OccupationBasis, boson_block, quantum_bound
from finex.errors import DomainError
from finex.exchangeable import (
    ExchangeableDistribution,
    marginalize,
    oracle_block,
    sample,
    urn_distribution,
)
from finex.multiindex import (
    composition_array,
    is_integer,
    num_compositions,
    orbit_size,
    require_int,
    sequence_to_counts,
    unrank,
    validate_counts,
)
from finex.polynomial import PolynomialBlock, SimplexPolynomial, lift_block, monomial


def test_predicate_takes_python_and_numpy_integers_only():
    for value in (0, 3, -2, np.int64(3), np.int32(0), np.uint8(5)):
        assert is_integer(value)
    for value in (True, False, np.bool_(True), 2.0, 0.5, np.float64(1.0), "1", None):
        assert not is_integer(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: unrank(0.5, 2, 2),
        lambda: unrank(True, 2, 2),
        lambda: SimplexPolynomial(2, 2.5, {}),
        lambda: SimplexPolynomial(2.0, 0, {}),
        lambda: SimplexPolynomial(True, 0, {}),
        lambda: orbit_size((True, 1)),
        lambda: validate_counts((1.0, 1)),
        lambda: sequence_to_counts((0.5,), 2),
        lambda: sequence_to_counts((True,), 2),
        lambda: sequence_to_counts((0,), 2.0),
        lambda: num_compositions(2.0, 2),
        lambda: num_compositions(2, True),
        lambda: require_int(np.float64(2.0), "d", 1),
    ],
    ids=[
        "unrank-half", "unrank-bool", "polynomial-float-degree", "polynomial-float-d",
        "polynomial-bool-d", "orbit-size-bool", "counts-float", "sequence-half",
        "sequence-bool", "sequence-float-d", "compositions-float", "compositions-bool",
        "require-int-numpy-float",
    ],
)
def test_non_integers_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_numpy_integers_are_integers():
    assert orbit_size((np.int64(1), 1)) == 2
    assert require_int(np.int64(3), "d", 1) == 3
    assert num_compositions(np.int64(2), np.int64(2)) == 3
    assert unrank(np.int64(1), 2, 2) == (1, 1)
    assert sequence_to_counts((np.int64(1), 0), np.int64(2)) == (1, 1)
    assert SimplexPolynomial(np.int64(2), np.int64(1), {(1, 0): 1.0}).degree == 1


# (11, 3) and (11, 4) are shapes no other test uses, so the first call below meets cold caches
G = monomial((1,) + (0,) * 10)


@pytest.mark.parametrize("s", [3.0, True, np.float64(3.0)])
def test_quantum_bound_refuses_a_non_integer_length_cold_and_warm(s):
    with pytest.raises(DomainError):
        quantum_bound(G, s)
    quantum_bound(G, 3)
    with pytest.raises(DomainError):
        quantum_bound(G, s)


def test_composition_array_refuses_bool():
    composition_array(1, 3)
    with pytest.raises(DomainError):
        composition_array(True, 3)
    with pytest.raises(DomainError):
        composition_array(2, 3.0)


BLOCK = PolynomialBlock.of([monomial((1, 0, 0, 0) + (0,) * 7)])


@pytest.mark.parametrize("s", [4.0, True, np.float64(4.0)])
@pytest.mark.parametrize(
    "route", [oracle_block, boson_block, _right_hand_sides, lp_block, lift_block]
)
def test_block_routes_refuse_a_non_integer_length(route, s):
    # the routes take a sequence of lengths; _right_hand_sides and lift_block take one
    one = (lambda s: s) if route in (_right_hand_sides, lift_block) else (lambda s: (s,))
    route(BLOCK, one(4))  # warm every cache the integer length reads
    with pytest.raises(DomainError, match="sequence length must be an integer"):
        route(BLOCK, one(s))


def test_block_length_below_the_degree_keeps_its_message():
    with pytest.raises(DomainError, match=r"sequence length 0 < polynomial degree 1"):
        oracle_block(BLOCK, (0,))


@pytest.mark.parametrize("r", [1.0, True, -1])
def test_marginalize_refuses_a_bad_length(r):
    with pytest.raises(DomainError):
        marginalize(urn_distribution((2, 1)), r)


@pytest.mark.parametrize("count", [2.0, True, -1])
def test_sample_refuses_a_bad_count(count):
    with pytest.raises(DomainError):
        sample(urn_distribution((2, 1)), count, 0)


def test_integer_lengths_still_work():
    dist = urn_distribution((2, 1))
    assert marginalize(dist, np.int64(1)).r == 1
    assert len(sample(dist, np.int64(3), 0)) == 3
    assert oracle_block(BLOCK, (np.int64(4),))[0][0][0] == oracle_block(BLOCK, (4,))[0][0][0]


def test_serializers_write_numpy_integers_as_json_integers():
    two = np.int64(2)
    dist = ExchangeableDistribution(2, two, {(np.int64(1), np.int64(1)): 1.0})
    text = exchangeable.to_json(dist)
    assert text == '{"d": 2, "r": 2, "orbits": [{"counts": [1, 1], "prob": 1.0}]}'
    assert exchangeable.from_json(text) == dist

    g = SimplexPolynomial(two, two, {(np.int64(2), np.int32(0)): 1.5, (1, 1): -0.5})
    text = polynomial.to_json(g)
    assert '"d": 2' in text
    assert polynomial.from_json(text) == g

    rho = BosonDensityMatrix(OccupationBasis(two, np.int64(3)), np.eye(4) / 4)
    back = boson.from_json(boson.to_json(rho))
    assert (back.basis.d, back.basis.s) == (2, 3)
    assert back.basis.elements == rho.basis.elements
    assert np.array_equal(back.matrix, rho.matrix)
