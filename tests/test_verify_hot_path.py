"""verify's hot path pinned bitwise against the formulations it replaced.

`_seeded_quadratics` draws each observable's coefficients as one vector,
`PolynomialBlock.of` fills its matrix with one scatter over every
(term, column) pair, and the cone LP's `_solve` writes its primal and y A
in place.  The references below are the earlier code, kept as it was:
one scalar draw per term through the validating constructor, one
assignment per column, and the vstack / diff solve.  Every output must
match them bit for bit, and the generator must end in the same state, so
the dense rows that draw after the quadratics draw the same numbers.
"""

import numpy as np
import pytest

from finex.bernstein_lp import _right_hand_sides, _solve, _structure
from finex.cli import _seeded_quadratics
from finex.errors import SolverFailure
from finex.multiindex import compositions
from finex.polynomial import PolynomialBlock, SimplexPolynomial, two_face_witness
from finex.solvers import certificate_residuals, within_tolerances


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def reference_quadratics(rng):
    out = []
    for _ in range(50):
        d = int(rng.integers(2, 4))
        terms = {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
        out.append(SimplexPolynomial(d, 2, terms))
    return out


@pytest.mark.parametrize("seed", range(64))
def test_seeded_quadratics_match_one_draw_per_term(seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn, expected = _seeded_quadratics(rng), reference_quadratics(reference_rng)
    assert len(drawn) == len(expected)
    for g, h in zip(drawn, expected):
        assert (g.d, g.degree) == (h.d, h.degree)
        assert list(g.terms) == list(h.terms)
        assert np.array_equal(bits(list(g.terms.values())), bits(list(h.terms.values())))
        assert np.array_equal(bits(g.coefficient_vector), bits(h.coefficient_vector))
        assert not g.coefficient_vector.flags.writeable
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class _TinyCoefficientRng:
    """Always d = 2, with a middle coefficient below the prune threshold."""

    def integers(self, low, high):
        return 2

    def uniform(self, low, high, size):
        return np.array([0.5, 1e-16, -0.25])[:size]


def test_seeded_quadratics_prune_as_the_constructor_does():
    terms = dict(zip(compositions(2, 2), [0.5, 1e-16, -0.25]))
    expected = SimplexPolynomial(2, 2, terms)
    assert len(expected.terms) == 2
    for g in _seeded_quadratics(_TinyCoefficientRng()):
        assert g == expected
        assert list(g.terms) == list(expected.terms)
        assert np.array_equal(bits(g.coefficient_vector), bits(expected.coefficient_vector))


def reference_block(polynomials):
    position = {}
    for g in polynomials:
        for n in g.terms:
            position.setdefault(n, len(position))
    coefficients = np.zeros((len(position), len(polynomials)))
    for j, g in enumerate(polynomials):
        coefficients[[position[n] for n in g.terms], j] = list(g.terms.values())
    return tuple(position), coefficients


def block_cases():
    rng = np.random.default_rng(915)
    cases = []
    for d, degree in [(1, 2), (2, 0), (2, 3), (3, 2), (4, 3)]:
        comps = compositions(degree, d)
        for size in (1, 2, 5):
            columns = []
            for _ in range(size):
                # a random subset (possibly empty) of the terms, in a random order
                keep = rng.permutation(len(comps))[: int(rng.integers(0, len(comps) + 1))]
                terms = {comps[i]: float(rng.normal()) for i in keep}
                columns.append(SimplexPolynomial(d, degree, terms))
            cases.append(columns)
    comps = compositions(2, 3)
    cases.append([SimplexPolynomial(3, 2, {}), SimplexPolynomial(3, 2, {})])
    cases.append([SimplexPolynomial(3, 2, {n: 1.0 + k for k, n in enumerate(comps)})])
    cases.append([SimplexPolynomial(3, 2, {comps[-1]: -2.0}), SimplexPolynomial(3, 2, {})])
    return cases


@pytest.mark.parametrize("columns", block_cases())
def test_block_matches_one_assignment_per_column(columns):
    block = PolynomialBlock.of(columns)
    terms, coefficients = reference_block(columns)
    assert block.terms == terms
    assert block.coefficients.shape == coefficients.shape
    assert np.array_equal(bits(block.coefficients), bits(coefficients))
    assert not block.coefficients.flags.writeable


def reference_scatter(index, values, rows):
    size = values.shape[1]
    flat = index if size == 1 else (index[:, None] * np.int64(size) + np.arange(size)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=rows * size).reshape(rows, size)


@np.errstate(over="ignore", invalid="ignore")
def reference_solve(d, s, b):
    """The earlier _solve without its validation: (values, primal, dual, residuals)."""
    st = _structure(d, s)
    q = st.q
    m, size = b.shape
    columns = np.arange(size)
    p = b + reference_scatter(st.rows, st.inverse_weights[:, None] * b[st.cols], m)
    ratios = p / q[:, None]
    leaving = np.argmin(ratios, axis=0)
    c = ratios[leaving, columns]
    u = np.maximum(p - c * q[:, None], 0.0)
    u[leaving, columns] = 0.0
    primal = np.vstack([u, c])
    starts, lengths = st.row_start[leaving], np.diff(st.row_start)[leaving]
    entries = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    owner = np.repeat(columns, lengths)
    dual = np.zeros((m, size))
    dual[st.cols[entries], owner] = st.inverse_weights[entries] / q[leaving][owner]
    dual[leaving, columns] = 1.0 / q[leaving]
    ax = u + reference_scatter(st.rows, st.weights[:, None] * u[st.cols], m)
    ax[-1] += c
    ya = np.vstack([dual, dual[-1]]) + reference_scatter(
        st.cols, st.weights[:, None] * dual[st.rows], m + 1
    )
    reduced = -ya
    reduced[m] += 1.0
    residuals = certificate_residuals(ax - b, reduced, primal, np.arange(m + 1) == m)
    return c, primal, dual, residuals


def solve_cases():
    rng = np.random.default_rng(2718)
    cases = []
    for d in range(1, 5):
        for degree in range(4):
            comps = compositions(degree, d)
            for size in (1, 3):
                columns = [
                    SimplexPolynomial(
                        d, degree, {n: float(c) for n, c in zip(comps, rng.normal(size=len(comps)))}
                    )
                    for _ in range(size)
                ]
                s = int(rng.integers(max(degree, 1), 8))
                cases.append((columns, s))
    return cases


SOLVE_CASES = solve_cases()
SOLVE_IDS = [f"d{cols[0].d}-k{cols[0].degree}-s{s}-b{len(cols)}" for cols, s in SOLVE_CASES]


@pytest.mark.parametrize("columns, s", SOLVE_CASES, ids=SOLVE_IDS)
def test_solve_matches_the_vstack_formulation(columns, s):
    block = PolynomialBlock.of(columns)
    b = _right_hand_sides(block, s)
    expected = reference_solve(block.d, s, b)
    values, primal, dual, residuals = _solve(block.d, s, b)
    assert np.array_equal(bits(values), bits(expected[0]))
    assert np.array_equal(bits(primal), bits(expected[1]))
    assert np.array_equal(bits(dual), bits(expected[2]))
    assert residuals.keys() == expected[3].keys()
    for key in residuals:
        assert np.array_equal(bits(residuals[key]), bits(expected[3][key]))
    for x in (values, primal, dual):
        assert x.dtype == np.float64


def test_solve_fails_where_the_vstack_formulation_fails():
    # past the LP's frontier at d=3 the witness's primal residual misses
    # the 1e-8 contract; a copy scaled by 1e-3 still meets it
    witness = two_face_witness(3)
    small = SimplexPolynomial(3, 2, {n: 1e-3 * c for n, c in witness.terms.items()})
    b = _right_hand_sides(PolynomialBlock.of([small, witness]), 18)
    residuals = reference_solve(3, 18, b)[3]
    assert within_tolerances(residuals).tolist() == [True, False]
    with pytest.raises(SolverFailure) as caught:
        _solve(3, 18, b)
    assert caught.value.diagnostics == {key: float(v[1]) for key, v in residuals.items()}
