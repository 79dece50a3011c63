"""verify's hot path pinned against the formulations it replaced.

`_seeded_quadratics` draws each observable's coefficients as one vector
and returns (d, vector) pairs, which `_route_agreement` stacks into one
block per d, and `PolynomialBlock.of` stacks the observables' coefficient
vectors.  The references below are the earlier code: one scalar draw per
term through the validating constructor, whose coefficient_vector each
pair's vector must match, and one assignment per column (its terms now
in composition order).  Every output must match them bit for bit, and
the generator must end in the same state, so the dense rows that draw
after the quadratics draw the same numbers.

`_route_agreement` evaluates each block at all four lengths in one call
per route; the reference is the loop it replaced, one call per route,
block and length, on the reference's polynomials, and its result must
match bit for bit.

The cone LP's `_solve` applies its u-block by Horner sweeps, which round
differently from the triplet (vstack) formulation it replaced, so the
solve is held to exact rationals instead: on seeded blocks its p = B^-1 b,
value and u lie within a few ulps of the Fraction values of the same b,
as the vstack formulation's do, and the dual, exact integers over one
orbit size, is bitwise the correctly rounded Fraction.
"""

import numpy as np
import pytest
from cone_lp_reference import exact_dual, exact_solve, reference_orbit_sizes, reference_solve, swept

from finex.bernstein_lp import _right_hand_sides, _solve, lp_block
from finex.boson import boson_block
from finex.cli import ROUTES, _route_agreement, _seeded_quadratics
from finex.errors import SolverFailure
from finex.exchangeable import oracle_block
from finex.multiindex import compositions
from finex.polynomial import PolynomialBlock, SimplexPolynomial, two_face_witness
from finex.solvers import within_tolerances


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
    for (d, vector), h in zip(drawn, expected):
        assert d == h.d
        assert vector.dtype == np.float64
        assert np.array_equal(bits(vector), bits(h.coefficient_vector))
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
    for d, vector in _seeded_quadratics(_TinyCoefficientRng()):
        assert d == 2
        assert np.array_equal(bits(vector), bits(expected.coefficient_vector))


def reference_route_agreement(observables, tol):
    """The agreement row with one call per route, block and length, in (d, s, route) order."""
    lengths = range(2, 6)
    routes = {"oracle": oracle_block, "lp": lp_block, "boson": boson_block}
    values = np.zeros((len(observables), len(lengths), len(ROUTES)))
    for d in sorted({g.d for g in observables}):
        members = [i for i, g in enumerate(observables) if g.d == d]
        block = PolynomialBlock.of([observables[i] for i in members])
        for k, s in enumerate(lengths):
            for r, method in enumerate(ROUTES):
                values[members, k, r] = routes[method](block, (s,))[0][0]
    spreads = values.max(axis=2) - values.min(axis=2)
    worst, detail = max(0.0, float(spreads.max())), None
    if worst > 0.0:
        i, k = np.unravel_index(np.argmax(spreads), spreads.shape)
        v = values[i, k]
        far = ROUTES[int(np.argmax(np.abs(v[:, None] - v[None, :]).sum(axis=1)))]
        detail = (
            f"worst case: observable {i} of the seed's stream (d={observables[i].d}) "
            f"at s={lengths[k]}; {far} is farthest from the other two routes"
        )
    return worst <= tol, worst, detail


@pytest.mark.parametrize("seed", range(64))
def test_route_agreement_matches_one_call_per_length(seed):
    observables = _seeded_quadratics(np.random.default_rng(seed))
    polynomials = reference_quadratics(np.random.default_rng(seed))
    for tol in (1e-7, 0.0):  # 0.0: a failing row, whose detail names the worst case
        passed, worst, detail = _route_agreement(observables, tol)
        expected = reference_route_agreement(polynomials, tol)
        assert (passed, detail) == (expected[0], expected[2])
        assert bits(worst) == bits(expected[1])


def reference_block(polynomials):
    """The columns' terms in composition order, and every coefficient, one assignment per column.

    Returns the terms, their (terms x B) coefficients and the whole
    (N x B) matrix, one row per composition.
    """
    comps = compositions(polynomials[0].degree, polynomials[0].d)
    terms = tuple(n for n in comps if any(n in g.terms for g in polynomials))
    position = {n: k for k, n in enumerate(comps)}
    matrix = np.zeros((len(comps), len(polynomials)))
    for j, g in enumerate(polynomials):
        matrix[[position[n] for n in g.terms], j] = list(g.terms.values())
    return terms, matrix[[position[n] for n in terms]], matrix


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
    terms, coefficients, matrix = reference_block(columns)
    assert block.terms == terms
    assert np.array_equal(block.term_counts, np.array(terms, dtype=np.int64).reshape(-1, block.d))
    for computed, expected in ((block.coefficients, coefficients), (block.coefficient_matrix, matrix)):
        assert computed.shape == expected.shape
        assert np.array_equal(bits(computed), bits(expected))
    for array in (block.coefficients, block.coefficient_matrix, block.term_counts):
        assert not array.flags.writeable


# a few ulps of |B^-1| |b| (over q for c), the scale of each sum's rounding:
# on these blocks and test_blocks.py's, the sweeps' p errs by at most 2 and
# c by 1, the vstack formulation's by 1 and 1
ULPS = 4


def within_ulps(computed, exact, magnitude):
    error = np.abs(np.asarray(computed, dtype=float) - np.array([float(v) for v in exact]))
    return bool(np.all(error <= ULPS * np.spacing(np.asarray(magnitude, dtype=float))))


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
    d = block.d
    b = _right_hand_sides(block, s)
    values, primal, dual, residuals, leaving = _solve(d, b, s)[0]
    vstack = reference_solve(d, s, b)
    p = swept(d, s, b, inverse=True)
    q = reference_orbit_sizes(s, d)
    for j, exact in enumerate(exact_solve(d, s, b)):
        scale, l = exact["magnitude"], leaving[j]
        assert within_ulps(p[:, j], exact["p"], scale)
        assert within_ulps(vstack[4][:, j], exact["p"], scale)
        # the leaving column is the exact one, or ties with it within the rounding
        assert l == exact["leaving"] or within_ulps([exact["ratios"][l]], [exact["c"]], scale[l])
        assert within_ulps([values[j], vstack[0][j]], [exact["c"]] * 2, [scale[l] / q[l]] * 2)
        assert bits(primal[-1, j]) == bits(values[j])
        rounded = np.array([float(v) for v in exact_dual(d, s, l)])
        assert np.array_equal(bits(dual[:, j]), bits(rounded))
        if l == exact["leaving"]:
            assert np.array_equal(bits(vstack[2][:, j]), bits(rounded))
        # u = p - c q, clipped at 0, and 0 at the leaving column
        u = primal[:-1, j]
        assert u[l] == 0.0 and np.all(u >= 0.0)
        clipped = [max(v - exact["c"] * int(n), 0) for v, n in zip(exact["p"], q)]
        assert within_ulps(u, clipped, 2 * scale)
    assert residuals.keys() == vstack[3].keys()
    assert within_tolerances(residuals).all()
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
        _solve(3, b, 18)
    with pytest.raises(SolverFailure) as single:
        _solve(3, b[:, 1:], 18)
    assert caught.value.diagnostics == single.value.diagnostics
    assert caught.value.diagnostics["primal"] > 1e-8
    _solve(3, b[:, :1], 18)
