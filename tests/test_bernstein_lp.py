"""The cone-membership LP: assembly rows, the 21-row instance, oracle agreement."""

import numpy as np
import pytest

from finex.bernstein_lp import assemble, dump, lower_bound_lp, solve_lp
from finex.errors import DomainError, SolverFailure
from finex.exchangeable import oracle_bound
from finex.multiindex import compositions, rank
from finex.polynomial import (
    SimplexPolynomial,
    constant,
    evaluate,
    homogenize,
    monomial,
    sum_of_squares,
    two_face_witness,
)
from finex.solvers import OPTIMAL, simplex_solve


def row_as_dict(cone_lp, row_index):
    """Column label -> coefficient for one equality row (c labelled 'c')."""
    out = {}
    for j, n in enumerate(cone_lp.u_columns):
        if cone_lp.lp.a[row_index, j]:
            out[n] = cone_lp.lp.a[row_index, j]
    if cone_lp.lp.a[row_index, -1]:
        out["c"] = cone_lp.lp.a[row_index, -1]
    return out


class TestAssembly:
    def test_dimensions_for_six_face_witness(self):
        cone_lp = assemble(two_face_witness(), 2)
        assert len(cone_lp.rows) == 21
        assert cone_lp.lp.a.shape == (21, 22)
        assert cone_lp.lp.free.sum() == 1 and cone_lp.lp.free[-1]

    def test_constant_row_reads_minus_c_minus_u(self):
        # rearranged: c + u_{000002} = 0
        cone_lp = assemble(two_face_witness(), 2)
        i = cone_lp.rows.index((0, 0, 0, 0, 0))
        assert row_as_dict(cone_lp, i) == {(0, 0, 0, 0, 0, 2): 1.0, "c": 1.0}
        assert cone_lp.lp.b[i] == 0.0

    def test_known_rows_of_six_face_system(self):
        # five rows of the d=6, s=2 system, checked coefficient by coefficient
        cone_lp = assemble(two_face_witness(), 2)
        b = cone_lp.lp.b

        i = cone_lp.rows.index((2, 0, 0, 0, 0))  # theta_1^2
        assert row_as_dict(cone_lp, i) == {
            (2, 0, 0, 0, 0, 0): 1.0,
            (1, 0, 0, 0, 0, 1): -1.0,
            (0, 0, 0, 0, 0, 2): 1.0,
        }
        assert b[i] == 1.0

        i = cone_lp.rows.index((1, 1, 0, 0, 0))  # theta_1 theta_2
        assert row_as_dict(cone_lp, i) == {
            (1, 1, 0, 0, 0, 0): 1.0,
            (1, 0, 0, 0, 0, 1): -1.0,
            (0, 1, 0, 0, 0, 1): -1.0,
            (0, 0, 0, 0, 0, 2): 2.0,
        }
        assert b[i] == -1.0

        i = cone_lp.rows.index((0, 2, 0, 0, 0))  # theta_2^2
        assert row_as_dict(cone_lp, i) == {
            (0, 2, 0, 0, 0, 0): 1.0,
            (0, 1, 0, 0, 0, 1): -1.0,
            (0, 0, 0, 0, 0, 2): 1.0,
        }
        assert b[i] == 1.0

        i = cone_lp.rows.index((1, 0, 1, 0, 0))  # theta_1 theta_3, absent from g
        assert row_as_dict(cone_lp, i) == {
            (1, 0, 1, 0, 0, 0): 1.0,
            (1, 0, 0, 0, 0, 1): -1.0,
            (0, 0, 1, 0, 0, 1): -1.0,
            (0, 0, 0, 0, 0, 2): 2.0,
        }
        assert b[i] == 0.0

    def test_row_and_column_counts_generic(self):
        for d, deg, s in [(2, 1, 3), (3, 2, 4), (6, 2, 3)]:
            g = monomial((deg,) + (0,) * (d - 1))
            cone_lp = assemble(g, s)
            expected = len(compositions(s, d))
            assert len(cone_lp.rows) == expected
            assert cone_lp.lp.a.shape == (expected, expected + 1)

    def test_rejects_short_sequence(self):
        with pytest.raises(DomainError):
            assemble(two_face_witness(), 1)


class TestStructuralBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_u_block_is_unit_lower_triangular_by_reduced_degree(self, d):
        # the solver's basis: column i has 1 in row i and every other
        # non-zero in a row of strictly higher reduced degree
        for s in range(7):
            cone_lp = assemble(constant(1.0, d), s)
            m = len(cone_lp.u_columns)
            block = cone_lp.lp.a[:, :m]
            level = np.array([sum(e) for e in cone_lp.rows])
            assert np.all(np.diag(block) == 1.0)
            rows, cols = np.nonzero(block)
            off = rows != cols
            assert np.all(level[rows[off]] > level[cols[off]])

    def test_matches_general_simplex_on_random_cone_lps(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            g = SimplexPolynomial(
                d, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
            )
            cone_lp = assemble(g, int(rng.integers(2, 6)))
            reference = simplex_solve(cone_lp.lp)
            assert reference.status == OPTIMAL
            assert solve_lp(cone_lp)[0] == pytest.approx(reference.optimum, abs=1e-9)

    def test_matches_general_simplex_on_six_face_witness(self):
        cone_lp = assemble(two_face_witness(), 5)
        reference = simplex_solve(cone_lp.lp)
        assert reference.status == OPTIMAL
        assert solve_lp(cone_lp)[0] == pytest.approx(reference.optimum, abs=1e-9)

    def test_one_pivot(self):
        result = lower_bound_lp(two_face_witness(), 4)
        assert result.diagnostics["iterations"] == 1


class TestFrontier:
    @pytest.mark.parametrize(
        "g, s",
        [(two_face_witness(3), 16), (sum_of_squares(3), 13), (sum_of_squares(3), 15)],
        ids=["witness-d3-s16", "sos-d3-s13", "sos-d3-s15"],
    )
    def test_solves_within_contract(self, g, s):
        result = lower_bound_lp(g, s)
        assert result.diagnostics["residuals"]["primal"] <= 1e-8
        assert result.value == pytest.approx(oracle_bound(g, s).value, abs=1e-9)

    def test_past_frontier_raises(self):
        # the triangular solves lose absolute accuracy as the entries grow:
        # the primal residual here is about 5e-4, so no number is returned
        with pytest.raises(SolverFailure):
            lower_bound_lp(two_face_witness(3), 24)


class TestBounds:
    def test_six_face_pair_bound(self):
        result = lower_bound_lp(two_face_witness(), 2)
        assert result.value == pytest.approx(-0.5, abs=1e-7)
        assert result.method == "lp"

    def test_six_face_triple_bound(self):
        result = lower_bound_lp(two_face_witness(), 3)
        assert result.value == pytest.approx(-1.0 / 6.0, abs=1e-7)

    def test_constant_polynomial(self):
        result = lower_bound_lp(constant(1.0, 2), 1)
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_normalization_square(self):
        g = homogenize(constant(1.0, 2), 2)
        assert lower_bound_lp(g, 2).value == pytest.approx(1.0, abs=1e-9)

    def test_single_square_two_outcomes(self):
        g = monomial((2, 0))
        assert lower_bound_lp(g, 2).value == pytest.approx(0.0, abs=1e-9)

    def test_zero_polynomial(self):
        g = SimplexPolynomial(3, 2, {})
        assert lower_bound_lp(g, 2).value == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_oracle_on_random_observables(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            g = SimplexPolynomial(
                d, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
            )
            for s in range(2, 6):
                lp = lower_bound_lp(g, s)
                oracle = oracle_bound(g, s)
                assert abs(lp.value - oracle.value) <= 1e-7

    def test_lifting_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = SimplexPolynomial(
                3, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, 3)}
            )
            values = [lower_bound_lp(g, s).value for s in range(2, 7)]
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-9

    def test_scale_equivariance(self):
        g = two_face_witness(3)
        base = lower_bound_lp(g, 3).value
        for alpha in (0.5, 2.0, 7.25):
            scaled = SimplexPolynomial(
                g.d, g.degree, {n: alpha * c for n, c in g.terms.items()}
            )
            assert lower_bound_lp(scaled, 3).value == pytest.approx(
                alpha * base, rel=1e-9, abs=1e-12
            )

    def test_never_exceeds_simplex_grid_minimum(self):
        # worst-case finite-length expectation cannot exceed the pointwise
        # minimum over the simplex (the independent-draws limit)
        rng = np.random.default_rng(31)
        grid = np.linspace(0.0, 1.0, 1000)
        points = np.stack([grid, 1.0 - grid], axis=1)
        for _ in range(10):
            root = rng.uniform(-1, 1, size=2)
            g = SimplexPolynomial(
                2,
                2,
                {
                    (2, 0): root[0] ** 2,
                    (1, 1): 2 * root[0] * root[1],
                    (0, 2): root[1] ** 2,
                },
            )
            grid_min = min(evaluate(g, p) for p in points)
            for s in (2, 3, 4):
                assert lower_bound_lp(g, s).value <= grid_min + 1e-6


class TestCertificates:
    def test_certificate_reconstructs_lifted_polynomial(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            g = SimplexPolynomial(
                d, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
            )
            s = int(rng.integers(2, 5))
            result = lower_bound_lp(g, s)
            cert = result.certificate
            rebuilt = dict(
                homogenize(constant(cert["c"], d), s).terms
            )
            for n, u in cert["u"].items():
                rebuilt[n] = rebuilt.get(n, 0.0) + u
            lifted = homogenize(g, s)
            for n in compositions(s, d):
                assert rebuilt.get(n, 0.0) == pytest.approx(
                    lifted.terms.get(n, 0.0), abs=1e-8
                )

    def test_cone_coefficients_nonnegative(self):
        result = lower_bound_lp(two_face_witness(), 2)
        assert all(u >= -1e-9 for u in result.certificate["u"].values())

    def test_dual_prices_are_quasi_expectations(self):
        # dual feasibility: every monomial's price is non-negative, and the
        # price of the normalization polynomial (sum theta)^s is one
        cone_lp = assemble(two_face_witness(), 2)
        value, primal, dual = solve_lp(cone_lp)
        assert value == pytest.approx(-0.5, abs=1e-7)
        prices = dual @ cone_lp.lp.a[:, : len(cone_lp.u_columns)]
        assert np.all(prices >= -1e-8)
        ones = homogenize(constant(1.0, 6), 2)
        price_of_one = 0.0
        for n, coeff in ones.terms.items():
            price_of_one += coeff * prices[rank(n)]
        assert price_of_one == pytest.approx(1.0, abs=1e-8)

    def test_dump_lists_every_row(self):
        cone_lp = assemble(two_face_witness(3), 2)
        text = dump(cone_lp)
        assert "maximize c" in text
        row_lines = [line for line in text.splitlines() if line.startswith("[")]
        assert len(row_lines) == len(cone_lp.rows)
