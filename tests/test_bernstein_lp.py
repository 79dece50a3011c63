"""The cone-membership LP: assembly rows, the 21-row instance, oracle agreement."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import finex.bernstein_lp
import finex.exchangeable
import finex.solvers
from finex.bernstein_lp import _structural_solve, assemble, dump, lower_bound_lp, solve_lp
from finex.errors import DomainError, SolverFailure
from finex.exchangeable import oracle_bound
from finex.multiindex import compositions, rank
from finex.polynomial import (
    SimplexPolynomial,
    constant,
    evaluate,
    homogenize,
    monomial,
    reduce_to_free_vars,
    sum_of_squares,
    two_face_witness,
)
from finex.solvers import OPTIMAL, certificate_residuals, simplex_solve


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


def reference_assembly(g, s):
    """A and b expanded monomial by monomial with reduce_to_free_vars."""
    comps = compositions(s, g.d)
    row_of = {n[: g.d - 1]: i for i, n in enumerate(comps)}
    a = np.zeros((len(comps), len(comps) + 1))
    for j, n in enumerate(comps):
        for e, coeff in reduce_to_free_vars(monomial(n)).items():
            a[row_of[e], j] = coeff
    a[row_of[(0,) * (g.d - 1)], -1] = 1.0
    b = np.zeros(len(comps))
    for e, coeff in reduce_to_free_vars(homogenize(g, s)).items():
        b[row_of[e]] = coeff
    return a, b


class TestAssemblyMatchesReduction:
    @pytest.mark.parametrize(
        "d, s_max", [(1, 8), (2, 8), (3, 8), (4, 8), (5, 6), (6, 6)]
    )
    def test_a_is_bitwise_the_reduced_monomials(self, d, s_max):
        for s in range(s_max + 1):
            cone_lp = assemble(constant(1.0, d), s)
            a, _ = reference_assembly(constant(1.0, d), s)
            assert cone_lp.lp.a.shape == a.shape
            assert np.array_equal(cone_lp.lp.a, a)
            assert cone_lp.rows == [n[: d - 1] for n in compositions(s, d)]

    def test_b_matches_the_reduced_lifted_observable(self):
        rng = np.random.default_rng(77)
        cases = [(two_face_witness(6), s) for s in range(2, 7)]
        cases += [(sum_of_squares(3), s) for s in (2, 8, 13)]
        for d, degree, s in [(2, 3, 8), (3, 2, 7), (4, 3, 6), (5, 2, 5), (1, 2, 4)]:
            g = SimplexPolynomial(
                d, degree, {n: float(rng.uniform(-1, 1)) for n in compositions(degree, d)}
            )
            cases.append((g, s))
        for g, s in cases:
            b = assemble(g, s).lp.b
            _, expected = reference_assembly(g, s)
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(b - expected).max() <= 1e-11 * scale

    def test_mutating_a_result_leaves_the_next_assembly_unchanged(self):
        g = two_face_witness(3)
        first = assemble(g, 4)
        a, b = first.lp.a.copy(), first.lp.b.copy()
        u_columns, rows = list(first.u_columns), list(first.rows)
        first.lp.a[:] = 7.0
        first.lp.b[:] = 7.0
        assert first.u_columns is not first.u_columns and first.rows is not first.rows
        first.u_columns.reverse()
        first.u_columns.append((9, 9, 9))
        first.rows.clear()
        second = assemble(g, 4)
        assert np.array_equal(second.lp.a, a)
        assert np.array_equal(second.lp.b, b)
        assert second.u_columns == u_columns
        assert second.rows == rows
        assert solve_lp(second)[0] == pytest.approx(oracle_bound(g, 4).value, abs=1e-9)


# perfbench/tracer.py replaces these attributes (module globals, and two
# methods on their classes), so each must stay bound where it is, even
# where its owner no longer calls it
TRACED = {
    "finex.bernstein_lp": [
        "compositions",
        "homogenize",
        "reduce_to_free_vars",
        "oracle_bound",
        "assemble",
        "simplex_solve",
    ],
    "finex.cli": [
        "polynomial_from_json",
        "compositions",
        "oracle_bound",
        "assemble",
        "lower_bound_lp",
    ],
    "finex.polynomial": ["compositions"],
    "finex.exchangeable": ["compositions", "homogenize"],
    "finex.boson": [
        "compositions",
        "homogenize",
        "jacobi_eigen",
        "quantum_bound",
        "simplex_minimum",
        "symmetrizer",
        "permutation_matrix",
    ],
    "finex.solvers": ["simplex_solve"],
    "finex.boson.OccupationBasis": ["dense_isometry"],
    "finex.boson.BosonDensityMatrix": ["dense"],
}
TRACED_NAMES = TRACED["finex.bernstein_lp"]
OTHER_TRACED = [
    (owner, name)
    for owner, names in TRACED.items()
    if owner != "finex.bernstein_lp"
    for name in names
]


def resolve(owner):
    """The module or class that a dotted finex owner name refers to."""
    _, module, *classes = owner.split(".")
    obj = importlib.import_module(f"finex.{module}")
    for cls in classes:
        obj = getattr(obj, cls)
    return obj


class TestTracedNames:
    @pytest.mark.parametrize("name", TRACED_NAMES)
    def test_name_stays_a_module_attribute(self, name):
        assert callable(getattr(finex.bernstein_lp, name, None))

    @pytest.mark.parametrize(
        "owner, name", OTHER_TRACED, ids=[f"{o}.{n}" for o, n in OTHER_TRACED]
    )
    def test_other_owners_keep_the_name(self, owner, name):
        assert callable(getattr(resolve(owner), name, None))

    def test_list_covers_the_tracer(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        if not path.exists():
            pytest.skip("perfbench is not part of this checkout")
        tree = ast.parse(path.read_text())
        wrapped = {
            (ast.unparse(node.elts[1]), node.elts[2].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Tuple)
            and len(node.elts) == 3
            and ast.unparse(node.elts[1]).startswith("finex.")
        }
        listed = {(owner, name) for owner, names in TRACED.items() for name in names}
        assert wrapped == listed


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

    def test_sparse_residuals_match_the_dense_system(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            g = SimplexPolynomial(
                d, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
            )
            cone_lp = assemble(g, int(rng.integers(2, 6)))
            _, x, y, sparse = _structural_solve(cone_lp)
            lp = cone_lp.lp
            dense = certificate_residuals(lp.a @ x - lp.b, lp.objective - y @ lp.a, x, lp.free)
            assert sparse.keys() == dense.keys()
            for key in dense:
                assert abs(sparse[key] - dense[key]) <= 1e-12

    def test_solve_writes_no_dense_system_and_no_lift(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not on the solve path")

        monkeypatch.setattr(finex.bernstein_lp, "homogenize", refuse)
        monkeypatch.setattr(finex.bernstein_lp, "LinearProgram", refuse)
        monkeypatch.setattr(finex.solvers, "LinearProgram", refuse)
        for g, s in [(two_face_witness(), 4), (sum_of_squares(3), 9), (constant(2.0, 1), 3)]:
            result = lower_bound_lp(g, s)
            assert result.value == pytest.approx(oracle_bound(g, s).value, abs=1e-9)
        assert not hasattr(assemble(two_face_witness(), 2), "lifted")
        assert not hasattr(finex.exchangeable, "oracle_bound_lifted")

    def test_matches_general_simplex_on_six_face_witness(self):
        cone_lp = assemble(two_face_witness(), 5)
        reference = simplex_solve(cone_lp.lp)
        assert reference.status == OPTIMAL
        assert solve_lp(cone_lp)[0] == pytest.approx(reference.optimum, abs=1e-9)

    def test_needs_neither_the_lift_nor_the_oracle(self, monkeypatch):
        # the LP reads g itself, and comparing routes is left to the commands
        expected = oracle_bound(two_face_witness(3), 4).value

        def refuse(*args, **kwargs):
            raise AssertionError("the LP route called into another route")

        monkeypatch.setattr(finex.bernstein_lp, "oracle_bound", refuse)
        monkeypatch.setattr(finex.bernstein_lp, "homogenize", refuse)
        result = lower_bound_lp(two_face_witness(3), 4)
        assert result.value == pytest.approx(expected, abs=1e-12)
        assert "oracle_gap" not in result.diagnostics

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
