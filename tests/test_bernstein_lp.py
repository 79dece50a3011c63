"""The cone-membership LP: assembly rows, the 21-row instance, oracle agreement."""

import ast
import hashlib
import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from cone_lp_reference import dense_lp, dense_u_block, swept

import finex.bernstein_lp
import finex.exchangeable
import finex.solvers
from finex.bernstein_lp import _solve, assemble, dump, lower_bound_lp
from finex.errors import CapacityError, DomainError, SolverFailure
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


def swept_lp(cone_lp):
    """The system as a dense LinearProgram, its u-block written by finex's sweeps."""
    return dense_lp(cone_lp, swept(cone_lp.d, cone_lp.s, np.eye(len(cone_lp.b))))


def reference_lp(cone_lp):
    """The system as a dense LinearProgram, its u-block written from the reference triplets."""
    return dense_lp(cone_lp, dense_u_block(cone_lp.d, cone_lp.s)[0])


def solve(cone_lp):
    """_solve on the system's one column: (values, primals, duals, residuals, leaving)."""
    return _solve(cone_lp.d, cone_lp.b[:, None], cone_lp.s)[0]


def row_as_dict(cone_lp, row_index):
    """Column label -> coefficient for one equality row (c labelled 'c')."""
    a = swept_lp(cone_lp).a
    out = {}
    for j, n in enumerate(compositions(cone_lp.s, cone_lp.d)):
        if a[row_index, j]:
            out[n] = a[row_index, j]
    if a[row_index, -1]:
        out["c"] = a[row_index, -1]
    return out


class TestAssembly:
    def test_dimensions_for_six_face_witness(self):
        cone_lp = assemble(two_face_witness(), 2)
        assert len(cone_lp.rows) == len(cone_lp.b) == 21
        assert swept_lp(cone_lp).a.shape == (21, 22)

    def test_constant_row_reads_minus_c_minus_u(self):
        # rearranged: c + u_{000002} = 0
        cone_lp = assemble(two_face_witness(), 2)
        i = cone_lp.rows.index((0, 0, 0, 0, 0))
        assert row_as_dict(cone_lp, i) == {(0, 0, 0, 0, 0, 2): 1.0, "c": 1.0}
        assert cone_lp.b[i] == 0.0

    def test_known_rows_of_six_face_system(self):
        # five rows of the d=6, s=2 system, checked coefficient by coefficient
        cone_lp = assemble(two_face_witness(), 2)
        b = cone_lp.b

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
            assert len(cone_lp.rows) == len(cone_lp.b) == expected
            assert swept_lp(cone_lp).a.shape == (expected, expected + 1)

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
            assert np.array_equal(swept_lp(cone_lp).a, a)
            assert np.array_equal(reference_lp(cone_lp).a, a)
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
            b = assemble(g, s).b
            _, expected = reference_assembly(g, s)
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(b - expected).max() <= 1e-11 * scale

    def test_mutating_a_result_leaves_the_next_assembly_unchanged(self):
        g = two_face_witness(3)
        first = assemble(g, 4)
        b, rows, text = first.b.copy(), list(first.rows), dump(first)
        first.b[:] = 7.0
        assert first.rows is not first.rows
        first.rows.reverse()
        first.rows.append((9, 9))
        second = assemble(g, 4)
        assert np.array_equal(second.b, b)
        assert second.rows == rows
        assert dump(second) == text
        assert solve(second)[0][0] == pytest.approx(oracle_bound(g, 4).value, abs=1e-9)


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
            block = swept(d, s, np.eye(len(cone_lp.b)))
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
            reference = simplex_solve(reference_lp(cone_lp))
            assert reference.status == OPTIMAL
            assert solve(cone_lp)[0][0] == pytest.approx(reference.optimum, abs=1e-9)

    def test_sparse_residuals_match_the_dense_system(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            g = SimplexPolynomial(
                d, 2, {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
            )
            cone_lp = assemble(g, int(rng.integers(2, 6)))
            _, x, y, sparse, _ = solve(cone_lp)
            x, y = x[:, 0], y[:, 0]
            sparse = {key: float(value[0]) for key, value in sparse.items()}
            lp = reference_lp(cone_lp)
            dense = certificate_residuals(lp.a @ x - lp.b, lp.objective - y @ lp.a, x, lp.free)
            assert sparse.keys() == dense.keys()
            for key in dense:
                assert abs(sparse[key] - dense[key]) <= 1e-12

    def test_solve_writes_no_dense_system_and_no_lift(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not on the solve path")

        monkeypatch.setattr(finex.bernstein_lp, "homogenize", refuse)
        monkeypatch.setattr(finex.solvers, "LinearProgram", refuse)
        for g, s in [(two_face_witness(), 4), (sum_of_squares(3), 9), (constant(2.0, 1), 3)]:
            result = lower_bound_lp(g, s)
            assert result.value == pytest.approx(oracle_bound(g, s).value, abs=1e-9)
        assert not hasattr(assemble(two_face_witness(), 2), "lifted")
        assert not hasattr(finex.bernstein_lp, "LinearProgram")
        assert not hasattr(finex.exchangeable, "oracle_bound_lifted")

    def test_matches_general_simplex_on_six_face_witness(self):
        cone_lp = assemble(two_face_witness(), 5)
        reference = simplex_solve(reference_lp(cone_lp))
        assert reference.status == OPTIMAL
        assert solve(cone_lp)[0][0] == pytest.approx(reference.optimum, abs=1e-9)

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
            for n, u in zip(compositions(s, d), cert["u"]):
                rebuilt[n] = rebuilt.get(n, 0.0) + u
            lifted = homogenize(g, s)
            for n in compositions(s, d):
                assert rebuilt.get(n, 0.0) == pytest.approx(
                    lifted.terms.get(n, 0.0), abs=1e-8
                )

    def test_cone_coefficients_nonnegative(self):
        result = lower_bound_lp(two_face_witness(), 2)
        assert np.all(result.certificate["u"] >= -1e-9)

    def test_dual_prices_are_quasi_expectations(self):
        # dual feasibility: every monomial's price is non-negative, and the
        # price of the normalization polynomial (sum theta)^s is one
        result = lower_bound_lp(two_face_witness(), 2)
        assert result.value == pytest.approx(-0.5, abs=1e-7)
        prices = result.certificate["dual"] @ dense_u_block(6, 2)[0]
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


# dump's text as the dense-A listing printed it, before dump wrote each row
# by a transpose sweep: in full for the three-face witness at s=2, and by
# sha256 for more shapes, a dense cubic and d=1 among them
LISTING_D3_S2 = """\
cone membership LP  d=3  s=2
rows=6  columns=7  (non-negative u columns + free c)
objective: maximize c
[t1^2]  +1*u[2, 0, 0] -1*u[1, 0, 1] +1*u[0, 0, 2] = 1
[t1^1t2^1]  +1*u[1, 1, 0] -1*u[1, 0, 1] -1*u[0, 1, 1] +2*u[0, 0, 2] = -1
[t1^1]  +1*u[1, 0, 1] -2*u[0, 0, 2] = 0
[t2^2]  +1*u[0, 2, 0] -1*u[0, 1, 1] +1*u[0, 0, 2] = 1
[t2^1]  +1*u[0, 1, 1] -2*u[0, 0, 2] = 0
[1]  +1*u[0, 0, 2] +1*c = 0"""

DENSE_CUBIC = SimplexPolynomial(
    3, 3, {n: (-1) ** k * (k + 1) / 7 for k, n in enumerate(compositions(3, 3))}
)
LISTING_DIGESTS = [
    (two_face_witness(2), 6, "4ac6a2e93b71c18a8009629e6ac717f12877462fda19b85cf1a1b8a33f5c8136"),
    (two_face_witness(6), 3, "cce20170a2d1c5666e22fb5e62fd37f20a73e4763c90944aac2d1ff02d63fd50"),
    (DENSE_CUBIC, 5, "d269a6a3c8662e4eecfb3588356bfac80d1242fa9464289aec540f97b80c2594"),
    (monomial((2,)), 4, "2ad15654f1918694dcc36f6ec318726770f86804fa5ebb43b0741b8d3d71bc01"),
    (sum_of_squares(4), 4, "38e7f84a95aa52566095ca656e5deeade0be581114ffed19ccbf781c6c41cf32"),
    (two_face_witness(3), 7, "d9e5b1909c2f44230fe21afb31fd504e76b0358d9218b3b55828ce29f41d9750"),
]


class TestDump:
    def test_six_row_listing(self):
        assert dump(assemble(two_face_witness(3), 2)) == LISTING_D3_S2

    @pytest.mark.parametrize(
        "g, s, digest",
        LISTING_DIGESTS,
        ids=["witness-d2-s6", "witness-d6-s3", "cubic-d3-s5", "d1-s4", "sos-d4-s4", "witness-d3-s7"],
    )
    def test_listing_digest(self, g, s, digest):
        assert hashlib.sha256(dump(assemble(g, s)).encode()).hexdigest() == digest

    def test_refuses_past_the_dense_cap_before_any_sweep(self, monkeypatch):
        # d=6 s=11 has 4368 rows, the first d=6 length past the cap
        cone_lp = assemble(two_face_witness(6), 11)

        def refuse(*args, **kwargs):
            raise AssertionError("swept past the cap")

        monkeypatch.setattr(finex.bernstein_lp, "_sweeps", refuse)
        with pytest.raises(CapacityError, match="N = 4368 rows, over the dense cap 4096"):
            dump(cone_lp)


class TestArgmin:
    """The LP's argmin is its leaving column's count vector."""

    CASES = [
        (two_face_witness(), 4),
        (two_face_witness(3), 9),
        (sum_of_squares(4), 5),
        (SimplexPolynomial(2, 1, {(1, 0): 1.0}), 3),
        (SimplexPolynomial(3, 2, {(2, 0, 0): 0.3, (1, 1, 0): -1.2, (0, 0, 2): 0.7}), 6),
        (constant(2.0, 1), 3),
    ]

    @pytest.mark.parametrize("g, s", CASES)
    def test_the_argmin_urn_attains_the_lp_value(self, g, s):
        result = lower_bound_lp(g, s)
        assert sum(result.argmin) == s and len(result.argmin) == g.d
        assert all(type(v) is int for v in result.argmin)
        urn = finex.exchangeable.urn_distribution(result.argmin)
        drawn = finex.exchangeable.marginalize(urn, g.degree)  # the first degree-many draws
        assert finex.exchangeable.expectation(drawn, g) == pytest.approx(result.value, abs=1e-9)
        assert result.argmin == oracle_bound(g, s).argmin

    @pytest.mark.parametrize("d, s", [(2, 4), (3, 5), (4, 3)])
    def test_ties_break_at_the_first_composition(self, d, s):
        # every urn of a constant ties, and theta_1 theta_2 is 0 at every urn
        # with n_1 = 0 or n_2 = 0, (0, ..., 0, s) first in the sweeps' level
        # order among them; both pick (s, 0, ..., 0), first in compositions
        first = compositions(s, d)[0]
        assert lower_bound_lp(constant(1.5, d), s).argmin == first
        cross = SimplexPolynomial(d, 2, {(1, 1) + (0,) * (d - 2): 1.0})
        assert lower_bound_lp(cross, s).argmin == first
        # adding theta_1^2 (0 at an urn with n_1 <= 1: two draws without
        # replacement) lifts (s, 0, ..., 0) out of the tie; the next zero urn
        # in compositions order is picked
        shifted = SimplexPolynomial(d, 2, {**cross.terms, (2,) + (0,) * (d - 1): 1.0})
        result = lower_bound_lp(shifted, s)
        assert result.value == 0.0
        assert result.argmin == next(n for n in compositions(s, d) if n[0] <= 1 and not n[0] * n[1])


def test_the_lp_frontier_needs_no_structure_sized_memory():
    # d=6 s=14 has 11,628 rows and a u-block of about 2M off-diagonal
    # entries, which a cache of them took 107 MB to build; the sweeps' maps
    # are O(N d).  The solve still misses the absolute primal contract there.
    finex.bernstein_lp._sweeps.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(SolverFailure, match="cone LP validation failed"):
            lower_bound_lp(two_face_witness(6), 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
