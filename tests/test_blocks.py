"""Every route evaluates a block of observables, one column each.

A single observable is a block of one, so each column of a block must read
bitwise what the column reads alone: the value, the argmin and, for the
cone LP, the residuals and the certificate (read from its _solve).  A bad
column raises the error a single call on it raises, with the same message,
and `verify`, which evaluates its observables as blocks, exits with that
error's code.  Every route takes a sequence of lengths and returns one
(values, rows) pair per length, bitwise what a call at that length alone
returns, and fails as the call at the first failing length fails.
"""

import numpy as np
import pytest

from finex.bernstein_lp import _right_hand_sides, _solve, lower_bound_lp, lp_block
from finex.boson import boson_block, quantum_bound
from finex.cli import main
from finex.errors import CapacityError, DomainError, SolverFailure
from finex.exchangeable import oracle_block, oracle_bound, urn_values
from finex.multiindex import composition_array, compositions, unrank
from finex.polynomial import (
    PolynomialBlock,
    SimplexPolynomial,
    homogenize,
    lift_block,
    sum_of_squares,
    two_face_witness,
)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def solved(block, *lengths):
    """The LP's whole solve at each length: (values, primal, dual, residuals, rows)."""
    return _solve(block.d, _right_hand_sides(block, *lengths), *lengths)


def hexed(residuals):
    # float.hex tells -0.0 from 0.0, which == does not
    return {key: float(value).hex() for key, value in residuals.items()}


def seeded_blocks():
    """Blocks over d = 1..4 and degree 0..3, full and sparse term sets, s up to 8."""
    rng = np.random.default_rng(4711)
    cases = []
    for d in range(1, 5):
        for degree in range(4):
            comps = compositions(degree, d)
            for sparse in (False, True):
                columns = []
                for _ in range(int(rng.integers(2, 7))):
                    # a sparse column keeps a random subset, possibly none, in the shared order
                    keep = rng.random(len(comps)) < 0.5 if sparse else np.ones(len(comps), bool)
                    coeffs = rng.normal(scale=10.0 ** int(rng.integers(-3, 3)), size=len(comps))
                    terms = {n: float(c) for n, c, k in zip(comps, coeffs, keep) if k}
                    columns.append(SimplexPolynomial(d, degree, terms))
                cases.append((columns, int(rng.integers(degree, 9))))
    return cases


BLOCKS = seeded_blocks()
IDS = [f"d{cols[0].d}-k{cols[0].degree}-s{s}-b{len(cols)}" for cols, s in BLOCKS]


@pytest.mark.parametrize("columns, s", BLOCKS, ids=IDS)
def test_oracle_columns_match_single_calls(columns, s):
    [(values, rows)] = oracle_block(PolynomialBlock.of(columns), (s,))
    for j, g in enumerate(columns):
        single = oracle_bound(g, s)
        assert bits(values[j]) == bits(single.value)
        assert unrank(int(rows[j]), s, g.d) == single.argmin


@pytest.mark.parametrize("columns, s", BLOCKS, ids=IDS)
def test_boson_columns_match_single_calls(columns, s):
    [(values, rows)] = boson_block(PolynomialBlock.of(columns), (s,))
    for j, g in enumerate(columns):
        single = quantum_bound(g, s)
        assert bits(values[j]) == bits(single.value)
        assert tuple(composition_array(s, g.d)[rows[j]].tolist()) == single.argmin


@pytest.mark.parametrize("columns, s", BLOCKS, ids=IDS)
def test_lp_columns_match_single_calls(columns, s):
    block = PolynomialBlock.of(columns)
    [(values, rows)] = lp_block(block, (s,))
    [(c, primal, dual, residuals, leaving)] = solved(block, s)
    assert np.array_equal(bits(values), bits(c))
    assert np.array_equal(rows, leaving)
    for j, g in enumerate(columns):
        single = lower_bound_lp(g, s)
        assert bits(values[j]) == bits(single.value)
        assert tuple(composition_array(s, g.d)[rows[j]].tolist()) == single.argmin
        column = {key: value[j] for key, value in residuals.items()}
        assert hexed(column) == hexed(single.diagnostics["residuals"])
        assert bits(primal[-1, j]) == bits(single.certificate["c"])
        assert np.array_equal(bits(dual[:, j]), bits(single.certificate["dual"]))


@pytest.mark.parametrize("columns, s", BLOCKS, ids=IDS)
def test_lift_columns_match_homogenize(columns, s):
    lifted = lift_block(PolynomialBlock.of(columns), s)
    for j, g in enumerate(columns):
        assert np.array_equal(bits(lifted[:, j]), bits(homogenize(g, s).coefficient_vector))


def test_lift_and_lp_do_not_depend_on_the_term_order():
    # a block is its coefficient matrix in composition order, and every route
    # reads its terms in that order, so a column whose terms come in any
    # order, reversed or random, full or sparse, reads bitwise what it reads alone
    # (with this seed, summing the boson's terms in the first column's order
    # moves the last bit of the reversed and the shuffled column at s=5)
    rng = np.random.default_rng(39)
    comps = compositions(3, 3)
    forward = SimplexPolynomial(3, 3, {n: float(rng.normal()) for n in comps})
    items = list(forward.terms.items())
    columns = [
        forward,
        SimplexPolynomial(3, 3, dict(reversed(items))),
        SimplexPolynomial(3, 3, dict(items[k] for k in rng.permutation(len(items)))),
        SimplexPolynomial(3, 3, dict(items[k] for k in rng.permutation(len(items))[:4])),
        SimplexPolynomial(3, 3, dict(reversed(items[2:7]))),
    ]
    block = PolynomialBlock.of(columns)
    assert block.terms == tuple(comps)
    singles = {oracle_block: oracle_bound, lp_block: lower_bound_lp, boson_block: quantum_bound}
    for s in (3, 5, 8):
        lifted = lift_block(block, s)
        for j, g in enumerate(columns):
            assert np.array_equal(bits(lifted[:, j]), bits(homogenize(g, s).coefficient_vector))
        for route, single in singles.items():
            [(values, rows)] = route(block, (s,))
            for j, g in enumerate(columns):
                alone = single(g, s)
                assert bits(values[j]) == bits(alone.value), (route.__name__, s, j)
                assert tuple(composition_array(s, 3)[rows[j]].tolist()) == alone.argmin


def test_block_of_one_shape():
    with pytest.raises(DomainError, match="one shape"):
        PolynomialBlock.of([two_face_witness(3), two_face_witness(4)])
    with pytest.raises(DomainError, match="one shape"):
        PolynomialBlock.of([two_face_witness(3), SimplexPolynomial(3, 3, {})])
    with pytest.raises(DomainError, match="at least one"):
        PolynomialBlock.of([])


# theta_1 theta_2: the cone LP solves it with zero residuals through s=24
CROSS = SimplexPolynomial(3, 2, {(1, 1, 0): 1.0})

# the LP residuals of the Horner sweeps on the two frontier shapes of the
# benchmark's lp_cone workload; both solve, and a residual that grew past
# 1e-8 would exit 3
FRONTIER = [
    (
        two_face_witness(3),
        16,
        "-0x1.1111111111111p-8",
        {
            "primal": "0x1.c800000000000p-32",
            "dual": "0x1.5a00000000000p-52",
            "complementary_slackness": "0x1.7111111111111p-60",
        },
    ),
    (
        sum_of_squares(3),
        13,
        "0x1.20d20d20d20d2p-2",
        {
            "primal": "0x1.cc10000000000p-34",
            "dual": "0x1.4e40000000000p-47",
            "complementary_slackness": "0x1.301aaaaaaaaabp-47",
        },
    ),
]


@pytest.mark.parametrize("g, s, value, residuals", FRONTIER, ids=["witness-d3-s16", "sos-d3-s13"])
def test_frontier_residuals_are_pinned(g, s, value, residuals):
    single = lower_bound_lp(g, s)
    assert single.value.hex() == value
    assert hexed(single.diagnostics["residuals"]) == residuals
    # and the same as a column among others that solve there
    block = PolynomialBlock.of([CROSS, g, two_face_witness(3)])
    [(values, _, _, block_residuals, _)] = solved(block, s)
    assert values[1].hex() == value
    assert hexed({key: v[1] for key, v in block_residuals.items()}) == residuals


def quadratics(d, count, seed):
    rng = np.random.default_rng(seed)
    comps = compositions(2, d)
    return [
        SimplexPolynomial(d, 2, {n: float(rng.uniform(-1, 1)) for n in comps})
        for _ in range(count)
    ]


# finite coefficients whose lift to s=4 is not; the LP and boson routes
# still answer at s=2 and s=3
LIFT_OVERFLOW = SimplexPolynomial(3, 2, {(1, 1, 0): 1e308})
# the cone LP's certificate overflows at s=2, where the oracle still answers
LP_OVERFLOW = SimplexPolynomial(2, 2, {(2, 0): 1e308, (0, 2): 1e308})
# -1e308 theta_1: b and p are finite at s=2, but u = p - c q is not
LP_PRIMAL_OVERFLOW = SimplexPolynomial(2, 1, {(1, 0): -1e308})


def large_quadratic(seed):
    """A d=2 or 3 quadratic with coefficients N(0, 1) * 10^U{6..12}."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    comps = compositions(2, d)
    return SimplexPolynomial(
        d, 2, {n: float(rng.normal() * 10.0 ** rng.integers(6, 13)) for n in comps}
    )


# finite, but its certificate misses the absolute 1e-8 primal contract at s=2
# (a residual of 1.9e-6); the oracle and boson routes answer
LP_UNCERTIFIED = large_quadratic(0)
# an expectation past the float range on the boson diagonal's minimum at s=3
BOSON_OVERFLOW = SimplexPolynomial(3, 2, {(2, 0, 0): 1e308, (1, 1, 0): -1e308})


def same_error(block_call, single_call, kind):
    with pytest.raises(kind) as from_block:
        block_call()
    with pytest.raises(kind) as from_single:
        single_call()
    assert type(from_block.value) is type(from_single.value)
    assert str(from_block.value) == str(from_single.value)
    return from_block.value, from_single.value


class TestOneBadColumn:
    def test_lift_overflow_is_the_single_calls_domain_error(self):
        block = PolynomialBlock.of([*quadratics(3, 2, 1), LIFT_OVERFLOW, *quadratics(3, 2, 2)])
        error, _ = same_error(
            lambda: oracle_block(block, (4,)), lambda: oracle_bound(LIFT_OVERFLOW, 4), DomainError
        )
        assert "s=4" in str(error)
        assert oracle_block(block, (3,))[0][0][2] == oracle_bound(LIFT_OVERFLOW, 3).value

    def test_boson_overflow_is_the_single_calls_domain_error(self):
        block = PolynomialBlock.of([*quadratics(3, 3, 3), BOSON_OVERFLOW])
        same_error(
            lambda: boson_block(block, (3,)), lambda: quantum_bound(BOSON_OVERFLOW, 3), DomainError
        )

    def test_lp_validation_failure_is_the_single_calls_solver_failure(self):
        # the witness at s=24 is past the LP's frontier: a primal residual of 1.6e-4
        past = two_face_witness(3)
        block = PolynomialBlock.of([CROSS, past, CROSS])
        block_error, single_error = same_error(
            lambda: lp_block(block, (24,)), lambda: lower_bound_lp(past, 24), SolverFailure
        )
        assert block_error.diagnostics == single_error.diagnostics
        assert block_error.diagnostics["primal"] > 1e-8

    def test_the_first_bad_column_is_named(self):
        # both fail at s=24, with different residuals
        witness, other = two_face_witness(3), quadratics(3, 1, 4)[0]
        for first, second in ((witness, other), (other, witness)):
            block = PolynomialBlock.of([CROSS, first, second])
            same_error(
                lambda: lp_block(block, (24,)), lambda: lower_bound_lp(first, 24), SolverFailure
            )
        # an uncertified column and an overflowing one: whichever comes first is named
        overflow = SimplexPolynomial(3, 2, {(2, 0, 0): 1e308, (0, 0, 2): 1e308})
        for first, second, kind in (
            (LP_UNCERTIFIED, overflow, SolverFailure),
            (overflow, LP_UNCERTIFIED, DomainError),
        ):
            block = PolynomialBlock.of([*quadratics(3, 2, 6), first, second])
            same_error(lambda: lp_block(block, (2,)), lambda: lower_bound_lp(first, 2), kind)
        block = PolynomialBlock.of([*quadratics(2, 2, 5), LP_OVERFLOW, sum_of_squares(2)])
        error, _ = same_error(
            lambda: lp_block(block, (2,)), lambda: lower_bound_lp(LP_OVERFLOW, 2), DomainError
        )
        assert str(error) == (
            "the cone LP at length s=2 overflows: its certificate exceeds the float range"
        )

    @pytest.mark.parametrize("g", [LP_OVERFLOW, LP_PRIMAL_OVERFLOW], ids=["b", "primal"])
    def test_lp_overflow_is_a_domain_error_naming_the_length(self, g):
        for s in (2, 3):
            with pytest.raises(DomainError, match=f"cone LP at length s={s} overflows"):
                lower_bound_lp(g, s)
        assert np.isfinite(oracle_bound(g, 2).value)


class TestVerifyWithABadObservable:
    """verify evaluates its observables as blocks; a bad one ends it with its error."""

    @pytest.fixture
    def bad_observable(self, monkeypatch):
        import finex.cli

        real = finex.cli._seeded_quadratics

        def install(g, index=7):
            def patched(rng):
                out = real(rng)
                out[index] = (g.d, g.coefficient_vector)
                return out

            monkeypatch.setattr(finex.cli, "_seeded_quadratics", patched)

        return install

    def run_verify(self, capsys):
        code = main(["verify", "--seed", "0"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        return code, captured.err

    def test_lift_overflow_exits_2(self, bad_observable, capsys):
        bad_observable(LIFT_OVERFLOW)
        code, err = self.run_verify(capsys)
        with pytest.raises(DomainError) as single:
            oracle_bound(LIFT_OVERFLOW, 4)
        assert code == 2
        assert err == f"error: {single.value}\n"

    def test_lp_validation_failure_exits_3(self, bad_observable, capsys):
        bad_observable(LP_UNCERTIFIED)
        code, err = self.run_verify(capsys)
        with pytest.raises(SolverFailure) as single:
            lower_bound_lp(LP_UNCERTIFIED, 2)
        assert code == 3
        assert err == f"solver failure: {single.value}\n"
        assert single.value.diagnostics["primal"] > 1e-8

    def test_lp_overflow_exits_2(self, bad_observable, capsys):
        # each route runs at s = 2..5 before the next, and the oracle, first,
        # overflows in the lift to s=4 before the LP runs at all
        bad_observable(LP_OVERFLOW)
        code, err = self.run_verify(capsys)
        with pytest.raises(DomainError) as single:
            oracle_bound(LP_OVERFLOW, 4)
        assert code == 2
        assert err == f"error: {single.value}\n"


def test_the_agreement_check_makes_two_block_calls_per_route(monkeypatch):
    import finex.boson
    import finex.cli

    calls = []

    def counting(method, real):
        def wrapper(block, s, *args):
            calls.append((method, s, block.size))
            return real(block, s, *args)

        return wrapper

    monkeypatch.setattr(finex.cli, "oracle_block", counting("oracle", finex.cli.oracle_block))
    monkeypatch.setattr(finex.cli, "lp_block", counting("lp", finex.cli.lp_block))
    monkeypatch.setattr(finex.boson, "boson_block", counting("boson", finex.boson.boson_block))
    observables = finex.cli._seeded_quadratics(np.random.default_rng(0))
    assert finex.cli._route_agreement(observables, 1e-7)[0]
    # one block per d (2 and 3), three routes, each call over all four lengths
    assert len(calls) == 6
    for method in ("oracle", "lp", "boson"):
        mine = [(s, size) for m, s, size in calls if m == method]
        assert len(mine) == 2
        assert all(s == (2, 3, 4, 5) for s, _ in mine)
        assert sum(size for _, size in mine) == 50


def length_tuples(degree):
    # the lengths 2..5 that the degree allows, a non-contiguous pair that
    # ends at the degree itself (s = 0 for a constant: a sweep of no steps),
    # and that pair with 5 again: two spans of one length, out of order
    return [tuple(range(max(degree, 2), 6)), (5, degree), (5, degree, 5)]


MULTI = [(columns, lengths) for columns, _ in BLOCKS for lengths in length_tuples(columns[0].degree)]
MULTI_IDS = [f"d{cols[0].d}-k{cols[0].degree}-{'.'.join(map(str, t))}" for cols, t in MULTI]


@pytest.mark.parametrize("columns, lengths", MULTI, ids=MULTI_IDS)
@pytest.mark.parametrize("route", [oracle_block, boson_block], ids=["oracle", "boson"])
def test_several_lengths_are_the_one_length_calls(route, columns, lengths):
    block = PolynomialBlock.of(columns)
    results = route(block, lengths)
    assert len(results) == len(lengths)
    for s, (values, rows) in zip(lengths, results):
        [(single_values, single_rows)] = route(block, (s,))
        assert np.array_equal(bits(values), bits(single_values))
        assert np.array_equal(rows, single_rows)


@pytest.mark.parametrize("columns, lengths", MULTI, ids=MULTI_IDS)
def test_the_lp_over_several_lengths_is_the_one_length_solves(columns, lengths):
    block = PolynomialBlock.of(columns)
    results = solved(block, *lengths)
    assert len(results) == len(lengths)
    for (values, rows), result in zip(lp_block(block, lengths), results):
        assert np.array_equal(bits(values), bits(result[0]))
        assert np.array_equal(rows, result[4])
    for s, (values, primal, dual, residuals, rows) in zip(lengths, results):
        [single] = solved(block, s)
        assert np.array_equal(bits(values), bits(single[0]))
        assert np.array_equal(bits(primal), bits(single[1]))
        assert np.array_equal(bits(dual), bits(single[2]))
        assert residuals.keys() == single[3].keys()
        for key, value in residuals.items():
            assert np.array_equal(bits(value), bits(single[3][key]))
        assert np.array_equal(rows, single[4])


def test_a_list_or_range_of_lengths_is_several():
    block = PolynomialBlock.of(quadratics(3, 3, 9))
    expected = oracle_block(block, (2, 3, 4))
    for lengths in ([2, 3, 4], range(2, 5)):
        got = oracle_block(block, lengths)
        assert len(got) == 3
        for (values, rows), (want, want_rows) in zip(got, expected):
            assert np.array_equal(bits(values), bits(want))
            assert np.array_equal(rows, want_rows)
    # one length, as a list or a range, is a list of one
    [(values, rows)] = boson_block(block, (3,))
    for lengths in ([3], range(3, 4)):
        [(got, got_rows)] = boson_block(block, lengths)
        assert np.array_equal(bits(got), bits(values))
        assert np.array_equal(got_rows, rows)


@pytest.mark.parametrize("route", [oracle_block, boson_block, lp_block])
def test_several_lengths_are_each_checked(route):
    block = PolynomialBlock.of(quadratics(2, 2, 10))
    with pytest.raises(DomainError, match="at least one sequence length"):
        route(block, ())
    with pytest.raises(DomainError, match="sequence length must be an integer"):
        route(block, (3, 3.0))
    with pytest.raises(DomainError, match="sequence length 1 < polynomial degree 2"):
        route(block, (3, 1))


class TestTheFirstFailingLength:
    """Over several lengths, the error is the one-length call's at the first that fails."""

    def test_the_lp_names_the_first_failing_length_then_column(self):
        # the d=3 witness misses the primal contract from s=18, and at s=24
        # so does the other quadratic, with different residuals
        witness, other = two_face_witness(3), quadratics(3, 1, 4)[0]
        block = PolynomialBlock.of([CROSS, other, witness])
        for lengths, first in (((24, 18), 24), ((18, 24), 18), ((5, 24, 18), 24)):
            error, single = same_error(
                lambda: lp_block(block, lengths), lambda: lp_block(block, (first,)), SolverFailure
            )
            assert error.diagnostics == single.diagnostics
        # at s=24 the first failing column is named, as one call names it
        _, single = same_error(
            lambda: lp_block(block, (5, 24)), lambda: lower_bound_lp(other, 24), SolverFailure
        )
        assert single.diagnostics["primal"] > 1e-8

    def test_an_lp_overflow_names_its_length(self):
        # it overflows at every length, so the first one given is named, also
        # before 2**60, whose tables are refused before any length is solved
        block = PolynomialBlock.of([*quadratics(2, 2, 5), LP_OVERFLOW])
        for lengths in ((3, 2), (5, 3, 2), (3, 2**60)):
            error, _ = same_error(
                lambda: lp_block(block, lengths), lambda: lp_block(block, lengths[:1]), DomainError
            )
            assert f"cone LP at length s={lengths[0]} overflows" in str(error)
        # given first, the refusal is the error
        same_error(
            lambda: lp_block(block, (2**60, 3)), lambda: lp_block(block, (2**60,)), CapacityError
        )

    def test_the_oracle_names_the_first_length_whose_lift_overflows(self):
        block = PolynomialBlock.of([*quadratics(3, 2, 1), LIFT_OVERFLOW])
        same_error(
            lambda: oracle_block(block, (2, 3, 5, 4)),
            lambda: oracle_block(block, (5,)),
            DomainError,
        )
        assert len(oracle_block(block, (3, 2))) == 2


ROUTES = {"oracle": oracle_block, "lp": lp_block, "boson": boson_block}


@pytest.mark.parametrize("columns, lengths", MULTI, ids=MULTI_IDS)
def test_every_route_returns_values_and_rows_per_length(columns, lengths):
    block = PolynomialBlock.of(columns)
    results = {name: route(block, lengths) for name, route in ROUTES.items()}
    for name, pairs in results.items():
        assert isinstance(pairs, list) and len(pairs) == len(lengths), name
        for s, (values, rows) in zip(lengths, pairs):
            assert values.shape == rows.shape == (block.size,), name
            assert values.dtype == np.float64 and rows.dtype.kind == "i", name
            assert np.all((0 <= rows) & (rows < len(composition_array(s, block.d)))), name
    for s, (_, lp_rows), (_, oracle_rows) in zip(lengths, results["lp"], results["oracle"]):
        urns = urn_values(block, s)
        for j, g in enumerate(columns):
            argmin = tuple(composition_array(s, g.d)[lp_rows[j]].tolist())
            assert argmin == lower_bound_lp(g, s).argmin
            # where the minimum is unique, the LP leaves at the oracle's urn
            column = np.sort(urns[:, j])
            if len(column) == 1 or column[1] - column[0] > 1e-9 * np.abs(column).max():
                assert lp_rows[j] == oracle_rows[j]
