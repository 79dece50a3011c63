"""Command-line surface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from finex.cli import fmt, main
from finex.errors import SolverFailure
from finex.exchangeable import from_sequence_probs, to_json as dist_to_json
from finex.multiindex import (
    composition_array,
    compositions,
    num_compositions,
    orbit_sizes,
    ranks,
)
from finex.polynomial import SimplexPolynomial, two_face_witness, to_json as poly_to_json


@pytest.fixture
def witness_path(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(poly_to_json(two_face_witness()))
    return str(path)


@pytest.fixture
def witness2_path(tmp_path):
    path = tmp_path / "witness2.json"
    path.write_text(poly_to_json(two_face_witness(2)))
    return str(path)


class TestBound:
    def test_all_methods_agree_on_pair_bound(self, witness_path, capsys):
        assert main(["bound", "--observable", witness_path, "--s", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["s"] == 2
        values = {b["method"]: b["value"] for b in doc["bounds"]}
        assert set(values) == {"oracle", "lp", "boson"}
        for v in values.values():
            assert v == pytest.approx(-0.5, abs=1e-7)
        assert doc["max_discrepancy"] <= 1e-7
        assert doc["agree"] is True

    def test_three_rolls(self, witness_path, capsys):
        assert main(["bound", "--observable", witness_path, "--s", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for b in doc["bounds"]:
            assert b["value"] == pytest.approx(-1.0 / 6.0, abs=1e-6)

    def test_single_method_csv(self, witness_path, capsys):
        assert (
            main(
                [
                    "bound",
                    "--observable",
                    witness_path,
                    "--s",
                    "2",
                    "--method",
                    "oracle",
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "method,value"
        assert out[1] == "oracle,-0.5"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["bound", "--observable", str(bad), "--s", "2"]) == 2

    @pytest.mark.parametrize("coeff", ["NaN", "-Infinity", "Infinity"])
    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys, coeff):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"d": 3, "terms": [{"counts": [2, 0, 0], "coeff": 1.0},'
            ' {"counts": [1, 1, 0], "coeff": %s}]}' % coeff
        )
        assert main(["bound", "--observable", str(path), "--s", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "doc, complaint",
        [
            ({"d": 2, "terms": [{"counts": [2, 0], "coeff": "abc"}]}, "coeff must be a number"),
            ({"d": 2, "terms": 5}, "terms must be a list"),
            ({"d": 2, "terms": [{"counts": [True, True], "coeff": 1.0}]}, "non-negative integers"),
        ],
        ids=["string-coeff", "non-list-terms", "boolean-counts"],
    )
    def test_malformed_observable_exits_2(self, tmp_path, capsys, doc, complaint):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", "--observable", str(path), "--s", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert complaint in captured.err

    def test_lifting_overflow_exits_2_naming_the_length(self, tmp_path, capsys):
        # both inputs are finite; their lift to s=4 is not
        path = tmp_path / "huge.json"
        path.write_text(
            '{"d": 3, "terms": [{"counts": [2, 0, 0], "coeff": 1e308},'
            ' {"counts": [1, 1, 0], "coeff": -1e308}]}'
        )
        assert main(["bound", "--observable", str(path), "--s", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "s=4" in captured.err and "overflow" in captured.err
        assert "(" not in captured.err  # no count vector, lifted or not

    def test_boson_overflow_exits_2_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"d": 3, "terms": [{"counts": [2, 0, 0], "coeff": 1e308},'
            ' {"counts": [1, 1, 0], "coeff": -1e308}]}'
        )
        argv = ["bound", "--observable", str(path), "--s", "4", "--method", "boson"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning raises
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "s=4" in captured.err

    def test_missing_file_exits_2(self):
        assert main(["bound", "--observable", "/nonexistent.json", "--s", "2"]) == 2

    def test_s_below_degree_exits_2(self, witness_path):
        assert main(["bound", "--observable", witness_path, "--s", "1"]) == 2

    def test_solver_failure_exits_3(self, witness_path, monkeypatch):
        import finex.cli as cli_module

        def boom(g, s):
            raise SolverFailure("injected failure")

        monkeypatch.setattr(cli_module, "oracle_bound", boom)
        assert (
            main(
                ["bound", "--observable", witness_path, "--s", "2", "--method", "oracle"]
            )
            == 3
        )

    def test_lp_past_its_frontier_exits_3(self, tmp_path, capsys):
        path = tmp_path / "witness3.json"
        path.write_text(poly_to_json(two_face_witness(3)))
        assert main(["bound", "--observable", str(path), "--s", "24"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "residuals" in captured.err

    def test_large_coefficient_range_agrees(self, tmp_path, capsys):
        # 18 orders of magnitude between the coefficients
        path = tmp_path / "wide.json"
        path.write_text(
            '{"d": 3, "terms": [{"counts": [2, 0, 0], "coeff": 1e12},'
            ' {"counts": [1, 1, 0], "coeff": -1e-6},'
            ' {"counts": [0, 2, 0], "coeff": 1.0}]}'
        )
        assert main(["bound", "--observable", str(path), "--s", "4", "--method", "all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["method"] for b in doc["bounds"]] == ["oracle", "lp", "boson"]
        assert doc["agree"] is True
        for b in doc["bounds"]:
            assert b["value"] == pytest.approx(-1e-6 / 12, rel=1e-9)

    def test_dump_lp(self, witness_path, capsys):
        assert (
            main(
                [
                    "bound",
                    "--observable",
                    witness_path,
                    "--s",
                    "2",
                    "--method",
                    "lp",
                    "--dump-lp",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "maximize c" in out
        assert "rows=21" in out

    def test_dump_lp_refuses_past_the_dense_cap(self, witness_path, capsys):
        # the six-face witness at s=12 has N = 6188 rows; the cap is 4096
        argv = ["bound", "--observable", witness_path, "--s", "12", "--method", "lp", "--dump-lp"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: the cone LP listing has N = 6188 rows, over the dense cap 4096\n"
        assert peak < 16e6

    def test_dump_lp_prints_at_the_largest_six_face_length_under_the_cap(self, witness_path, capsys):
        argv = ["bound", "--observable", witness_path, "--s", "10", "--method", "lp", "--dump-lp"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("rows=3003  columns=3004")
        assert sum(line.startswith("[") for line in lines) == 3003

    def test_tolerance_env_override(self, witness_path, capsys, monkeypatch):
        monkeypatch.setenv("FINEX_TOL", "0.5")
        assert main(["bound", "--observable", witness_path, "--s", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement_tolerance"] == 0.5
        # flag takes precedence over the environment
        monkeypatch.setenv("FINEX_TOL", "0.25")
        assert (
            main(["bound", "--observable", witness_path, "--s", "2", "--tol", "1e-9"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement_tolerance"] == 1e-9

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_flag_exits_2(self, witness_path, capsys, value):
        for tol in ([f"--tol={value}"], ["--tol", value]):  # a bare -inf is --tol's value
            argv = ["bound", "--observable", witness_path, "--s", "2", *tol]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --tol must be a finite number >= 0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_env_exits_2(self, witness_path, capsys, monkeypatch, value):
        monkeypatch.setenv("FINEX_TOL", value)
        assert main(["bound", "--observable", witness_path, "--s", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: FINEX_TOL='{value}' must be a finite")
        assert main(["verify", "--seed", "0"]) == 2

    def test_zero_tolerance_is_accepted(self, witness_path, capsys):
        argv = ["bound", "--observable", witness_path, "--s", "2", "--tol", "0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["agreement_tolerance"] == 0.0


class TestOrbitSizesPastTheFloatRange:
    """On the d=2 witness the multinomial C(s, s/2) passes the float range at s = 1030."""

    @pytest.mark.parametrize(
        "argv, length",
        [
            (["bound", "--observable", "{witness}", "--s", "1100", "--method", "oracle"], 1100),
            (["bound", "--observable", "{witness}", "--s", "1100", "--method", "lp"], 1100),
            (["curve", "--observable", "{witness}", "--s-min", "1029", "--s-max", "1030"], 1030),
        ],
        ids=["oracle", "lp", "curve"],
    )
    def test_exits_2_with_one_error_line(self, argv, length, witness2_path, capsys):
        assert main([arg.format(witness=witness2_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        # the length asked for, not the lift's length s - deg(g)
        assert len(lines) == 1 and lines[0].startswith(f"error: the orbit sizes of length-{length} ")
        assert "over d=2" in lines[0] and "float range" in lines[0]

    def test_the_boson_route_still_answers(self, witness2_path, capsys):
        argv = ["bound", "--observable", witness2_path, "--s", "1100", "--method", "boson"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        # at the Fock state (550, 550): (2 * 550 * 549 - 550 * 550) / (1100 * 1099)
        value = float(fmt(301400 / 1208900))
        assert doc["bounds"] == [{"method": "boson", "value": value, "argmin": [550, 550]}]


class TestCurve:
    def test_six_face_single_point(self, witness_path, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            main(
                [
                    "curve",
                    "--observable",
                    witness_path,
                    "--s-min",
                    "2",
                    "--s-max",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,v_oracle,v_lp,v_boson,v_infinity"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert float(fields[1]) == pytest.approx(-0.5, abs=1e-9)
        assert float(fields[2]) == pytest.approx(-0.5, abs=1e-7)
        assert float(fields[3]) == pytest.approx(-0.5, abs=1e-9)
        assert float(fields[4]) == pytest.approx(0.0, abs=1e-6)

    def test_six_face_short_range(self, witness_path, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            main(
                [
                    "curve",
                    "--observable",
                    witness_path,
                    "--s-min",
                    "2",
                    "--s-max",
                    "4",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        expected = {2: -1.0 / 2.0, 3: -1.0 / 6.0, 4: -1.0 / 12.0}
        for row in rows:
            s = int(row[0])
            for col in (1, 2, 3):
                assert float(row[col]) == pytest.approx(expected[s], abs=1e-7)
            assert float(row[4]) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_curve_with_lp_cap(self, witness2_path, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            main(
                [
                    "curve",
                    "--observable",
                    witness2_path,
                    "--s-min",
                    "2",
                    "--s-max",
                    "6",
                    "--lp-cap",
                    "4",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        oracle = [float(r[1]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(oracle, oracle[1:]))
        # boson column tracks the oracle; lp column is empty above the cap
        for r in rows:
            assert float(r[3]) == pytest.approx(float(r[1]), abs=1e-9)
            if int(r[0]) <= 4:
                assert float(r[2]) == pytest.approx(float(r[1]), abs=1e-7)
            else:
                assert r[2] == ""

    def test_csv_roundtrip_exact(self, witness2_path, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        main(
            [
                "curve",
                "--observable",
                witness2_path,
                "--s-min",
                "2",
                "--s-max",
                "4",
                "--out",
                str(out),
            ]
        )
        first = out.read_text()
        main(
            [
                "curve",
                "--observable",
                witness2_path,
                "--s-min",
                "2",
                "--s-max",
                "4",
                "--out",
                str(out),
            ]
        )
        assert out.read_text() == first

    def test_one_outcome_observable_finishes(self, tmp_path, capsys):
        # the simplex of one outcome is a single point; the grid scan must not search for more
        path = tmp_path / "one.json"
        path.write_text('{"d": 1, "terms": [{"counts": [2], "coeff": 1.0}]}')
        start = time.perf_counter()
        assert main(["curve", "--observable", str(path), "--s-min", "2", "--s-max", "4"]) == 0
        assert time.perf_counter() - start < 2.0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "s,v_oracle,v_lp,v_boson,v_infinity"
        assert [line.split(",")[4] for line in lines[1:]] == ["1", "1", "1"]

    def test_empty_range_exits_2(self, witness_path):
        assert (
            main(
                [
                    "curve",
                    "--observable",
                    witness_path,
                    "--s-min",
                    "5",
                    "--s-max",
                    "2",
                ]
            )
            == 2
        )


def psd_quadratic(d, seed):
    """theta^T A^T A theta for a seeded Gaussian 3d x d matrix A."""
    a = np.random.default_rng(seed).normal(size=(3 * d, d))
    q = a.T @ a
    terms = {}
    for i in range(d):
        for j in range(i, d):
            n = [0] * d
            n[i] += 1
            n[j] += 1
            terms[tuple(n)] = float(q[i, j] if i == j else 2.0 * q[i, j])
    return SimplexPolynomial(d, 2, terms)


def term_major_lift_block(block, target_degree):
    """lift_block with one fault: products laid out term-major, rank keys m-major.

    Each product of a lift composition m and a term n then lands on the urn
    of another (m, n) pair, so the lifted coefficients sit on the wrong urns.
    """
    lift = target_degree - block.degree
    d = block.d
    keys = (composition_array(lift, d)[:, None, :] + block.term_counts[None, :, :]).reshape(-1, d)
    products = block.coefficients[:, None, :] * orbit_sizes(lift, d)[None, :, None]
    values = np.zeros((num_compositions(target_degree, d), block.size))
    np.add.at(values, ranks(keys, target_degree), products.reshape(-1, block.size))
    return values


class TestLiftMutant:
    """A faulty lift must be caught by the routes' agreement in the commands.

    The sqrt mutant weights each lift composition by the square root of its
    orbit size; the term-major mutant is term_major_lift_block, in place of
    the lift the oracle calls (polynomial._lift, below lift_block).  Only
    the oracle lifts: the cone LP reduces g itself and the boson route sums
    falling factorials, so the oracle alone is wrong, and each route still
    answers on its own.
    """

    @pytest.fixture
    def sqrt_lift(self, monkeypatch):
        import finex.multiindex
        import finex.polynomial

        real = finex.multiindex.orbit_sizes
        monkeypatch.setattr(finex.polynomial, "orbit_sizes", lambda r, d: np.sqrt(real(r, d)))

    @pytest.fixture(params=["sqrt", "term-major"])
    def faulty_lift(self, request, monkeypatch):
        import finex.exchangeable
        import finex.polynomial

        if request.param == "sqrt":
            request.getfixturevalue("sqrt_lift")
        else:
            for module in (finex.polynomial, finex.exchangeable):
                monkeypatch.setattr(module, "_lift", term_major_lift_block)

    @pytest.fixture
    def psd_path(self, tmp_path):
        path = tmp_path / "psd.json"
        path.write_text(poly_to_json(psd_quadratic(5, 11)))
        return str(path)

    def test_bound_all_exits_1(self, faulty_lift, psd_path, capsys):
        argv = ["bound", "--observable", psd_path, "--s", "7", "--method", "all"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["agree"] is False
        assert doc["max_discrepancy"] > doc["agreement_tolerance"]
        assert captured.err.startswith("error: the routes disagree") and "s=7" in captured.err
        assert captured.err.count("\n") == 1

    def test_bound_all_writes_the_csv_first(self, sqrt_lift, psd_path, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        argv = ["bound", "--observable", psd_path, "--s", "7", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_text().splitlines()[0] == "method,value"
        assert len(out.read_text().splitlines()) == 4
        assert capsys.readouterr().err.startswith("error: the routes disagree")

    def test_verify_exits_1(self, faulty_lift, capsys):
        assert main(["verify", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert "FAIL  three-method-agreement" in captured.out
        assert captured.err == ""

    def test_verify_names_the_worst_case(self, sqrt_lift, capsys):
        import re

        import finex.cli
        from finex.bernstein_lp import lower_bound_lp
        from finex.boson import quantum_bound
        from finex.exchangeable import oracle_bound

        assert main(["verify", "--seed", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL  three-method-agreement")
        found = re.fullmatch(
            r"      worst case: observable (\d+) of the seed's stream \(d=(\d+)\) at s=(\d+); "
            r"(\w+) is farthest from the other two routes",
            lines[1],
        )
        assert found is not None
        assert lines[2].startswith("PASS")
        # recompute every spread by single calls: the named case is the first largest
        observables = [
            SimplexPolynomial(d, 2, dict(zip(compositions(2, d), vector.tolist())))
            for d, vector in finex.cli._seeded_quadratics(np.random.default_rng(0))
        ]
        spreads = {}
        for i, g in enumerate(observables):
            for s in range(2, 6):
                values = [f(g, s).value for f in (oracle_bound, lower_bound_lp, quantum_bound)]
                spreads[i, s] = (max(values) - min(values), values)
        (i, s), (worst, values) = max(spreads.items(), key=lambda item: item[1][0])
        assert (int(found[1]), int(found[2]), int(found[3])) == (i, observables[i].d, s)
        assert lines[0].split()[-1] == finex.cli.fmt(worst)
        assert found[4] == "oracle"
        assert abs(values[1] - values[2]) < 1e-12 < abs(values[0] - values[1])

    def test_bound_lp_alone_is_right(self, sqrt_lift, psd_path, capsys):
        argv = ["bound", "--observable", psd_path, "--s", "7", "--method", "lp"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = {"method": "lp", "value": 0.871924119567, "argmin": [0, 0, 3, 2, 2]}
        assert doc["bounds"] == [expected]

    def test_curve_exits_1_naming_the_lengths(self, sqrt_lift, psd_path, capsys):
        # at s=3 the lift is by one degree, where every orbit size is 1 and
        # the mutant is exact
        argv = ["curve", "--observable", psd_path, "--s-min", "3", "--s-max", "5", "--lp-cap", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 4
        assert captured.err.startswith("error: the routes disagree")
        assert "s=4" in captured.err and "s=5" in captured.err and "s=3" not in captured.err

    def test_curve_reads_the_tolerance(self, sqrt_lift, psd_path, capsys, monkeypatch):
        argv = ["curve", "--observable", psd_path, "--s-min", "3", "--s-max", "5", "--lp-cap", "1"]
        monkeypatch.setenv("FINEX_TOL", "1")
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setenv("FINEX_TOL", "nan")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FINEX_TOL='nan' must be a finite")


class TestOneLiftPerLength:
    """The oracle lifts once per length, and the LP and boson routes never do.

    Every lift goes through polynomial._lift: lift_block calls it after
    checking the length (homogenize through lift_block), and the oracle's
    urn_values after the route has checked its lengths.  So the count wraps
    it in each finex module that binds the name.
    """

    @pytest.fixture
    def lifts(self, monkeypatch):
        import finex.bernstein_lp
        import finex.boson
        import finex.cli
        import finex.exchangeable
        import finex.polynomial

        lengths = []
        real = finex.polynomial._lift

        def counting(block, s):
            lengths.append(s)
            return real(block, s)

        modules = (finex.polynomial, finex.exchangeable, finex.bernstein_lp, finex.boson, finex.cli)
        for module in modules:
            if hasattr(module, "_lift"):
                monkeypatch.setattr(module, "_lift", counting)
        return lengths

    def test_bound_all_lifts_once(self, lifts, witness_path, capsys):
        assert main(["bound", "--observable", witness_path, "--s", "5", "--method", "all"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True
        assert lifts == [5]

    def test_bound_lp_never_lifts(self, lifts, witness_path, capsys):
        assert main(["bound", "--observable", witness_path, "--s", "5", "--method", "lp"]) == 0
        assert json.loads(capsys.readouterr().out)["bounds"][0]["method"] == "lp"
        assert lifts == []

    def test_curve_lifts_once_per_length(self, lifts, witness_path, capsys):
        argv = ["curve", "--observable", witness_path, "--s-min", "2", "--s-max", "6"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6
        assert lifts == [2, 3, 4, 5, 6]

    def test_verify_lifts_once_per_block_and_length(self, lifts, capsys):
        # the agreement row's two blocks (d = 2 and 3) at s = 2..5, then the
        # reference-values row's witness at s = 2 and 3
        assert main(["verify", "--seed", "0"]) == 0
        assert lifts == [2, 3, 4, 5] * 2 + [2, 3]


class TestVerify:
    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--seed" in captured.err

    def test_default_run_passes(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7
        assert len(out.splitlines()) == 8  # no worst-case line under a PASS

    def test_injected_perturbation_fails(self, capsys):
        assert main(["verify", "--seed", "0", "--inject-perturbation"]) == 1
        out = capsys.readouterr().out
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["symmetrizer-projector"]
        # the perturbed symmetrizer must not reach the cached bases
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    @pytest.mark.parametrize("seed", [5, 7, 17, 123456])  # seed 0: the test above
    def test_injected_perturbation_fails_only_the_projector_row(self, seed, capsys):
        assert main(["verify", "--seed", str(seed), "--inject-perturbation"]) == 1
        out = capsys.readouterr().out
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["symmetrizer-projector"]
        assert out.count("PASS") == 6

    # 00...0 and 00...1 lie in different orbits; every permutation fixes 00...0,
    # so pi P sees the entry at (0, 1) and P pi the one at (1, 0), each only there
    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)], ids=["column-side", "row-side"])
    def test_an_off_orbit_symmetrizer_entry_fails_the_absorption_row(
        self, entry, capsys, monkeypatch
    ):
        from finex import boson

        exact = boson.symmetrizer

        def off_orbit(s, d):
            pi = exact(s, d)
            pi[entry] = 1e-3
            return pi

        monkeypatch.setattr(boson, "symmetrizer", off_orbit)
        assert main(["verify", "--seed", "0"]) == 1
        rows = {line.split()[1]: line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith(("PASS", "FAIL"))}
        # the entry is compared with a zero orbit-mate entry
        assert rows["symmetrizer-absorbs-permutations"] == [
            "FAIL", "symmetrizer-absorbs-permutations", "0.001"
        ]

    # 00...1 no longer matches its orbit-mates in row 1 (seen by P rho only)
    # or in column 1 (seen by rho P^T only)
    @pytest.mark.parametrize("entry", [(1, 0), (0, 1)], ids=["row-side", "column-side"])
    def test_orbit_mates_that_differ_fail_the_state_row(self, entry, capsys, monkeypatch):
        from finex import boson

        exact = boson.BosonDensityMatrix.dense

        def split_orbit(self):
            dense = exact(self)
            dense[entry] += 1e-3
            return dense

        monkeypatch.setattr(boson.BosonDensityMatrix, "dense", split_orbit)
        assert main(["verify", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["state-index-symmetry"]

    def test_no_dense_permutation_matrix_is_built(self, capsys, monkeypatch):
        from finex import boson

        def refuse(perm, d):
            raise AssertionError("verify built a dense permutation matrix")

        monkeypatch.setattr(boson, "permutation_matrix", refuse)
        assert main(["verify", "--seed", "0"]) == 0
        assert capsys.readouterr().out.count("PASS") == 7

    def test_deterministic_output(self, capsys):
        main(["verify", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestSample:
    def test_urn_support(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert (
            main(
                [
                    "sample",
                    "--urn",
                    "1,1,0,0,0,0",
                    "--n",
                    "1000",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1000
        assert set(rows) == {"1,2", "2,1"}

    def test_pair_distribution_frequencies(self, tmp_path):
        probs = {}
        for i in range(6):
            for j in range(6):
                probs[(i, j)] = 0.0 if i == j else 1.0 / 30.0
        dist = from_sequence_probs(probs, 6, 2)
        dist_path = tmp_path / "pairs.json"
        dist_path.write_text(dist_to_json(dist))
        out = tmp_path / "draws.csv"
        assert (
            main(
                [
                    "sample",
                    "--dist",
                    str(dist_path),
                    "--n",
                    "100000",
                    "--seed",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = out.read_text().strip().splitlines()
        counts = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        for i in range(1, 7):
            assert counts.get(f"{i},{i}", 0) == 0  # doubles never occur
        for row, count in counts.items():
            assert count / 100000 == pytest.approx(1.0 / 30.0, abs=0.005)

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["sample", "--urn", "2,1", "--n", "50", "--seed", "9", "--out", str(path)])
        assert a.read_text() == b.read_text()

    def test_zero_draws_print_nothing(self, tmp_path, capsys):
        # no draws, no lines: stdout stays empty, as --out writes an empty file
        assert main(["sample", "--urn", "2,1", "--n", "0"]) == 0
        assert capsys.readouterr() == ("", "")
        path = tmp_path / "none.csv"
        assert main(["sample", "--urn", "2,1", "--n", "0", "--out", str(path)]) == 0
        assert path.read_text() == ""
        assert capsys.readouterr() == ("", "")

    def test_requires_a_source(self):
        assert main(["sample", "--n", "10"]) == 2

    def test_bad_urn_exits_2(self):
        assert main(["sample", "--urn", "1,x", "--n", "10"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["sample", "--urn", "1,1", "--n", "2", "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--seed" in captured.err

    @pytest.mark.parametrize(
        "doc, complaint",
        [
            ({"d": 2, "r": 2, "orbits": [{"counts": [1, 1], "prob": "abc"}]}, "prob must be a number"),
            ({"d": 2, "r": 2, "orbits": [{"counts": [1, 1], "prob": None}]}, "prob must be a number"),
            ({"d": 2, "r": 2, "orbits": 5}, "orbits must be a list"),
            ({"d": 2, "r": 2, "orbits": [{"counts": [True, True], "prob": 1.0}]}, "counts must be"),
            ({"d": True, "r": 1, "orbits": [{"counts": [1], "prob": 1.0}]}, "d must be"),
            ({"d": 2.0, "r": 2, "orbits": [{"counts": [1, 1], "prob": 1.0}]}, "d must be"),
            ({"d": 2, "r": False, "orbits": [{"counts": [0, 0], "prob": 1.0}]}, "r must be"),
            ({"d": 2, "r": 2.5, "orbits": [{"counts": [1, 1], "prob": 1.0}]}, "r must be"),
        ],
        ids=[
            "string-prob",
            "null-prob",
            "non-list-orbits",
            "boolean-counts",
            "boolean-d",
            "float-d",
            "boolean-r",
            "float-r",
        ],
    )
    def test_malformed_distribution_exits_2(self, tmp_path, capsys, doc, complaint):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--dist", str(path), "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert complaint in captured.err


class TestCoinDemo:
    def test_output_contents(self, capsys):
        assert main(["coin-demo"]) == 0
        out = capsys.readouterr().out
        assert "Tr(D rho) = -0.5" in out
        assert "product-state minimum of the witness polynomial = 0" in out
        assert "witness fires" in out
        assert out.count("0.5") >= 4  # the four central entries of rho

    def test_witness_value_mismatch_exits_1(self, capsys, monkeypatch):
        import finex.boson
        from finex.polynomial import DiagonalObservable

        real = finex.boson.witness_value

        def shifted(observable, rho):
            # the polynomial's path is off by 1e-9; the matrix path is exact
            shift = 1e-9 if isinstance(observable, DiagonalObservable) else 0.0
            return real(observable, rho) + shift

        monkeypatch.setattr(finex.boson, "witness_value", shifted)
        assert main(["coin-demo"]) == 1
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert captured.err == "error: the witness polynomial and D disagree on Tr(D rho)\n"


class TestNoCommandReachesTheSimplex:
    """The cone LP is solved structurally; the general simplex is a test reference."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--observable", "{witness}", "--s", "4", "--method", "all"],
            ["bound", "--observable", "{witness}", "--s", "4", "--method", "all", "--dump-lp"],
            ["curve", "--observable", "{witness}", "--s-min", "2", "--s-max", "5"],
            ["verify", "--seed", "0"],
            ["coin-demo"],
        ],
        ids=["bound", "bound-dump-lp", "curve", "verify", "coin-demo"],
    )
    def test_output_unchanged_with_the_simplex_refusing(
        self, argv, witness_path, capsys, monkeypatch
    ):
        import finex.bernstein_lp
        import finex.solvers

        argv = [arg.format(witness=witness_path) for arg in argv]
        assert main(argv) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a command reached the general simplex")

        monkeypatch.setattr(finex.solvers, "simplex_solve", refuse)
        monkeypatch.setattr(finex.bernstein_lp, "simplex_solve", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestOutputFailures:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--observable", "{witness}", "--s", "2"],
            ["curve", "--observable", "{witness}", "--s-min", "2", "--s-max", "2"],
            ["sample", "--urn", "1,1", "--n", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_2(self, argv, witness_path, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        argv = [arg.format(witness=witness_path) for arg in argv] + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output file")
        assert str(out) in captured.err

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_pipe_exits_2_without_a_traceback(self, unbuffered):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "finex", "verify", "--seed", "0"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


class TestOutOfMemory:
    """A size past what the machine holds exits 2 with one error line, not a traceback."""

    def test_address_space_limit_exits_2(self, witness_path):
        import resource

        limit = 1 << 30  # 1 GiB of address space: far below what d=6, s=120 needs
        proc = subprocess.run(
            [sys.executable, "-m", "finex", "bound", "--observable", witness_path,
             "--s", "120", "--method", "lp"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                     OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), proc.stderr

    def test_a_bare_memory_error_exits_2(self, witness_path, capsys, monkeypatch):
        import finex.cli

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(finex.cli, "oracle_bound", exhausted)
        assert main(["bound", "--observable", witness_path, "--s", "3"]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_runs_as_a_module(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "finex", "verify", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("all checks passed\n")

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2


class TestParserReuse:
    """main() prints the same in one process, call after call, as in fresh processes."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def fresh(self, argv):
        env = dict(os.environ, PYTHONPATH=self.SRC, COLUMNS="80")
        proc = subprocess.run(
            [sys.executable, "-m", "finex", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_one_process_prints_what_fresh_processes_print(
        self, witness_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "80")  # as in fresh(); the help text is never wrapped
        calls = [
            ["bound", "--observable", witness_path],  # no --s: a usage error
            ["verify", "--seed", "0"],
            ["--help"],
            ["--help"],
            ["curve", "--help"],
        ]
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == self.fresh(argv), argv
        assert main(calls[0]) == 2
