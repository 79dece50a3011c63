"""simplex_minimum against the exact standard-quadratic minimum, and across scales."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from finex.boson import _grid_argmin, simplex_minimum
from finex.multiindex import compositions
from finex.polynomial import (
    SimplexPolynomial,
    evaluate,
    sum_of_squares,
    to_json,
    two_face_witness,
)
from stqp_reference import stqp_minimum

SRC = str(Path(__file__).resolve().parents[1] / "src")


def seeded(rng, d, degree):
    """Coefficients uniform in [-1, 1] on every term: indefinite in general."""
    terms = {n: float(rng.uniform(-1, 1)) for n in compositions(degree, d)}
    return SimplexPolynomial(d, degree, terms)


def psd_form(rng, d, rows):
    """theta^T A^T A theta for a Gaussian rows x d matrix A, scaled to largest entry 1."""
    a = rng.normal(size=(rows, d))
    q = a.T @ a
    q /= np.abs(q).max()
    terms = {}
    for i in range(d):
        for j in range(i, d):
            n = [0] * d
            n[i] += 1
            n[j] += 1
            terms[tuple(n)] = float(q[i, j] if i == j else 2.0 * q[i, j])
    return SimplexPolynomial(d, 2, terms)


def seeded_quadratics():
    rng = np.random.default_rng(2026)
    forms = []
    for k in range(40):
        d = 2 + k % 3
        forms.append(("indefinite", seeded(rng, d, 2)))
        forms.append(("square-A PSD", psd_form(rng, d, d)))
        forms.append(("tall-A PSD", psd_form(rng, d, 3 * d)))
    return forms


def exact_value(g, x):
    """g at a point with Fraction coordinates, exactly."""
    total = Fraction(0)
    for n, c in g.terms.items():
        term = Fraction(c)
        for t, e in zip(x, n):
            term *= t**e
        total += term
    return total


class TestReference:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_closed_forms(self, d):
        assert stqp_minimum(sum_of_squares(d))[0] == Fraction(1, d)
        # with no third face the witness's minimum is 1/4, at (1/2, 1/2)
        assert stqp_minimum(two_face_witness(d))[0] == (Fraction(1, 4) if d == 2 else 0)

    def test_the_value_is_attained_and_no_grid_point_is_lower(self):
        rng = np.random.default_rng(7)
        grid = [(Fraction(i, 12), Fraction(j, 12)) for i in range(13) for j in range(13 - i)]
        for _ in range(10):
            g = seeded(rng, 3, 2)
            value, x = stqp_minimum(g)
            assert min(x) >= 0 and sum(x) == 1
            assert exact_value(g, x) == value
            assert all(exact_value(g, (a, b, 1 - a - b)) >= value for a, b in grid)


def test_matches_the_exact_minimum_on_seeded_quadratics():
    forms = seeded_quadratics()
    assert len(forms) >= 100
    for kind, g in forms:
        exact, _ = stqp_minimum(g)
        s = Fraction(max(1.0, max(abs(c) for c in g.terms.values())))
        value = Fraction(simplex_minimum(g))
        assert exact - 4 * Fraction(1, 2**52) * s <= value, (kind, g.terms)
        assert value <= exact + Fraction(1, 10**9) * s, (kind, g.terms)


def scaled(g, k):
    out = SimplexPolynomial(g.d, g.degree, {n: math.ldexp(c, k) for n, c in g.terms.items()})
    assert out.terms.keys() == g.terms.keys()  # the absolute prune dropped no term
    return out


@pytest.mark.parametrize("k", [-40, 60, 900])
@pytest.mark.parametrize(
    "g",
    [
        two_face_witness(4),
        sum_of_squares(5),
        seeded(np.random.default_rng(11), 4, 2),
        seeded(np.random.default_rng(12), 3, 3),
    ],
    ids=["witness", "sum-of-squares", "quadratic", "cubic"],
)
def test_scaling_by_a_power_of_two_is_exact(g, k):
    assert simplex_minimum(scaled(g, k)) == math.ldexp(simplex_minimum(g), k)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_never_ends_above_the_grids_best_point(degree):
    rng = np.random.default_rng(13)
    for d in (2, 3, 5):
        g = seeded(rng, d, degree)
        assert simplex_minimum(g) <= evaluate(g, _grid_argmin(g))


def run_curve(tmp_path, g, s_max):
    path = tmp_path / "observable.json"
    path.write_text(to_json(g))
    argv = ["curve", "--observable", str(path), "--s-min", "2", "--s-max", str(s_max)]
    return subprocess.run(
        [sys.executable, "-m", "finex", *argv, "--lp-cap", "1"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )


def test_curve_on_a_huge_witness_prints_its_limit(tmp_path):
    terms = {n: 1e20 * c for n, c in two_face_witness(3).terms.items()}
    proc = run_curve(tmp_path, SimplexPolynomial(3, 2, terms), 3)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["0", "0"]


def test_curve_near_the_float_range_prints_its_limit(tmp_path):
    g = SimplexPolynomial(2, 2, {(2, 0): 1e308, (1, 1): 1e308, (0, 2): 1e308})
    proc = run_curve(tmp_path, g, 2)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split(",")[-1] == "7.5e+307"
