"""Generated documents through the three JSON parsers: the exit-code contract holds.

Each document is valid, or broken the way a user's file can be: a wrong or
non-integer d, a negative or boolean count, a term of another degree, a
NaN, infinite or near-overflow number, a number that is not a number, a
missing key, or a list that is not a list.  Every run of
`bound --format json` on an observable document must end one of two ways:

- exit 0, with stdout that parses as standard JSON (no NaN or Infinity)
  and holds only finite numbers;
- exit 1, 2 or 3, with exactly one stderr line, `error: ...` or
  `solver failure: ...`.

`sample --dist` on a distribution document exits 0 with one CSV row of
faces per draw, or 2 with one `error:` line.  The density-matrix parser
has no command; it returns a state or raises a FinexError, which the CLI
turns into exit 2.  main runs in this process, so an exception it lets
through (a traceback for a user) fails the test directly.  The examples
are derandomized, so every run of the suite draws the same ones.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from finex import boson
from finex.cli import main
from finex.errors import FinexError
from finex.multiindex import compositions

hypothesis = pytest.importorskip("hypothesis")  # declared in the test extra
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

coefficients = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-5, 5),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, 0.0]),
)
FAULTS = (
    "d",
    "negative count",
    "bool count",
    "not homogeneous",
    "coeff type",
    "terms not a list",
    "missing key",
)


@st.composite
def documents(draw):
    d = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    shapes = compositions(degree, d)
    terms = [
        {"counts": list(draw(st.sampled_from(shapes))), "coeff": draw(coefficients)}
        for _ in range(draw(st.integers(0, 4)))
    ]
    doc = {"d": d, "terms": terms}
    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS)))  # about half valid
    if fault in ("negative count", "bool count", "not homogeneous", "coeff type") and not terms:
        terms.append({"counts": list(shapes[0]), "coeff": 1.0})
    i = draw(st.integers(0, d - 1))
    if fault == "d":
        doc["d"] = draw(st.sampled_from([0, -1, d + 1, 2.5, True, "2", None]))
    elif fault == "negative count":
        terms[-1]["counts"][i] = -1
    elif fault == "bool count":
        terms[-1]["counts"][i] = True
    elif fault == "not homogeneous":
        terms[-1]["counts"][i] += 1
    elif fault == "coeff type":
        terms[-1]["coeff"] = draw(st.sampled_from([True, "1.5", None, [1.0]]))
    elif fault == "terms not a list":
        doc["terms"] = draw(st.sampled_from([{}, "x", 3, None, {"counts": [1], "coeff": 1}]))
    elif fault == "missing key":
        del doc[draw(st.sampled_from(["d", "terms"]))]
    return doc


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def run_on(doc, argv):
    """main(argv) with the document written to {path}: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as handle:
            handle.write(json.dumps(doc))  # NaN and inf as Python's json writes them
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(path=path) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def one_error_line(err, prefixes=("error: ",)):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith(prefixes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents(), st.integers(0, 6))
def test_bound_ends_in_json_or_one_error_line(doc, s):
    argv = ["bound", "--observable", "{path}", "--s", str(s), "--format", "json"]
    code, out, err = run_on(doc, argv)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert all(math.isfinite(x) for x in _numbers(_strict_json(out)))
    else:
        assert code in (1, 2, 3)
        assert one_error_line(err, ("error: ", "solver failure: ")), err


DISTRIBUTION_FAULTS = (
    "d",
    "r",
    "prob",
    "prob type",
    "bool count",
    "counts length",
    "not homogeneous",
    "orbits not a list",
    "missing key",
)


@st.composite
def distribution_documents(draw):
    d = draw(st.integers(1, 3))
    r = draw(st.integers(0, 3))
    shapes = compositions(r, d)
    weights = draw(st.lists(st.floats(0, 1), min_size=len(shapes), max_size=len(shapes)))
    total = sum(weights)
    orbits = [
        {"counts": list(n), "prob": w / total if total else 1.0 / len(shapes)}
        for n, w in zip(shapes, weights)
    ]
    doc = {"d": d, "r": r, "orbits": orbits}
    fault = draw(st.one_of(st.none(), st.sampled_from(DISTRIBUTION_FAULTS)))
    i = draw(st.integers(0, d - 1))
    last = orbits[-1]
    if fault == "d":
        doc["d"] = draw(st.sampled_from([0, -1, d + 1, 2.5, True, "2", None]))
    elif fault == "r":
        doc["r"] = draw(st.sampled_from([-1, r + 1, 1.5, False, None]))
    elif fault == "prob":
        last["prob"] = draw(st.sampled_from([-0.5, 2.0, math.nan, math.inf, 1e308]))
    elif fault == "prob type":
        last["prob"] = draw(st.sampled_from([True, "0.5", None, [0.5]]))
    elif fault == "bool count":
        last["counts"][i] = True
    elif fault == "counts length":
        last["counts"].append(0)
    elif fault == "not homogeneous":
        last["counts"][i] += 1
    elif fault == "orbits not a list":
        doc["orbits"] = draw(st.sampled_from([{}, "x", 3, None]))
    elif fault == "missing key":
        del doc[draw(st.sampled_from(["d", "r", "orbits"]))]
    return doc


@settings(max_examples=120, deadline=None, derandomize=True)
@given(distribution_documents(), st.integers(0, 4))
def test_sample_ends_in_rows_or_one_error_line(doc, n):
    code, out, err = run_on(doc, ["sample", "--dist", "{path}", "--n", str(n), "--seed", "3"])
    if code == 0:
        assert err == ""
        rows = out.splitlines()
        assert len(rows) == n
        for row in rows:
            faces = [int(v) for v in row.split(",")] if row else []
            assert len(faces) == doc["r"]
            assert all(1 <= v <= doc["d"] for v in faces)
    else:
        assert (code, out) == (2, "")
        assert one_error_line(err), err


STATE_FAULTS = (
    "d",
    "s",
    "not square",
    "entry",
    "not hermitian",
    "trace",
    "not psd",
    "basis",
    "missing key",
)


@st.composite
def state_documents(draw):
    d = draw(st.integers(1, 3))
    s = draw(st.integers(0, 3))
    basis = boson.OccupationBasis(d, s)
    n = basis.dimension
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * n * n, max_size=2 * n * n))
    z = np.array(parts[: n * n]).reshape(n, n) + 1j * np.array(parts[n * n :]).reshape(n, n)
    m = z @ z.conj().T + np.eye(n)  # positive definite, so every valid document parses
    doc = json.loads(boson.to_json(boson.BosonDensityMatrix(basis, m / np.trace(m).real)))
    fault = draw(st.one_of(st.none(), st.sampled_from(STATE_FAULTS)))
    matrix = doc["matrix"]
    if fault == "d":
        doc["d"] = draw(st.sampled_from([0, d + 1, 2.5, True, None]))
    elif fault == "s":
        doc["s"] = draw(st.sampled_from([-1, s + 1, 1.5, None]))
    elif fault == "not square":
        matrix[-1].append([0.0, 0.0])
    elif fault == "entry":
        bad = [[math.nan, 0.0], [math.inf, 0.0], [True, 0.0], [1.0], 1.0]
        matrix[0][0] = draw(st.sampled_from(bad))
    elif fault == "not hermitian":
        matrix[0][-1][1] += 0.5
        matrix[0][0][1] += 0.5  # a dimension-1 state has only the diagonal
    elif fault == "trace":
        for k in range(n):
            matrix[k][k][0] *= 2.0
    elif fault == "not psd":
        for row in matrix:
            for entry in row:
                entry[0], entry[1] = -entry[0], -entry[1]
    elif fault == "basis":
        doc["basis"] = doc["basis"][::-1] + [[0] * d]
    elif fault == "missing key":
        del doc[draw(st.sampled_from(["d", "s", "matrix"]))]
    return doc, fault


@settings(max_examples=100, deadline=None, derandomize=True)
@given(state_documents())
def test_density_matrix_parser_returns_a_state_or_a_finex_error(case):
    doc, fault = case
    text = json.dumps(doc)
    if fault is None:
        rho = boson.from_json(text)
        assert json.loads(boson.to_json(rho)) == doc
    else:
        with pytest.raises(FinexError):
            boson.from_json(text)
