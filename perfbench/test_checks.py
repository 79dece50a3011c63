"""The checkers accept correct output and reject doctored output.

Correct output is written here from the reference, in the CLI's format
(12 significant digits); each doctored copy changes one thing.

Run with:  python3 -m pytest perfbench/test_checks.py
"""

import json

import numpy as np
import pytest

import checks
import reference
import workloads


def fmt(x: float) -> str:
    return f"{x:.12g}"


def bound_output(ref: checks.BoundReference, shift: dict | None = None) -> str:
    shift = shift or {}
    argmin = [int(v) for v in ref.urns.urns[int(np.argmin(ref.urns.values))]]
    bounds = [
        {"method": m, "value": float(fmt(ref.value + shift.get(m, 0.0))),
         "argmin": None if m == "lp" else argmin}
        for m in ("oracle", "lp", "boson")
    ]
    return json.dumps({"d": ref.d, "s": ref.s, "bounds": bounds, "max_discrepancy": 0.0,
                       "agreement_tolerance": 1e-7, "agree": True})


def curve_output(ref: checks.CurveReference, values: dict | None = None) -> str:
    values = values or ref.values
    v_inf = ref.limit if ref.limit is not None else ref.sample_min
    lines = ["s,v_oracle,v_lp,v_boson,v_infinity"]
    lines += [f"{s},{fmt(values[s])},,{fmt(values[s])},{fmt(v_inf)}" for s in ref.s_range]
    return "\n".join(lines) + "\n"


def verify_output(failing: tuple = ()) -> str:
    lines = []
    for name in checks.VERIFY_CHECKS:
        residual = 21.0 if name == "cone-lp-has-21-rows" else 3.1e-15
        status = "FAIL" if name in failing else "PASS"
        if name in failing:
            residual = 0.001
        lines.append(f"{status}  {name:<34} {fmt(residual)}")
    lines.append(f"{len(failing)} check(s) failed" if failing else "all checks passed")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def bound_ref():
    rng = np.random.default_rng(5)
    return checks.BoundReference(workloads._bound("psd", workloads.psd_quadratic(rng, 4), 5))


@pytest.fixture(scope="module")
def witness_curve_ref():
    return checks.CurveReference(workloads._curve("w", reference.witness(4), 2, 9), seed=0)


@pytest.fixture(scope="module")
def psd_curve_ref():
    rng = np.random.default_rng(6)
    return checks.CurveReference(workloads._curve("p", workloads.psd_quadratic(rng, 4), 2, 9), seed=0)


def test_correct_bound_passes(bound_ref):
    assert checks.check_bound(bound_output(bound_ref), bound_ref) == []


@pytest.mark.parametrize("method", ["oracle", "lp", "boson"])
def test_bound_off_by_1e6_is_rejected(bound_ref, method):
    assert checks.check_bound(bound_output(bound_ref, {method: 1e-6}), bound_ref)


def test_argmin_that_is_not_a_minimiser_is_rejected(bound_ref):
    doc = json.loads(bound_output(bound_ref))
    worst = [int(v) for v in bound_ref.urns.urns[int(np.argmax(bound_ref.urns.values))]]
    doc["bounds"][0]["argmin"] = worst
    assert checks.check_bound(json.dumps(doc), bound_ref)


def test_reported_disagreement_is_rejected(bound_ref):
    doc = json.loads(bound_output(bound_ref))
    doc["agree"] = False
    assert checks.check_bound(json.dumps(doc), bound_ref)


def test_witness_reference_is_its_closed_form():
    ref = checks.BoundReference(workloads._bound("w", reference.witness(6), 7))
    assert ref.value == -1.0 / 42


@pytest.mark.parametrize("name", ["witness_curve_ref", "psd_curve_ref"])
def test_correct_curve_passes(name, request):
    ref = request.getfixturevalue(name)
    assert checks.check_curve(curve_output(ref), ref) == []


def test_curve_that_decreases_in_s_is_rejected(psd_curve_ref):
    values = dict(psd_curve_ref.values)
    values[5], values[6] = values[6], values[5]
    problems = checks.check_curve(curve_output(psd_curve_ref, values), psd_curve_ref)
    assert any("decreases" in p for p in problems)


def test_curve_above_its_limit_is_rejected(witness_curve_ref):
    text = curve_output(witness_curve_ref).replace(",0\n", ",-0.5\n")
    assert checks.check_curve(text, witness_curve_ref)


def test_limit_outside_the_bracket_is_rejected(psd_curve_ref):
    text = curve_output(psd_curve_ref).replace(
        fmt(psd_curve_ref.sample_min), fmt(psd_curve_ref.sample_min + 1e-3)
    )
    assert checks.check_curve(text, psd_curve_ref)


def test_correct_verify_passes():
    assert checks.check_verify(verify_output(), negative_control=False) == []


def test_verify_with_a_fail_line_is_rejected():
    text = verify_output(failing=("occupation-orthonormality",))
    assert checks.check_verify(text, negative_control=False)


def test_verify_with_a_non_finite_residual_is_rejected():
    text = verify_output().replace("3.1e-15", "nan", 1)
    assert checks.check_verify(text, negative_control=False)


def test_correct_negative_control_passes():
    text = verify_output(failing=(checks.NEGATIVE_CONTROL_FAILS,))
    assert checks.check_verify(text, negative_control=True) == []


def test_negative_control_that_passes_is_rejected():
    assert checks.check_verify(verify_output(), negative_control=True)


def test_negative_control_failing_elsewhere_is_rejected():
    text = verify_output(failing=(checks.NEGATIVE_CONTROL_FAILS, "reference-values"))
    assert checks.check_verify(text, negative_control=True)


def test_unexpected_exit_of_a_non_frontier_job_is_a_problem():
    import run

    jobs = [workloads._bound("plain", reference.witness(3), 4),
            workloads._bound("edge", reference.witness(3), 16, frontier=True)]
    exit3 = {"code": 3, "stdout": "", "stderr": "SolverFailure", "seconds": 1.0}
    score = run.score_round(jobs, {}, {"jobs": [exit3, exit3]})
    assert len(score["failed"]) == 2
    assert [p.split(":")[0] for p in score["problems"]] == ["plain"]
    assert score["times"] == {}
