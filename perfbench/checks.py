"""Checks of finex's printed output against the benchmark's own references.

Each check_* function returns a list of problems; an empty list means the
output is correct.  References come from reference.py (the urn formula
and closed forms), never from finex and never from stored output.  The
CLI prints 12 significant digits, well inside the 1e-8 tolerances used.
"""

from __future__ import annotations

import json
import math

import reference

VALUE_TOL = 1e-8       # all bounds: |value - ref| <= VALUE_TOL * max(1, |ref|)
SAMPLE_SLACK = 1e-6    # v_infinity may exceed the sampled simplex minimum by this

VERIFY_CHECKS = (
    "three-method-agreement",
    "symmetrizer-projector",
    "symmetrizer-absorbs-permutations",
    "occupation-orthonormality",
    "state-index-symmetry",
    "cone-lp-has-21-rows",
    "reference-values",
)
NEGATIVE_CONTROL_FAILS = "symmetrizer-projector"


def tol(ref: float) -> float:
    return VALUE_TOL * max(1.0, abs(ref))


def closed_form_bound(g: dict, s: int) -> float | None:
    if g == reference.witness(len(next(iter(g)))):
        return reference.witness_bound(s)
    return None


def closed_form_limit(g: dict) -> float | None:
    d = len(next(iter(g)))
    if g == reference.witness(d):
        return reference.WITNESS_LIMIT
    if g == reference.sum_of_squares(d):
        return reference.sum_of_squares_limit(d)
    return None


class BoundReference:
    """Worst case at one length: the urn minimum, or its closed form."""

    def __init__(self, job: dict):
        g = job["observable"]
        self.d = len(next(iter(g)))
        self.s = job["s"]
        self.urns = reference.UrnMinimum(g, self.s)
        closed = closed_form_bound(g, self.s)
        if closed is not None and abs(closed - self.urns.value) > 1e-12:
            raise AssertionError(f"{job['name']}: urn formula {self.urns.value} != closed form {closed}")
        self.value = self.urns.value if closed is None else closed


class CurveReference:
    """Worst case at every length of a curve, and a bracket for the limit."""

    def __init__(self, job: dict, seed: int):
        g = job["observable"]
        self.s_range = range(job["s_min"], job["s_max"] + 1)
        self.values = {s: reference.minimum(g, s) for s in self.s_range}
        self.limit = closed_form_limit(g)
        self.sample_min = reference.simplex_sample_minimum(g, seed)
        if not self.values[job["s_min"]] < self.values[job["s_max"]]:
            raise AssertionError(f"{job['name']}: worst case does not move with s")


def _near(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol(ref)


def check_bound(stdout: str, ref: BoundReference) -> list[str]:
    try:
        doc = json.loads(stdout)
        bounds = {b["method"]: b for b in doc["bounds"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable bound output: {exc}"]
    problems = []
    if sorted(bounds) != ["boson", "lp", "oracle"]:
        problems.append(f"methods {sorted(bounds)}, expected oracle, lp, boson")
    if (doc.get("d"), doc.get("s")) != (ref.d, ref.s):
        problems.append(f"d, s = {doc.get('d')}, {doc.get('s')}, expected {ref.d}, {ref.s}")
    for method, b in sorted(bounds.items()):
        value = b.get("value")
        if not isinstance(value, (int, float)) or not _near(value, ref.value):
            problems.append(f"{method} value {value} != reference {ref.value}")
        argmin = b.get("argmin")
        if argmin is None:
            continue
        if (
            not isinstance(argmin, list)
            or len(argmin) != ref.d
            or any(not isinstance(v, int) or v < 0 for v in argmin)
            or sum(argmin) != ref.s
        ):
            problems.append(f"{method} argmin {argmin} is not an urn of {ref.s} balls")
        elif not _near(ref.urns.value_at(argmin), ref.value):
            problems.append(
                f"{method} argmin {argmin} has urn value {ref.urns.value_at(argmin)}, "
                f"not the minimum {ref.value}"
            )
    if doc.get("agree") is not True:
        problems.append(f"methods reported as disagreeing: agree={doc.get('agree')}")
    return problems


def _parse_curve(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "s,v_oracle,v_lp,v_boson,v_infinity":
        raise ValueError(f"unexpected header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        s, v_oracle, v_lp, v_boson, v_inf = line.split(",")
        rows.append((int(s), float(v_oracle), v_lp, float(v_boson), float(v_inf)))
    return rows


def check_curve(stdout: str, ref: CurveReference) -> list[str]:
    try:
        rows = _parse_curve(stdout)
    except ValueError as exc:
        return [f"unreadable curve output: {exc}"]
    if [r[0] for r in rows] != list(ref.s_range):
        return [f"lengths {[r[0] for r in rows]}, expected {list(ref.s_range)}"]
    problems = []
    limits = {r[4] for r in rows}
    if len(limits) != 1:
        return [f"v_infinity changes along the curve: {sorted(limits)}"]
    v_inf = limits.pop()
    previous = {"oracle": -math.inf, "boson": -math.inf}
    for s, v_oracle, v_lp, v_boson, _ in rows:
        want = ref.values[s]
        if v_lp != "":
            problems.append(f"s={s}: LP column printed although it is off: {v_lp!r}")
        for method, value in (("oracle", v_oracle), ("boson", v_boson)):
            if not _near(value, want):
                problems.append(f"s={s}: {method} {value} != reference {want}")
            if value > v_inf + tol(v_inf):
                problems.append(f"s={s}: {method} {value} above v_infinity {v_inf}")
            if value < previous[method] - tol(previous[method]):
                problems.append(f"s={s}: {method} decreases, {value} < {previous[method]}")
            previous[method] = value
    if ref.limit is not None:
        if not _near(v_inf, ref.limit):
            problems.append(f"v_infinity {v_inf} != closed form {ref.limit}")
    else:
        highest = max(ref.values.values())
        if not highest - tol(highest) <= v_inf <= ref.sample_min + SAMPLE_SLACK:
            problems.append(
                f"v_infinity {v_inf} outside [max_s v(s), sampled minimum + slack] = "
                f"[{highest}, {ref.sample_min + SAMPLE_SLACK}]"
            )
    return problems


def _parse_verify(stdout: str):
    rows, tail = [], []
    for line in stdout.strip().splitlines():
        parts = line.split()
        if parts and parts[0] in ("PASS", "FAIL"):
            status, name, residual = parts
            rows.append((status, name, float(residual)))
        else:
            tail.append(line)
    return rows, tail


def check_verify(stdout: str, negative_control: bool) -> list[str]:
    try:
        rows, tail = _parse_verify(stdout)
    except ValueError as exc:
        return [f"unreadable verify output: {exc}"]
    if tuple(name for _, name, _ in rows) != VERIFY_CHECKS:
        return [f"checks {[name for _, name, _ in rows]}, expected {list(VERIFY_CHECKS)}"]
    problems = []
    for status, name, residual in rows:
        want = "FAIL" if negative_control and name == NEGATIVE_CONTROL_FAILS else "PASS"
        if status != want:
            problems.append(f"{name}: {status}, expected {want}")
        if not math.isfinite(residual):
            problems.append(f"{name}: residual {residual} is not finite")
        if name == "cone-lp-has-21-rows" and residual != 21:
            problems.append(f"cone LP has {residual} rows, expected C(7, 5) = 21")
    want_tail = ["1 check(s) failed"] if negative_control else ["all checks passed"]
    if tail != want_tail:
        problems.append(f"summary {tail}, expected {want_tail}")
    return problems


EXPECTED_CODE = {"bound": 0, "curve": 0, "verify": 0, "verify-negative": 1}


def make_reference(job: dict, seed: int):
    if job["command"] == "bound":
        return BoundReference(job)
    if job["command"] == "curve":
        return CurveReference(job, seed)
    return None


def check_job(job: dict, stdout: str, ref) -> list[str]:
    """Problems with the output of a job that exited with its expected code."""
    if job["command"] == "bound":
        return check_bound(stdout, ref)
    if job["command"] == "curve":
        return check_curve(stdout, ref)
    return check_verify(stdout, negative_control=job["command"] == "verify-negative")
