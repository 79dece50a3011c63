"""A name imported only for the benchmark's tracer is never used in its module.

perfbench/tracer.py wraps some functions under the name a module imports
them by, so the module keeps the import, marked with a noqa comment that
says so.  Were the module to call such a name, one route would quietly be
calling another's code again (the cone LP into the oracle, the LP or the
boson route into the lift), or the oracle would lift through homogenize
again and build the lifted terms dict it never reads; this scan makes
that fail the suite.

The smoke test runs the tracer itself, in a fresh process since it wraps
finex's functions in place: `bound --method all` and `verify` must still
exit 0 with it installed, and the routes' spans must record calls, so the
result fields its hooks read are still there.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finex
from finex.polynomial import to_json, two_face_witness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(finex.__file__).resolve().parents[1]

MARKER = "perfbench/tracer.py wraps it here"


def tracer_only_names(source: str) -> set[str]:
    """Names bound by an import whose line carries the tracer comment."""
    lines = source.splitlines()
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if MARKER in lines[alias.lineno - 1]
    }


def tracer_only_uses(source: str) -> list[tuple[str, int]]:
    """(name, line) of every use of a tracer-only name in the module."""
    kept = tracer_only_names(source)
    return sorted(
        (node.id, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in kept
    )


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(Path(finex.__file__).parent.glob("*.py"))}


def test_tracer_only_imports_stay_unused():
    uses = {name: tracer_only_uses(source) for name, source in package_sources().items()}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_routes_keep_their_tracer_only_names():
    sources = package_sources()
    assert tracer_only_names(sources["bernstein_lp.py"]) == {
        "homogenize",
        "oracle_bound",
        "reduce_to_free_vars",
        "simplex_solve",
    }
    assert tracer_only_names(sources["boson.py"]) == {"homogenize"}
    assert tracer_only_names(sources["exchangeable.py"]) == {"homogenize"}


def test_scan_sees_a_use_of_a_marked_name_only():
    source = (
        "from .routes import (\n"
        f"    lift,  # noqa: F401  kept under this name: {MARKER}\n"
        "    reduce,\n"
        ")\n"
        "\n"
        "def solve(g):\n"
        "    return reduce(g) + lift(g)\n"
    )
    assert tracer_only_uses(source) == [("lift", 7)]


SMOKE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import finex.cli
recorder = tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        finex.cli.main(["bound", "--observable", sys.argv[2], "--s", "4", "--method", "all"]),
        finex.cli.main(["verify", "--seed", "0"]),
    ]
print(json.dumps({"codes": codes, "calls": recorder.summary()["calls"]}))
"""


@pytest.mark.skipif(not (PERFBENCH / "tracer.py").exists(), reason="perfbench/ is absent")
def test_the_tracer_runs_bound_and_verify(tmp_path):
    witness = tmp_path / "witness.json"
    witness.write_text(to_json(two_face_witness(6)))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SMOKE, str(PERFBENCH), str(witness)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    for span in (
        "exchangeable.oracle_bound",
        "bernstein_lp.assemble",
        "bernstein_lp.lower_bound_lp",
        "boson.quantum_bound",
    ):
        assert report["calls"][span] >= 1, span
