"""A name imported only for the benchmark's tracer is never used in its module.

perfbench/tracer.py wraps some functions under the name a module imports
them by, so the module keeps the import, marked with a noqa comment that
says so.  Were the module to call such a name, one route would quietly be
calling another's code again (the cone LP into the oracle, the LP or the
boson route into the lift), or the oracle would lift through homogenize
again and build the lifted terms dict it never reads; this scan makes
that fail the suite.
"""

import ast
from pathlib import Path

import finex

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
