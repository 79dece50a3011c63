"""Every field of the tolerance record is read, and no function takes a record.

A knob the code has stopped reading still looks like a setting to anyone
constructing a Tolerances; this scan makes such a field fail the suite.
Every check reads DEFAULT_TOLERANCES where it runs, so a parameter taking
a record would be a second way in that the other checks do not see.
"""

import ast
import dataclasses
from pathlib import Path

import finex
from finex.config import Tolerances


def attributes_read(source: str) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def record_parameters(source: str) -> list[str]:
    """Functions with a parameter annotated Tolerances or defaulting to DEFAULT_TOLERANCES.

    A default of one of its fields counts too: it is a per-call threshold.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        annotations = [
            a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs if a.annotation
        ]
        defaults = args.defaults + [d for d in args.kw_defaults if d is not None]
        text = [ast.unparse(x) for x in annotations + defaults]
        if any("Tolerances" in x or "DEFAULT_TOLERANCES" in x for x in text):
            found.append(getattr(node, "name", "<lambda>"))
    return found


SOURCES = sorted(Path(finex.__file__).parent.glob("*.py"))


def test_every_tolerance_field_is_read():
    read = set()
    for path in SOURCES:
        read |= attributes_read(path.read_text())
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    assert fields - read == set()


def test_scan_sees_only_attribute_reads():
    source = "tol.pivot_threshold\ntol.hermiticity = 1.0\nprimal_feasibility = 2\n"
    assert attributes_read(source) == {"pivot_threshold"}


def test_no_function_takes_a_tolerance_record():
    found = {path.name: record_parameters(path.read_text()) for path in SOURCES}
    assert {name: funcs for name, funcs in found.items() if funcs} == {}


def test_scan_sees_annotations_and_defaults():
    source = (
        "def a(x, tol: Tolerances): pass\n"
        "def b(x, tolerances=DEFAULT_TOLERANCES): pass\n"
        "def c(x, *, t: 'config.Tolerances' = None): pass\n"
        "def d(x, tol=DEFAULT_TOLERANCES.normalization): pass\n"
        "def e(x): return DEFAULT_TOLERANCES.psd\n"
    )
    assert record_parameters(source) == ["a", "b", "c", "d"]
