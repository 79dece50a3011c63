"""Every field of the tolerance record is read somewhere in the package.

A knob the code has stopped reading still looks like a setting to anyone
constructing a Tolerances; this scan makes such a field fail the suite.
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


def test_every_tolerance_field_is_read():
    read = set()
    for path in sorted(Path(finex.__file__).parent.glob("*.py")):
        read |= attributes_read(path.read_text())
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    assert fields - read == set()


def test_scan_sees_only_attribute_reads():
    source = "tol.pivot_threshold\ntol.hermiticity = 1.0\nprimal_feasibility = 2\n"
    assert attributes_read(source) == {"pivot_threshold"}
