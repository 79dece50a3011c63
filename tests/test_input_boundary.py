"""One input boundary: the three JSON readers refuse the same faults alike.

The observable, distribution and density-matrix formats share their
reading rules (finex.multiindex's json_document, json_number and
json_counts).  Each fault below reaches every reader as the bytes of a
file, the way the commands pass them, and must end in DomainError; through
`finex bound` and `finex sample --dist` it exits 2 with one `error:` line.
Two scans keep the rules in one place: json.load(s) is called in one
function of the package, and the CLI reads input files in one function.
Sizes past what the composition tables can hold (about 330 faces, or a
length past numpy's largest array, also at d=1, where there is one count
vector) end in CapacityError, and exit 2 alike.
"""

import ast
import json
import time
from pathlib import Path

import pytest

import finex
from finex import boson, exchangeable, polynomial
from finex.bernstein_lp import lower_bound_lp
from finex.boson import OccupationBasis, quantum_bound
from finex.cli import ROUTES, main
from finex.errors import CapacityError, DomainError
from finex.exchangeable import oracle_bound
from finex.multiindex import composition_array, compositions
from finex.polynomial import PolynomialBlock, SimplexPolynomial, lift_block

# each format's reader and a valid document with %s where a number belongs
READERS = {
    "observable": (
        polynomial.from_json,
        '{"d": 2, "terms": [{"counts": [2, 0], "coeff": %s}]}',
    ),
    "distribution": (
        exchangeable.from_json,
        '{"d": 2, "r": 2, "orbits": [{"counts": [1, 1], "prob": %s}]}',
    ),
    "density-matrix": (
        boson.from_json,
        '{"d": 2, "s": 1, "matrix": [[[%s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}',
    ),
}

# each fault as the file's bytes, given the format's template
FAULTS = {
    "malformed-text": lambda template: b"{broken",
    "not-an-object": lambda template: b"[1, 2, 3]",
    "missing-key": lambda template: b'{"d": 2}',
    "true-as-number": lambda template: (template % "true").encode(),
    "string-as-number": lambda template: (template % '"1.5"').encode(),
    "1e400-integer": lambda template: (template % ("1" + "0" * 400)).encode(),
    "5000-digit-integer": lambda template: (template % ("1" + "0" * 4999)).encode(),
    "deep-nesting": lambda template: (template % ("[" * 100_000 + "]" * 100_000)).encode(),
    "not-utf8": lambda template: b"\xff" + (template % "1").encode(),
}


@pytest.mark.parametrize("reader", READERS)
def test_each_template_is_a_valid_document(reader):
    parse, template = READERS[reader]
    parse((template % "1").encode())
    parse(template % "1.0")


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_every_fault_as_a_domain_error(reader, fault):
    parse, template = READERS[reader]
    with pytest.raises(DomainError):
        parse(FAULTS[fault](template))


# the command that reads each format from a file
COMMANDS = {
    "observable": lambda path: ["bound", "--observable", path, "--s", "2"],
    "distribution": lambda path: ["sample", "--dist", path, "--n", "3"],
}


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reader", COMMANDS)
def test_every_fault_exits_2_with_one_error_line(tmp_path, capsys, reader, fault):
    path = tmp_path / "input.json"
    path.write_bytes(FAULTS[fault](READERS[reader][1]))
    code, out, err = _run(COMMANDS[reader](str(path)), capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("reader", COMMANDS)
def test_an_unreadable_file_is_named(tmp_path, capsys, reader):
    path = str(tmp_path / "missing.json")
    code, out, err = _run(COMMANDS[reader](path), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {reader} file {path}:")


@pytest.mark.parametrize(
    "argv",
    [["bound", "--s", "1"], ["curve", "--s-min", "1", "--s-max", "1"]],
    ids=["bound", "curve"],
)
def test_an_observable_with_400_faces_exits_2(tmp_path, capsys, argv):
    # past about 330 faces the recursion that builds the composition tables
    # outruns Python's recursion limit, which is refused as a CapacityError
    d = 400
    terms = [{"counts": [int(i == j) for j in range(d)], "coeff": i % 3 - 1.0} for i in range(d)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"d": d, "terms": terms}))
    code, out, err = _run([*argv, "--observable", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: the composition tables over d=400 outcomes nest past Python's recursion limit\n"
    )


@pytest.mark.parametrize("route", [oracle_bound, lower_bound_lp, quantum_bound])
def test_the_routes_refuse_400_faces_with_a_capacity_error(route):
    g = SimplexPolynomial(400, 1, {(1,) + (0,) * 399: 1.0})
    with pytest.raises(CapacityError, match="over d=400 outcomes nest past"):
        route(g, 1)


HUGE = 10**20  # past numpy's largest array dimension, let alone its memory
PAST_NUMPY = (
    f"the count vectors of degree {HUGE} over d=2 number N = {HUGE + 1}, "
    "past the largest array numpy can hold"
)


@pytest.mark.parametrize("degree", [HUGE, 2], ids=["degree-1e20", "quadratic"])
@pytest.mark.parametrize(
    "argv",
    [
        *(["bound", "--s", str(HUGE), "--method", method] for method in ROUTES + ("all",)),
        ["curve", "--s-min", str(HUGE), "--s-max", str(HUGE)],
    ],
    ids=[*ROUTES, "all", "curve"],
)
def test_a_length_past_numpys_largest_array_exits_2(tmp_path, capsys, argv, degree):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"d": 2, "terms": [{"counts": [degree, 0], "coeff": 1.0}]}))
    code, out, err = _run([*argv, "--observable", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {PAST_NUMPY}\n")


def test_the_tables_refuse_a_length_past_numpys_largest_array():
    for table in (composition_array, compositions):
        with pytest.raises(CapacityError) as caught:
            table(HUGE, 2)
        assert str(caught.value) == PAST_NUMPY
    g = SimplexPolynomial(2, HUGE, {(HUGE, 0): 1.0})
    for route in (oracle_bound, lower_bound_lp, quantum_bound):
        with pytest.raises(CapacityError, match="past the largest array numpy can hold"):
            route(g, HUGE)


def past_the_degree_tables(s):
    return f"the tables with a row per degree 0..{s} pass the largest array numpy can hold"


# at d=1 there is one count vector, so only the tables with a row per degree
# refuse: a length past int64, and the orbit sizes' binomials at 2**63 - 1
@pytest.mark.parametrize("s", [HUGE, 2**63 - 1], ids=["1e20", "int64-max"])
@pytest.mark.parametrize(
    "argv",
    [*(["bound", "--method", method] for method in ROUTES + ("all",)), ["curve"]],
    ids=[*ROUTES, "all", "curve"],
)
def test_a_d1_length_past_the_degree_tables_exits_2(tmp_path, capsys, argv, s):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"d": 1, "terms": [{"counts": [2], "coeff": 1.0}]}))
    lengths = ["--s-min", str(s), "--s-max", str(s)] if argv == ["curve"] else ["--s", str(s)]
    code, out, err = _run([*argv, *lengths, "--observable", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {past_the_degree_tables(s)}\n")


@pytest.mark.parametrize("route", [oracle_bound, lower_bound_lp, quantum_bound])
def test_a_d1_observable_at_a_long_length_is_one_count_vector(route):
    # theta_1^2 is 1 on the one-point simplex.  At d=1 there is one count vector,
    # so no route may loop in Python over the s sweep steps or the degrees to s
    g = polynomial.from_json('{"d": 1, "terms": [{"counts": [2], "coeff": 1.0}]}')
    start = time.perf_counter()
    result = route(g, 200_000)
    assert time.perf_counter() - start < 0.5
    assert result.value == 1.0
    assert result.argmin == (200_000,)


def test_lift_block_refuses_a_degree_past_the_tables_before_reading_its_terms():
    # a count of 10**20 overflows int64; the block's coefficient vector is sized
    # by the tables first, so PolynomialBlock.of refuses it before any count is cast
    for g, message in (
        (SimplexPolynomial(2, HUGE, {(HUGE, 0): 1.0}), PAST_NUMPY),
        (SimplexPolynomial(1, HUGE, {(HUGE,): 1.0}), past_the_degree_tables(HUGE)),
    ):
        with pytest.raises(CapacityError) as caught:
            lift_block(PolynomialBlock.of([g]), HUGE)
        assert str(caught.value) == message


def test_occupation_index_refuses_entries_that_are_not_integers():
    with pytest.raises(DomainError):
        OccupationBasis(2, 2).index(("a", "b"))


def calling_functions(source: str, is_target) -> list[str | None]:
    """The innermost enclosing function of each call that is_target accepts (None: module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and is_target(child):
                found.append(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def is_json_load(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("load", "loads") and getattr(func.value, "id", None) == "json"
    return isinstance(func, ast.Name) and func.id in ("load", "loads")


def is_input_read(call: ast.Call) -> bool:
    """open() in a reading mode (no mode, or one without w, a, x or +), or a Path read."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("read_text", "read_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"))


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(Path(finex.__file__).parent.glob("*.py"))}


def test_json_is_parsed_in_one_function():
    found = {
        (name, function)
        for name, source in package_sources().items()
        for function in calling_functions(source, is_json_load)
    }
    assert found == {("multiindex.py", "json_document")}


def test_the_cli_reads_input_files_in_one_function():
    assert set(calling_functions(package_sources()["cli.py"], is_input_read)) == {"_read"}


def test_scans_see_reads_and_loads_only():
    source = (
        "import json\n"
        "def parse(text):\n"
        "    return json.loads(text)\n"
        "def read(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
        "def read_bytes(path):\n"
        "    return open(path, mode='rb').read()\n"
        "def write(path, text):\n"
        "    with open(path, 'w') as handle:\n"
        "        handle.write(json.dumps(text))\n"
        "data = Path('x').read_text()\n"
    )
    assert calling_functions(source, is_json_load) == ["parse"]
    assert calling_functions(source, is_input_read) == ["read", "read_bytes", None]
