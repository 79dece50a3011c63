"""Command-line interface: bounds, curves, verification, sampling, demo.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or parse error (running out of memory included), 3 numerical
solver failure.  All numeric output is printed with 12 significant
digits.  Face labels are 1-based in every user-facing file; internally
outcomes are 0-based.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

import numpy as np

from . import boson
from .bernstein_lp import assemble, dump, lower_bound_lp, lp_block
from .config import DEFAULT_TOLERANCES
from .errors import DomainError, FinexError, SolverFailure
from .exchangeable import (
    from_json as distribution_from_json,
    from_sequence_probs,
    oracle_block,
    oracle_bound,
    sample as sample_sequences,
    urn_distribution,
)
from .multiindex import compositions
from .polynomial import (
    PolynomialBlock,
    SimplexPolynomial,
    from_json as polynomial_from_json,
    to_diagonal_observable,
    two_face_witness,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

DEFAULT_LP_CAP = 8
ROUTES = ("oracle", "lp", "boson")
_PRUNE = DEFAULT_TOLERANCES.coefficient_prune


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _agreement_tolerance(flag_value: float | None) -> float:
    """Precedence: --tol flag, then FINEX_TOL, then the built-in default.

    The tolerance must be finite and non-negative: a NaN would make every
    agreement test false and print non-standard JSON.
    """
    if flag_value is not None:
        source, tol = "--tol", flag_value
    elif "FINEX_TOL" in os.environ:
        source = f"FINEX_TOL={os.environ['FINEX_TOL']!r}"
        try:
            tol = float(os.environ["FINEX_TOL"])
        except ValueError as exc:
            raise DomainError(f"{source} is not a number") from exc
    else:
        return DEFAULT_TOLERANCES.method_agreement
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"{source} must be a finite number >= 0, got {tol}")
    return tol


def _read(path: str, what: str) -> bytes:
    """The bytes of an input file; the JSON readers decode them."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read {what} file {path}: {exc}") from exc


def _load_observable(path: str) -> SimplexPolynomial:
    return polynomial_from_json(_read(path, "observable"))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):  # no text, no line
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write output file {out}: {exc}") from exc


def _agreement_exit(spreads: dict[int, float], tol: float) -> int:
    """Exit code for the routes' spread at each length; names any length beyond tol."""
    beyond = ", ".join(f"s={s} (by {fmt(v)})" for s, v in spreads.items() if not v <= tol)
    if beyond:
        print(f"error: the routes disagree by more than {fmt(tol)} at {beyond}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if beyond else EXIT_OK


def cmd_bound(
    g: SimplexPolynomial, s: int, methods: tuple, out: str | None, out_format: str, tol: float
) -> int:
    # looked up at call time: perfbench/tracer.py replaces cli.oracle_bound,
    # cli.lower_bound_lp and boson.quantum_bound after import
    routes = {"oracle": oracle_bound, "lp": lower_bound_lp, "boson": boson.quantum_bound}
    results = [routes[m](g, s) for m in methods]
    doc = {
        "d": g.d,
        "s": s,
        "bounds": [
            {
                "method": r.method,
                "value": r.value,
                "argmin": list(r.argmin) if r.argmin is not None else None,
            }
            for r in results
        ],
    }
    if len(results) > 1:
        values = [r.value for r in results]
        discrepancy = max(values) - min(values)
        doc["max_discrepancy"] = discrepancy
        doc["agreement_tolerance"] = tol
        doc["agree"] = bool(discrepancy <= tol)
    if out_format == "json":
        text = json.dumps(_round_floats(doc), indent=2)
    else:
        lines = ["method,value"]
        lines += [f"{r.method},{fmt(r.value)}" for r in results]
        text = "\n".join(lines)
    _write_output(text, out)
    return _agreement_exit({s: doc["max_discrepancy"]} if len(results) > 1 else {}, tol)


def cmd_curve(
    g: SimplexPolynomial, s_min: int, s_max: int, out: str | None, lp_cap: int, tol: float
) -> int:
    floor = boson.simplex_minimum(g)
    lines = ["s,v_oracle,v_lp,v_boson,v_infinity"]
    spreads = {}
    for s in range(s_min, s_max + 1):
        v_oracle = oracle_bound(g, s).value
        v_lp = [lower_bound_lp(g, s).value] if s <= lp_cap else []  # no LP past the cap
        v_boson = boson.quantum_bound(g, s).value
        spreads[s] = max(v_oracle, *v_lp, v_boson) - min(v_oracle, *v_lp, v_boson)
        lp_cell = fmt(v_lp[0]) if v_lp else ""
        lines.append(f"{s},{fmt(v_oracle)},{lp_cell},{fmt(v_boson)},{fmt(floor)}")
    _write_output("\n".join(lines) + "\n", out)
    return _agreement_exit(spreads, tol)


def _block_values(method: str, block: PolynomialBlock, lengths: tuple) -> np.ndarray:
    """The route's values on the block at each of the lengths: one row per length."""
    # looked up at call time: tests replace cli.oracle_block, cli.lp_block
    # and boson.boson_block after import, as perfbench/tracer.py does the bounds
    route = {"oracle": oracle_block, "lp": lp_block, "boson": boson.boson_block}[method]
    return np.array([values for values, _ in route(block, lengths)])


def _seeded_quadratics(rng) -> list[tuple[int, np.ndarray]]:
    """The agreement check's 50 observables: full quadratics over d = 2 or 3 faces.

    Each is (d, its coefficients in compositions(2, d) order), drawn as d,
    then one vector: the same stream, and the same values, as one draw per
    term.  Coefficients below the prune threshold are zeroed, as
    SimplexPolynomial drops them.
    """
    sizes = {d: len(compositions(2, d)) for d in (2, 3)}
    out = []
    for _ in range(50):
        d = int(rng.integers(2, 4))
        vector = rng.uniform(-1, 1, sizes[d])
        vector[np.abs(vector) < _PRUNE] = 0.0
        out.append((d, vector))
    return out


def _route_agreement(observables: list[tuple[int, np.ndarray]], tol: float):
    """The routes' worst spread over the (d, vector) observables at s = 2..5, and where it is.

    The vectors of one d form one block, which each route evaluates at
    all four lengths in one call, so an error raised is the first in
    (d, route, s) order.  The worst case is the first largest spread in
    the observables' order, then by length; the route named is the one
    farthest from the other two (the largest sum of distances to them).
    """
    lengths = (2, 3, 4, 5)
    values = np.zeros((len(observables), len(lengths), len(ROUTES)))
    for d in sorted({d for d, _ in observables}):
        members = [i for i, (e, _) in enumerate(observables) if e == d]
        matrix = np.stack([observables[i][1] for i in members], axis=1)
        matrix.setflags(write=False)  # as PolynomialBlock.of leaves it
        block = PolynomialBlock(d, 2, matrix)
        for r, method in enumerate(ROUTES):
            values[members, :, r] = _block_values(method, block, lengths).T
    spreads = values.max(axis=2) - values.min(axis=2)
    worst, detail = max(0.0, float(spreads.max())), None
    if worst > 0.0:
        i, k = np.unravel_index(np.argmax(spreads), spreads.shape)  # the first largest
        v = values[i, k]
        far = ROUTES[int(np.argmax(np.abs(v[:, None] - v[None, :]).sum(axis=1)))]
        detail = (
            f"worst case: observable {i} of the seed's stream (d={observables[i][0]}) "
            f"at s={lengths[k]}; {far} is farthest from the other two routes"
        )
    return worst <= tol, worst, detail


def _residual(product: np.ndarray, target: np.ndarray) -> float:
    """max |product - target|, formed in product's own buffer (product is overwritten).

    A complex buffer keeps |.| in its real parts, hence the .real.
    """
    product -= target
    return float(np.abs(product, out=product).real.max())


def _relabelling_residual(m: np.ndarray, rows: np.ndarray) -> float:
    """max |P m - m| and max |m P - m| over the permutation matrices P listed by rows.

    rows is boson.relabellings: P_i maps e_j to e_rows[i, j].  P_i m has row
    rows[i, j] equal to m[j], and m P_i has column j equal to m[:, rows[i, j]],
    so each side is one gather of m's rows or columns.  m P_i^T, whose column
    rows[i, j] is m[:, j], differs from m by the same entries as m P_i.  A
    product with a 0/1 permutation matrix is exact, so the residuals are the
    products' own, bit for bit.
    """
    columns = np.ascontiguousarray(m.T)
    return max(_residual(m[rows], m), _residual(columns[rows], columns))


def _verify_checks(seed: int, tol: float, perturb: bool):
    """Yield (name, passed, residual, detail) rows; detail is printed under a FAIL."""
    rng = np.random.default_rng(seed)

    yield ("three-method-agreement", *_route_agreement(_seeded_quadratics(rng), tol))

    projector = absorbs = 0.0
    for d in (2, 3):
        for s in (2, 3, 4):
            pi = boson.symmetrizer(s, d)
            perms = [rng.permutation(s).tolist() for _ in range(10)]
            absorbs = max(absorbs, _relabelling_residual(pi, boson.relabellings(perms, d)))
            if perturb:  # after the absorbs residual, which the control leaves alone
                pi[0, 0] += 1e-3
            projector = max(projector, _residual(pi @ pi, pi), float(np.abs(pi - pi.T).max()))
    yield "symmetrizer-projector", projector <= 1e-12, projector, None
    yield "symmetrizer-absorbs-permutations", absorbs <= 1e-12, absorbs, None

    worst = 0.0
    for d in (2, 3):
        for s in range(1, 6):
            v = boson.OccupationBasis(d, s).dense_isometry()
            worst = max(worst, _residual(v.T @ v, np.eye(v.shape[1])))
    yield "occupation-orthonormality", worst <= 1e-12, worst, None

    worst = 0.0
    for d, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        basis = boson.OccupationBasis(d, s)
        z = rng.normal(size=(basis.dimension, basis.dimension)) + 1j * rng.normal(
            size=(basis.dimension, basis.dimension)
        )
        m = z @ z.conj().T
        m /= np.trace(m).real
        dense = boson.BosonDensityMatrix(basis, m).dense()
        perms = [rng.permutation(s).tolist() for _ in range(5)]
        worst = max(worst, _relabelling_residual(dense, boson.relabellings(perms, d)))
    yield "state-index-symmetry", worst <= 1e-10, worst, None

    witness = two_face_witness()
    rows = len(assemble(witness, 2).b)
    yield "cone-lp-has-21-rows", rows == 21, float(rows), None

    block = PolynomialBlock.of([witness])
    expected = np.array([-0.5, -1.0 / 6.0])  # at s = 2 and 3
    gap = 0.0
    for method in ROUTES:
        values = _block_values(method, block, (2, 3))[:, 0]
        gap = max(gap, float(np.abs(values - expected).max()))
    yield "reference-values", gap <= tol, gap, None


def cmd_verify(seed: int, tol: float, perturb: bool) -> int:
    failures = 0
    for name, passed, residual, detail in _verify_checks(seed, tol, perturb):
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name:<34} {fmt(residual)}")
        if not passed and detail is not None:
            print(f"      {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def cmd_sample(args) -> int:
    if (args.urn is None) == (args.dist is None):
        raise DomainError("choose exactly one of --urn or --dist")
    if args.urn is not None:
        try:
            counts = tuple(int(v) for v in args.urn.split(","))
        except ValueError as exc:
            raise DomainError(f"bad urn composition {args.urn!r}") from exc
        dist = urn_distribution(counts)
    else:
        dist = distribution_from_json(_read(args.dist, "distribution"))
    draws = sample_sequences(dist, args.n, args.seed)
    lines = [",".join(str(t + 1) for t in seq) for seq in draws]
    _write_output("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_coin_demo() -> int:
    coin = from_sequence_probs({(0, 1): 0.5, (1, 0): 0.5}, 2, 2)
    rho = boson.rho_from_exchangeable(coin)
    dense = rho.dense().real
    witness = np.diag([1.0, -0.5, -0.5, 1.0])
    value = boson.witness_value(witness.astype(complex), rho)
    # the witness polynomial is non-negative on every product state; its
    # infimum is 0, approached when both flagged faces carry no mass (the
    # minimal embedding that exhibits it appends one slack outcome)
    floor = boson.simplex_minimum(two_face_witness(3))

    print("two exchangeable coins with P(HT) = P(TH) = 0.5")
    print()
    print("density matrix rho (basis HH, HT, TH, TT):")
    for row in dense:
        print("  [" + "  ".join(f"{v:4.1f}" for v in row) + "]")
    print()
    print("witness D = diag(1, -0.5, -0.5, 1)")
    print(f"Tr(D rho) = {fmt(value)}")
    print(f"product-state minimum of the witness polynomial = {fmt(floor)}")
    print()
    obs = to_diagonal_observable(two_face_witness(2))
    if not abs(boson.witness_value(obs, rho) - value) < 1e-12:
        print("error: the witness polynomial and D disagree on Tr(D rho)", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(
        "verdict: Tr(D rho) < product-state minimum, so this state is"
        " finitely exchangeable, not infinitely extendable"
        " / entangled-I witness fires"
    )
    return EXIT_OK


class Option(NamedTuple):
    """One --option of a command: type is int, float or str, or bool for a flag."""

    type: type = str
    default: object = None
    choices: tuple[str, ...] = ()
    required: bool = False
    help: str = ""


_DESCRIPTION = "Worst-case expectations over finitely exchangeable sequences."
_HELP = Option(bool, False, help="show this help message and exit")
_OUT = Option(help="write the output to this file, not stdout")
_TOL = Option(float, help="agreement tolerance; overrides FINEX_TOL")

# each command's help line and options, in the order --help lists them
COMMANDS = {
    "bound": (
        "compute the worst-case bound at one length",
        {
            "observable": Option(required=True, help="polynomial JSON file"),
            "s": Option(int, required=True, help="sequence length"),
            "method": Option(
                default="all", choices=("oracle", "lp", "boson", "all"), help="route to run"
            ),
            "format": Option(default="json", choices=("json", "csv"), help="output format"),
            "out": _OUT,
            "tol": _TOL,
            "dump-lp": Option(bool, False, help="print the assembled LP"),
        },
    ),
    "curve": (
        "bound as a function of sequence length",
        {
            "observable": Option(required=True, help="polynomial JSON file"),
            "s-min": Option(int, required=True, help="first sequence length"),
            "s-max": Option(int, required=True, help="last sequence length"),
            "out": _OUT,
            "lp-cap": Option(int, DEFAULT_LP_CAP, help="omit the LP column above this length"),
        },
    ),
    "verify": (
        "run the cross-method verification suite",
        {
            "seed": Option(int, 0, help="random seed"),
            "tol": _TOL,
            "inject-perturbation": Option(
                bool, False, help="corrupt one check on purpose (a negative control)"
            ),
        },
    ),
    "sample": (
        "draw sequences from a distribution",
        {
            "urn": Option(help="comma-separated ball counts"),
            "dist": Option(help="distribution JSON file"),
            "n": Option(int, required=True, help="number of sequences"),
            "seed": Option(int, 0, help="random seed"),
            "out": _OUT,
        },
    ),
    "coin-demo": ("the two-coin worked example", {}),
}

_METAVARS = {int: "INT", float: "FLOAT", str: "TEXT"}
# argparse's test for a token that is a negative number, hence not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _metavar(option: Option) -> str:
    return "{" + ",".join(option.choices) + "}" if option.choices else _METAVARS[option.type]


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: finex [-h] {" + ",".join(COMMANDS) + "} ..."
    options = COMMANDS[command][1].items()
    words = ["usage: finex", command, "[-h]"]
    words += [f"--{name} {_metavar(o)}" for name, o in options if o.required]
    if any(not o.required for _, o in options):
        words.append("[options]")
    return " ".join(words)


def _help_text(command: str | None) -> str:
    rows = {"-h, --help": _HELP.help}
    if command is None:
        text, sections = _DESCRIPTION, {"commands": {n: line for n, (line, _) in COMMANDS.items()}}
    else:
        text, options = COMMANDS[command]
        sections = {}
        for name, o in options.items():
            label = f"--{name}" if o.type is bool else f"--{name} {_metavar(o)}"
            if o.required:
                note = "required"
            else:
                note = "" if o.default is None or o.type is bool else f"default: {o.default}"
            rows[label] = f"{o.help} ({note})" if o.help and note else o.help or note
    sections["options"] = rows
    width = max(len(label) for section in sections.values() for label in section) + 2
    lines = [_usage(command), "", text]
    for heading, section in sections.items():
        lines += ["", f"{heading}:"]
        lines += [f"  {label:<{width}}{row}" for label, row in section.items()]
    return "\n".join(lines) + "\n"


def _print_help(command: str | None) -> NoReturn:
    sys.stdout.write(_help_text(command))
    raise SystemExit(EXIT_OK)


def _usage_error(command: str | None, message: str) -> NoReturn:
    prog = "finex" if command is None else f"finex {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _option(command: str | None, token: str) -> tuple[str | None, str | None] | None:
    """argparse's reading of token: None for a positional, else (option, text after '=').

    The option is None when it is unknown, and the text None without '='.
    "-h" is --help, and "-h" with more after it is --help given that text.  A
    long option is its name or the unique prefix of one (--help included);
    an ambiguous prefix is a usage error.  "-", "--", a negative number and,
    unless it names an option, a token with a space are positionals.
    """
    if not token.startswith("-") or token in ("-", "--"):
        return None
    if not token.startswith("--"):
        if token.startswith("-h"):
            return "help", None if token == "-h" else token[2:].removeprefix("=")
        return None if " " in token or _NEGATIVE_NUMBER.match(token) else (None, None)
    key, equals, text = token[2:].partition("=")
    names = ["help", *COMMANDS[command][1]] if command else ["help"]
    matches = [key] if key in names else [name for name in names if name.startswith(key)]
    if len(matches) > 1:
        found = ", ".join(f"--{name}" for name in matches)
        _usage_error(command, f"ambiguous option: {token} could match {found}")
    if matches:
        return matches[0], text if equals else None
    return None if " " in token else (None, None)


def _parse(argv) -> SimpleNamespace:
    """argv read by the COMMANDS table; -h/--help exits 0, a usage error exits 2.

    Options are long, given as --opt value or --opt=value, and the last
    occurrence wins.  A value is always the next token, even one that
    begins with '-'.  Otherwise the parse follows argparse: -h/--help
    prints the help as soon as it is read, an unknown token is reported
    only when no -h/--help follows it, an ambiguous prefix before '--' is
    an error even after -h/--help, and every token after '--' is unknown.
    """
    tokens, unknown = iter(argv), []
    for token in tokens:  # before the command, -h/--help is the only option
        found = _option(None, token)
        if found is None:
            command = token
            break
        if found[0] == "help":
            if found[1] is not None:
                _usage_error(None, f"argument -h/--help: ignored explicit argument {found[1]!r}")
            _print_help(None)
        unknown.append(token)
    else:
        _usage_error(None, "the following arguments are required: command")
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")

    options = COMMANDS[command][1]
    values = {name: option.default for name, option in options.items()}
    given, helped = set(), False
    for token in tokens:
        if token == "--":
            unknown += [token, *tokens]
            break
        name, text = _option(command, token) or (None, None)
        if name is None:
            unknown.append(token)
            continue
        option = options.get(name, _HELP)
        if option.type is bool:
            value, error = True, text is not None and f"ignored explicit argument {text!r}"
        else:
            value = next(tokens, None) if text is None else text
            error = value is None and "expected one argument"
        if helped:  # after -h/--help only an ambiguous prefix is an error
            continue
        label = "-h/--help" if name == "help" else f"--{name}"
        if error:
            _usage_error(command, f"argument {label}: {error}")
        if name == "help":
            helped = True
            continue
        if option.type in (int, float):
            try:
                value = option.type(value)
            except ValueError:
                error = f"invalid {option.type.__name__} value: {value!r}"
                _usage_error(command, f"argument {label}: {error}")
        if option.choices and value not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            error = f"invalid choice: {value!r} (choose from {choices})"
            _usage_error(command, f"argument {label}: {error}")
        values[name] = value
        given.add(name)
    if helped:
        _print_help(command)
    missing = [f"--{name}" for name, o in options.items() if o.required and name not in given]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    if unknown:
        _usage_error(command, "unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(command=command, **{k.replace("-", "_"): v for k, v in values.items()})


def _run(args) -> int:
    if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
        raise DomainError(f"--seed must be an integer >= 0, got {args.seed}")
    if args.command == "bound":
        g = _load_observable(args.observable)
        if args.s < g.degree:
            raise DomainError(
                f"--s {args.s} is below the observable degree {g.degree}"
            )
        methods = ROUTES if args.method == "all" else (args.method,)
        tol = _agreement_tolerance(args.tol)
        if args.dump_lp:
            print(dump(assemble(g, args.s)))
        return cmd_bound(g, args.s, methods, args.out, args.format, tol)

    if args.command == "curve":
        g = _load_observable(args.observable)
        if args.s_min > args.s_max:
            raise DomainError(
                f"empty length range: --s-min {args.s_min} > --s-max {args.s_max}"
            )
        if args.s_min < g.degree:
            raise DomainError(
                f"--s-min {args.s_min} is below the observable degree {g.degree}"
            )
        tol = _agreement_tolerance(None)
        return cmd_curve(g, args.s_min, args.s_max, args.out, args.lp_cap, tol)

    if args.command == "verify":
        return cmd_verify(
            args.seed, _agreement_tolerance(args.tol), args.inject_perturbation
        )

    if args.command == "sample":
        return cmd_sample(args)

    return cmd_coin_demo()  # the parser admits no other command


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FinexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as exc:
        # a size past what the machine, or the interpreter's stack, holds is an
        # input error, not a failed check
        what = "memory" if isinstance(exc, MemoryError) else "recursion depth"
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of {what}{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
