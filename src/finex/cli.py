"""Command-line interface: bounds, curves, verification, sampling, demo.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or parse error, 3 numerical solver failure.  All numeric output
is printed with 12 significant digits.  Face labels are 1-based in every
user-facing file; internally outcomes are 0-based.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import boson
from .bernstein_lp import assemble, dump, lower_bound_lp, lp_block
from .config import DEFAULT_TOLERANCES
from .errors import DomainError, FinexError, SolverFailure
from .exchangeable import (
    from_json as distribution_from_json,
    oracle_block,
    oracle_bound,
    sample as sample_sequences,
    urn_distribution,
)
from .multiindex import compositions
from .polynomial import PolynomialBlock, SimplexPolynomial, from_json as polynomial_from_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

DEFAULT_LP_CAP = 8
ROUTES = ("oracle", "lp", "boson")


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


def _load_observable(path: str) -> SimplexPolynomial:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read observable file {path}: {exc}") from exc
    return polynomial_from_json(text)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write output file {out}: {exc}") from exc


def _bound_for(method: str, g: SimplexPolynomial, s: int):
    if method == "oracle":
        return oracle_bound(g, s)
    if method == "lp":
        return lower_bound_lp(g, s)
    if method == "boson":
        return boson.quantum_bound(g, s)
    raise DomainError(f"unknown method {method!r}")


def _agreement_exit(spreads: dict[int, float], tol: float) -> int:
    """Exit code for the routes' spread at each length; names any length beyond tol."""
    beyond = ", ".join(f"s={s} (by {fmt(v)})" for s, v in spreads.items() if not v <= tol)
    if beyond:
        print(f"error: the routes disagree by more than {fmt(tol)} at {beyond}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if beyond else EXIT_OK


def cmd_bound(
    g: SimplexPolynomial, s: int, methods: tuple, out: str | None, out_format: str, tol: float
) -> int:
    results = [_bound_for(m, g, s) for m in methods]
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


def _block_values(method: str, block: PolynomialBlock, s: int) -> np.ndarray:
    if method == "oracle":
        return oracle_block(block, s)[0]
    if method == "lp":
        return lp_block(block, s)[0]
    if method == "boson":
        return boson.boson_block(block, s)[0]
    raise DomainError(f"unknown method {method!r}")


def _seeded_quadratics(rng) -> list[SimplexPolynomial]:
    """The agreement check's 50 observables: full quadratics over d = 2 or 3 faces."""
    out = []
    for _ in range(50):
        d = int(rng.integers(2, 4))
        terms = {n: float(rng.uniform(-1, 1)) for n in compositions(2, d)}
        out.append(SimplexPolynomial(d, 2, terms))
    return out


def _route_agreement(observables: list[SimplexPolynomial], tol: float):
    """The routes' worst spread over the observables at s = 2..5, and where it is.

    The observables of one d form one block, evaluated once per route and
    length.  The worst case is the first largest spread in the observables'
    order, then by length; the route named is the one farthest from the
    other two (the largest sum of distances to them).
    """
    lengths = range(2, 6)
    values = np.zeros((len(observables), len(lengths), len(ROUTES)))
    for d in sorted({g.d for g in observables}):
        members = [i for i, g in enumerate(observables) if g.d == d]
        block = PolynomialBlock.of([observables[i] for i in members])
        for k, s in enumerate(lengths):
            for r, method in enumerate(ROUTES):
                values[members, k, r] = _block_values(method, block, s)
    spreads = values.max(axis=2) - values.min(axis=2)
    worst, detail = max(0.0, float(spreads.max())), None
    if worst > 0.0:
        i, k = np.unravel_index(np.argmax(spreads), spreads.shape)  # the first largest
        v = values[i, k]
        far = ROUTES[int(np.argmax(np.abs(v[:, None] - v[None, :]).sum(axis=1)))]
        detail = (
            f"worst case: observable {i} of the seed's stream (d={observables[i].d}) "
            f"at s={lengths[k]}; {far} is farthest from the other two routes"
        )
    return worst <= tol, worst, detail


def _verify_checks(seed: int, tol: float, perturb: bool):
    """Yield (name, passed, residual, detail) rows; detail is printed under a FAIL."""
    rng = np.random.default_rng(seed)

    yield ("three-method-agreement", *_route_agreement(_seeded_quadratics(rng), tol))

    worst = 0.0
    for d in (2, 3):
        for s in (2, 3, 4):
            pi = boson.symmetrizer(s, d)
            if perturb:
                pi = pi.copy()
                pi[0, 0] += 1e-3
            worst = max(
                worst,
                float(np.abs(pi @ pi - pi).max()),
                float(np.abs(pi - pi.T).max()),
            )
    yield "symmetrizer-projector", worst <= 1e-12, worst, None

    worst = 0.0
    for d in (2, 3):
        for s in (2, 3, 4):
            pi = boson.symmetrizer(s, d)
            for _ in range(10):
                perm = tuple(int(v) for v in rng.permutation(s))
                p = boson.permutation_matrix(perm, d)
                worst = max(
                    worst,
                    float(np.abs(pi @ p - pi).max()),
                    float(np.abs(p @ pi - pi).max()),
                )
    yield "symmetrizer-absorbs-permutations", worst <= 1e-12, worst, None

    worst = 0.0
    for d in (2, 3):
        for s in range(1, 6):
            v = boson.OccupationBasis(d, s).dense_isometry()
            gram = v.T @ v
            worst = max(worst, float(np.abs(gram - np.eye(v.shape[1])).max()))
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
        for _ in range(5):
            perm = tuple(int(v) for v in rng.permutation(s))
            p = boson.permutation_matrix(perm, d)
            worst = max(
                worst,
                float(np.abs(p @ dense - dense).max()),
                float(np.abs(dense @ p.T - dense).max()),
            )
    yield "state-index-symmetry", worst <= 1e-10, worst, None

    from .polynomial import two_face_witness

    cone_lp = assemble(two_face_witness(), 2)
    rows = len(cone_lp.rows)
    yield "cone-lp-has-21-rows", rows == 21, float(rows), None

    witness = two_face_witness()
    gap = 0.0
    for s, expected in ((2, -0.5), (3, -1.0 / 6.0)):
        for value in (_bound_for(m, witness, s).value for m in ROUTES):
            gap = max(gap, abs(value - expected))
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
        try:
            with open(args.dist) as handle:
                dist = distribution_from_json(handle.read())
        except OSError as exc:
            raise DomainError(f"cannot read distribution file: {exc}") from exc
    draws = sample_sequences(dist, args.n, args.seed)
    lines = [",".join(str(t + 1) for t in seq) for seq in draws]
    _write_output("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_coin_demo() -> int:
    from .exchangeable import from_sequence_probs
    from .polynomial import two_face_witness, to_diagonal_observable

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finex",
        description="Worst-case expectations over finitely exchangeable sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="compute the worst-case bound at one length")
    bound.add_argument("--observable", required=True, help="polynomial JSON file")
    bound.add_argument("--s", type=int, required=True, help="sequence length")
    bound.add_argument(
        "--method",
        choices=["oracle", "lp", "boson", "all"],
        default="all",
    )
    bound.add_argument("--format", choices=["json", "csv"], default="json")
    bound.add_argument("--out", default=None)
    bound.add_argument("--tol", type=float, default=None)
    bound.add_argument("--dump-lp", action="store_true", help="print the assembled LP")

    curve = sub.add_parser("curve", help="bound as a function of sequence length")
    curve.add_argument("--observable", required=True)
    curve.add_argument("--s-min", type=int, required=True)
    curve.add_argument("--s-max", type=int, required=True)
    curve.add_argument("--out", default=None)
    curve.add_argument(
        "--lp-cap",
        type=int,
        default=DEFAULT_LP_CAP,
        help="omit the LP column above this length",
    )

    verify = sub.add_parser("verify", help="run the cross-method verification suite")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=None)
    verify.add_argument(
        "--inject-perturbation",
        action="store_true",
        help="deliberately corrupt one check (negative-control test hook)",
    )

    smp = sub.add_parser("sample", help="draw sequences from a distribution")
    group = smp.add_mutually_exclusive_group()
    group.add_argument("--urn", default=None, help="comma-separated ball counts")
    group.add_argument("--dist", default=None, help="distribution JSON file")
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", default=None)

    sub.add_parser("coin-demo", help="the two-coin worked example")
    return parser


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

    if args.command == "coin-demo":
        return cmd_coin_demo()

    raise DomainError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (DomainError, FinexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
