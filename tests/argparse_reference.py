"""The argparse parser finex's CLI used before its option table: the parity reference.

build_parser() is the parser `finex.cli.main` once built on its first
call; tests/test_cli_parsing.py checks `finex.cli._parse` against it.
"""

from __future__ import annotations

import argparse

from finex.cli import DEFAULT_LP_CAP


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
