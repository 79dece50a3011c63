"""The option table and its parser: finex.cli._parse against the argparse it replaced.

tests/argparse_reference.py keeps the parser main() built before, and the
generated argvs below run through both.  Where argparse accepts an argv,
_parse returns the same values, and where argparse exits 0 for -h/--help,
so does _parse.  Where argparse refuses one, _parse exits 2, with two
documented exceptions:

- a value that begins with '-' is the value of the option before it, as
  in getopt_long, where argparse read it as an option;
- `sample --urn ... --dist ...` passes the parse (cmd_sample refuses it
  with exit 2), so an -h/--help after both prints the help.

argparse reads "-hh" as two -h flags; finex has one short option and no
flag bundling, so the generated tokens leave that spelling out.  The
examples are derandomized, so every run of the suite draws the same ones.
"""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from argparse_reference import build_parser
from finex import cli
from finex.cli import COMMANDS, main

hypothesis = pytest.importorskip("hypothesis")  # declared in the test extra
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

REFERENCE = build_parser()
SRC = str(Path(__file__).resolve().parents[1] / "src")


def outcome(parse, argv):
    """("ok", the parsed values) or ("exit", code, stderr) for one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return "exit", exc.code, err.getvalue()
    return "ok", sorted(vars(args).items(), key=repr)


def well_typed(values) -> bool:
    """Whether every parsed value has its table type; argparse 3.11 reads `--opt=--` as []."""
    values = dict(values)
    for name, option in COMMANDS[values["command"]][1].items():
        value = values[name.replace("-", "_")]
        if not (value is None or type(value) is option.type):
            return False
    return True


def takes_a_dash_value(argv) -> bool:
    """Whether a valued option of argv's command is given a value that begins with '-'."""
    command = next((token for token in argv if token in COMMANDS), None)
    if command is None:
        return False
    valued = [name for name, option in COMMANDS[command][1].items() if option.type is not bool]
    for token, after in zip(argv, [*argv[1:], ""]):
        key, equals, text = token.removeprefix("--").partition("=")
        named = token.startswith("--") and key and any(n.startswith(key) for n in valued)
        if named and (text if equals else after).startswith("-"):
            return True
    return False


OPTION_NAMES = sorted({name for _, options in COMMANDS.values() for name in options} | {"help"})
DASH_VALUES = ["-1", "-.5", "-inf", "-1e-3", "-x", "--", "-", "-h", "--seed", "-5 ", "- x"]
JUNK = [
    "-h", "--help", "--he", "-x", "junk", "--", "-", "-5", "-.5", "-x y", "--bogus",
    "--bogus=1", "---seed", "--=x", "--=", "-h=1", "-hx", "-h=", "", "--help=x",
    "--s", "--s-", "--s-m", "--o", "--d", "--i", "--seed", "--s x", "--s=a b", "-5=3",
]
BUNDLED_HELP = re.compile(r"-h=?h+")  # argparse's bundled -h flags, which finex does not read

values = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "inf", "1e5", " 7 ", "1_0", "0x1", "2.5", "", "x", "1,1,0"]),
    st.sampled_from(["oracle", "lp", "boson", "all", "json", "csv"]),
    st.sampled_from(DASH_VALUES),
    st.text(alphabet="-=hsx1. ", max_size=4),
)
junk = st.one_of(
    st.sampled_from(JUNK),
    st.text(alphabet="-=hsx1. ", max_size=5).filter(lambda t: not BUNDLED_HELP.fullmatch(t)),
)


@st.composite
def option_tokens(draw):
    """One option, spelled in full or by a prefix, as --opt value, --opt=value or --opt alone."""
    name = "--" + draw(st.sampled_from(OPTION_NAMES))
    name = name[: draw(st.integers(3, len(name)))]
    form = draw(st.sampled_from(["value", "equals", "alone"]))
    if form == "alone":
        return [name]
    value = draw(values)
    return [name, value] if form == "value" else [f"{name}={value}"]


@st.composite
def argvs(draw):
    head = draw(st.lists(junk, max_size=2)) if draw(st.integers(0, 5)) == 0 else []
    command = draw(st.one_of(st.sampled_from(list(COMMANDS)), junk))
    pieces = draw(st.lists(st.one_of(option_tokens(), junk.map(lambda t: [t])), max_size=7))
    return head + [command] + [token for piece in pieces for token in piece]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
def test_parse_matches_the_argparse_reference(argv):
    ours = outcome(cli._parse, argv)  # anything but SystemExit fails the test here
    assert ours[0] == "ok" or ours[1] in (0, 2), ours
    theirs = outcome(REFERENCE.parse_args, argv)
    if theirs[0] == "ok" and well_typed(theirs[1]):
        assert ours == theirs, argv
    elif theirs[0] == "exit" and theirs[1] == 0:
        assert ours[:2] == ("exit", 0), argv
    elif ours[:2] != ("exit", 2):
        if "not allowed with argument" in theirs[-1]:  # --urn with --dist
            parsed = dict(ours[1]) if ours[0] == "ok" else None
            assert parsed is None or None not in (parsed["urn"], parsed["dist"]), argv
        else:
            assert takes_a_dash_value(argv), (argv, ours, theirs)


class TestRules:
    def test_unique_prefixes_and_equals_forms_match(self):
        args = cli._parse(["bound", "--obs", "g.json", "--s=4", "--me", "lp", "--dump"])
        assert vars(args) == {
            "command": "bound", "observable": "g.json", "s": 4, "method": "lp",
            "format": "json", "out": None, "tol": None, "dump_lp": True,
        }

    def test_the_last_occurrence_wins(self):
        args = cli._parse(["verify", "--seed", "3", "--seed=5", "--tol", "1", "--tol", "2"])
        assert (args.seed, args.tol) == (5, 2.0)

    def test_a_value_is_the_next_token_even_with_a_dash(self):
        args = cli._parse(["bound", "--observable", "-g.json", "--s", "-1", "--tol", "-inf"])
        assert (args.observable, args.s, args.tol) == ("-g.json", -1, -math.inf)

    @pytest.mark.parametrize(
        "argv, prog, message",
        [
            (["curve", "--observable", "g", "--s", "3"], "finex curve",
             "ambiguous option: --s could match --s-min, --s-max"),
            (["bound", "--s", "x"], "finex bound", "argument --s: invalid int value: 'x'"),
            (["bound", "--method", "lps"], "finex bound",
             "argument --method: invalid choice: 'lps' (choose from 'oracle', 'lp', 'boson', 'all')"),
            (["verify", "--seed"], "finex verify", "argument --seed: expected one argument"),
            (["verify", "--inject-perturbation=1"], "finex verify",
             "argument --inject-perturbation: ignored explicit argument '1'"),
            (["bound", "--s", "2"], "finex bound",
             "the following arguments are required: --observable"),
            (["verify", "extra", "--bogus"], "finex verify", "unrecognized arguments: extra --bogus"),
            ([], "finex", "the following arguments are required: command"),
            (["frobnicate"], "finex", "argument command: invalid choice: 'frobnicate'"),
        ],
    )
    def test_a_usage_error_exits_2_with_a_usage_and_an_error_line(
        self, argv, prog, message, capsys
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        usage, error = captured.err.splitlines()
        assert captured.out == ""
        assert usage.startswith(f"usage: {prog} ")
        assert error.startswith(f"{prog}: error: {message}")

    def test_help_wins_over_a_later_error_but_not_an_ambiguous_prefix(self, capsys):
        assert main(["bound", "--bogus", "-h", "--s", "x"]) == 0
        assert capsys.readouterr().out.startswith("usage: finex bound ")
        assert main(["curve", "-h", "--s", "3"]) == 2
        assert main(["--bogus", "verify", "--he"]) == 0
        # before the command a negative number or a token with a space is the command
        assert main(["-5", "verify", "-h"]) == main(["-x y", "verify", "-h"]) == 2

    def test_tokens_after_a_double_dash_are_unknown(self, capsys):
        assert main(["verify", "--", "-h"]) == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: -- -h\n")

    def test_urn_with_dist_is_refused_by_the_command(self, capsys):
        assert main(["sample", "--urn", "1,1", "--dist", "d.json", "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: choose exactly one of --urn or --dist\n"


class TestHelp:
    """--help exits 0 and names every command or option the table declares."""

    def test_the_top_level_help_names_every_command(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: finex [-h] {bound,curve,verify,sample,coin-demo}")
        for name, (line, _) in COMMANDS.items():
            assert re.search(rf"^  {re.escape(name)} +{re.escape(line)}$", captured.out, re.M)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_each_command_help_names_every_option(self, command, capsys):
        assert main([command, "--help"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and lines[0].startswith(f"usage: finex {command} [-h]")
        assert COMMANDS[command][0] in lines
        labels = [line.split()[0] for line in lines if line.startswith("  --")]
        assert labels == [f"--{name}" for name in COMMANDS[command][1]]
        for name, option in COMMANDS[command][1].items():
            row = next(line for line in lines if line.startswith(f"  --{name} "))
            assert option.help in row
            assert ("(required)" in row or row.endswith("required")) == option.required
        assert max(map(len, lines)) <= 80  # the text is fixed, so it is never wrapped


def test_the_cli_loads_no_argparse_gettext_or_locale():
    """Neither importing the CLI nor a first command loads argparse, gettext or locale."""
    code = (
        "import contextlib, io, sys\n"
        "import finex.cli as cli\n"
        "loaded = lambda: [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--seed', '0'])\n"
        "print(code, loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "[]\n0 []\n", proc.stderr
