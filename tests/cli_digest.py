"""Print one sha256 per finex command over its stdout, stderr and exit code.

Run from the repository root:

    PYTHONPATH=src python tests/cli_digest.py > digests.txt

Each line is the digest, then the command.  Two such files diffed show
every command whose output or exit code a change altered.  The current
code's file is committed as tests/cli_digest.txt, and
tests/test_cli_digest.py fails, naming each command, where this script
prints otherwise.  A change that alters a command's output on purpose
regenerates it,

    PYTHONPATH=src python tests/cli_digest.py > tests/cli_digest.txt

and lists the changed commands in CHANGES.md.  The commands,
run in-process through finex.cli.main:

  verify --seed 0..63, with and without --inject-perturbation;
  bound --method all on the lp_cone inputs of seeds 1, 2, 3, 5 and 7,
    as perfbench/workloads.py builds them;
  on each of their psd-* inputs, curve at s = 2..7, then bound --method
    all and curve at s = 2..7 on a copy with its JSON terms reversed;
  curve on the d=6 witness at s = 2..12;
  coin-demo.

The observable files are written to a temporary directory, which is the
working directory while the commands run, so their names in the command
lines (and in any message that quotes them) are the same on every run.
This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, found through the path above)

from finex.cli import main  # noqa: E402

LP_CONE_SEEDS = (1, 2, 3, 5, 7)
CURVE = ["curve", "--observable", "{input}", "--s-min", "2", "--s-max", "7"]


def _on(argv: list[str], name: str) -> list[str]:
    """argv with its {input} placeholder replaced by the file name."""
    return [name if word == "{input}" else word for word in argv]


def commands() -> list[tuple[list[str], dict[str, dict]]]:
    """(argv, {file name: observable JSON document}) for every command, in order."""
    out = []
    for perturb in (False, True):
        for seed in range(64):
            argv = ["verify", "--seed", str(seed)]
            out.append((argv + ["--inject-perturbation"] if perturb else argv, {}))
    for seed in LP_CONE_SEEDS:
        for job in workloads.lp_cone(seed):
            name = f"lp_cone-{seed}-{job['name']}.json"
            files = {name: workloads.polynomial_json(job["observable"])}
            out.append((_on(job["argv"], name), files))
            if job["name"].startswith("psd-"):
                # its terms come in composition order; the copy lists them backwards
                copy = name.replace(".json", "-reversed.json")
                backwards = {copy: {**files[name], "terms": files[name]["terms"][::-1]}}
                out.append((_on(CURVE, name), files))
                out.append((_on(job["argv"], copy), backwards))
                out.append((_on(CURVE, copy), backwards))
    witness = {"d": 6, "terms": [
        {"counts": [2, 0, 0, 0, 0, 0], "coeff": 1.0},
        {"counts": [1, 1, 0, 0, 0, 0], "coeff": -1.0},
        {"counts": [0, 2, 0, 0, 0, 0], "coeff": 1.0},
    ]}
    argv = ["curve", "--observable", "witness-d6.json", "--s-min", "2", "--s-max", "12"]
    out.append((argv, {"witness-d6.json": witness}))
    out.append((["coin-demo"], {}))
    return out


def digest(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = f"{stdout.getvalue()}\0{stderr.getvalue()}\0{code}"
    return hashlib.sha256(text.encode()).hexdigest()


def run() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            for argv, files in commands():
                for name, document in files.items():
                    Path(name).write_text(json.dumps(document))
                print(f"{digest(argv)}  {' '.join(argv)}", flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    run()
