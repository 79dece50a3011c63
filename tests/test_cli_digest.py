"""Every command tests/cli_digest.py runs prints what tests/cli_digest.txt records.

The script prints one digest per command over its stdout, stderr and exit
code.  A change that alters any command's output fails here, naming each
such command; if the change is meant, regenerate the file from the
repository root,

    PYTHONPATH=src python tests/cli_digest.py > tests/cli_digest.txt

and list the changed commands in CHANGES.md.
"""

import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "cli_digest.txt"


@pytest.mark.skipif(
    not (ROOT / "perfbench" / "workloads.py").exists(), reason="perfbench/ is absent"
)
def test_every_command_prints_its_recorded_digest():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "cli_digest.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    expected, printed = DIGESTS.read_text().splitlines(), done.stdout.splitlines()
    changed = [
        (old or new).split("  ", 1)[1]  # the command: "<digest>  <argv>"
        for old, new in zip_longest(expected, printed)
        if old != new
    ]
    assert not changed, "output changed for: " + "; ".join(changed)
