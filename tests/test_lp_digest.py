"""Every seeded cone LP solve tests/lp_digest.py runs gives what tests/lp_digest.txt records.

The script prints one digest per case over the values, primals, duals,
residual bits and leaving rows of its solve at every length, or over the
error it raises.  A change that alters any of them fails here, naming each
such case; if the change is meant, regenerate the file from the
repository root,

    PYTHONPATH=src python tests/lp_digest.py > tests/lp_digest.txt

and list the changed cases in CHANGES.md.
"""

from itertools import zip_longest
from pathlib import Path

from lp_digest import lines

DIGESTS = Path(__file__).resolve().parent / "lp_digest.txt"


def test_every_solve_gives_its_recorded_digest():
    expected = DIGESTS.read_text().splitlines()
    changed = [
        (old or new).split("  ", 1)[1]  # the case: "<digest>  <case>"
        for old, new in zip_longest(expected, lines())
        if old != new
    ]
    assert not changed, "solve changed for: " + "; ".join(changed)
