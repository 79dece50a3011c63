"""Print one sha256 per seeded cone LP solve over every array it returns.

Run from the repository root:

    PYTHONPATH=src python tests/lp_digest.py > digests.txt

Each line is the digest, then the case.  A case is a random block of
observables solved at one to four lengths by bernstein_lp._solve, its b
built by _right_hand_sides as lp_block builds it.  The digest covers, per
length, the optimal values, the primal [u; c], the dual, the bits of each
residual and the leaving rows; a case that raises is hashed over its
error type and text instead.  This pins certificate and residual bits
that no command prints.  The current code's file is committed as
tests/lp_digest.txt, and tests/test_lp_digest.py fails, naming each case,
where this script prints otherwise.  A change that alters a solve on
purpose regenerates it,

    PYTHONPATH=src python tests/lp_digest.py > tests/lp_digest.txt

and lists the changed cases in CHANGES.md.  The cases are drawn from
numpy's default_rng(11): d from 1 to 5, degree 0 to 3, 1 to 5 columns,
each column's coefficients uniform in [-1, 1] times a scale from 1e-3 to
1e6, about 30 % of them zero, and 1 to 4 lengths from degree to
degree + 4, drawn with repeats and in no order.
This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from finex.bernstein_lp import _right_hand_sides, _solve
from finex.errors import FinexError
from finex.multiindex import table_rows
from finex.polynomial import PolynomialBlock

CASES = 300


def cases() -> list[tuple[PolynomialBlock, tuple[int, ...]]]:
    """(block, lengths) for every case, in order."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(CASES):
        d, degree, size = int(rng.integers(1, 6)), int(rng.integers(0, 4)), int(rng.integers(1, 6))
        scales = 10.0 ** rng.uniform(-3, 6, size)
        matrix = rng.uniform(-1, 1, (table_rows(degree, d), size)) * scales
        matrix[rng.random(matrix.shape) < 0.3] = 0.0
        matrix.setflags(write=False)
        lengths = tuple(rng.integers(degree, degree + 5, int(rng.integers(1, 5))).tolist())
        out.append((PolynomialBlock(d, degree, matrix), lengths))
    return out


def digest(block: PolynomialBlock, lengths: tuple[int, ...]) -> str:
    """The sha256 of the case's solve at every length, or of the error it raises."""
    h = hashlib.sha256()
    try:
        solved = _solve(block.d, _right_hand_sides(block, *lengths), *lengths)
    except FinexError as error:  # the error is the outcome being pinned
        h.update(f"{type(error).__name__}: {error}".encode())
        return h.hexdigest()
    for c, primal, dual, residuals, leaving in solved:
        for x in (c, primal, dual, *(residuals[key] for key in sorted(residuals)), leaving):
            x = np.asarray(x)
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(x.tobytes())
    return h.hexdigest()


def lines() -> list[str]:
    """One "<digest>  <case>" line per case."""
    return [
        f"{digest(block, lengths)}  case {i}: d={block.d} degree={block.degree} "
        f"columns={block.size} lengths={lengths}"
        for i, (block, lengths) in enumerate(cases())
    ]


if __name__ == "__main__":
    print("\n".join(lines()))
