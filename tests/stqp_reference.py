"""Exact minimum of a quadratic over the probability simplex, in Fractions.

The reference for boson.simplex_minimum on quadratics: a standard quadratic
program (Bomze 1998, *On standard quadratic optimization problems*, J. Global
Optim. 13).  Write g(x) = x^T Q x.  The minimum lies in the relative interior
of some face S, at a KKT point of g restricted to S: Q_S x = lam 1,
1^T x = 1, x >= 0, and there g(x) = lam.  So every support S is tried, and
its (|S| + 1)-square system is solved by exact elimination.  A singular
system is skipped: its stationary points form a line on which g is
constant, and the line leaves the face, so the same value is met on a
smaller face.  2^d - 1 supports; meant for d <= 4 in the suite.
"""

from fractions import Fraction
from itertools import combinations

from finex.polynomial import SimplexPolynomial


def quadratic_form(g: SimplexPolynomial) -> list[list[Fraction]]:
    """The symmetric Q with g(x) = x^T Q x, from g's float coefficients exactly."""
    if g.degree != 2:
        raise ValueError(f"a quadratic is needed, not degree {g.degree}")
    q = [[Fraction(0)] * g.d for _ in range(g.d)]
    for n, c in g.terms.items():
        i, j = [k for k, e in enumerate(n) for _ in range(e)]
        q[i][j] += Fraction(c) / (1 if i == j else 2)
        if i != j:
            q[j][i] = q[i][j]
    return q


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """x with a x = b by Gauss-Jordan elimination, or None if a is singular."""
    m = len(a)
    rows = [row[:] + [v] for row, v in zip(a, b)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][m] / rows[r][r] for r in range(m)]


def stqp_minimum(g: SimplexPolynomial) -> tuple[Fraction, list[Fraction]]:
    """The exact minimum of the quadratic g over the simplex, and a point attaining it."""
    q = quadratic_form(g)
    best = None
    for size in range(1, g.d + 1):
        for support in combinations(range(g.d), size):
            # unknowns x_S and lam: Q_S x_S - lam 1 = 0, 1^T x_S = 1
            a = [[q[i][j] for j in support] + [Fraction(-1)] for i in support]
            a.append([Fraction(1)] * size + [Fraction(0)])
            solution = _solve(a, [Fraction(0)] * size + [Fraction(1)])
            if solution is None or min(solution[:-1]) < 0:
                continue
            if best is None or solution[-1] < best[0]:
                x = [Fraction(0)] * g.d
                for i, v in zip(support, solution):
                    x[i] = v
                best = (solution[-1], x)
    return best
