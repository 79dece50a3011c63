"""Homogeneous polynomials on the probability simplex.

A SimplexPolynomial stores a degree-r homogeneous polynomial in the face
probabilities theta_1..theta_d as a sparse map from count vectors to real
coefficients (the monomial theta^n carries the key n).  Because the
variables sum to one on the simplex, a polynomial of degree r can be
rewritten at any higher degree s by multiplying with (theta_1+...+theta_d)
to the power s-r without changing its values on the simplex; that lifting
is what `homogenize` does, and it is how a fixed observable on r draws is
expressed against longer exchangeable sequences.

The JSON interchange format is::

    {"d": 6, "terms": [{"counts": [2,0,0,0,0,0], "coeff": 1.0}, ...]}

All terms must share one total degree; the parser rejects mixed-degree
term lists and names the offending term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from .config import DEFAULT_TOLERANCES
from .errors import DomainError
from .multiindex import CountVector, compositions, orbit_size, validate_counts

_PRUNE = DEFAULT_TOLERANCES.coefficient_prune


@dataclass(frozen=True)
class SimplexPolynomial:
    """Homogeneous polynomial of fixed degree in d simplex variables."""

    d: int
    degree: int
    terms: dict[CountVector, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("polynomial needs d >= 1 variables")
        if self.degree < 0:
            raise DomainError("polynomial degree must be >= 0")
        cleaned = {}
        for n, c in self.terms.items():
            n = tuple(n)
            validate_counts(n)
            if len(n) != self.d:
                raise DomainError(f"term {n} has {len(n)} entries, expected d={self.d}")
            if sum(n) != self.degree:
                raise DomainError(
                    f"term {n} has degree {sum(n)}, expected {self.degree} (not homogeneous)"
                )
            c = float(c)
            if not math.isfinite(c):
                raise DomainError(f"term {n} has a non-finite coefficient {c}")
            if abs(c) >= _PRUNE:
                cleaned[n] = cleaned.get(n, 0.0) + c
        object.__setattr__(self, "terms", cleaned)

    def coefficient(self, n: CountVector) -> float:
        return self.terms.get(tuple(n), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexPolynomial):
            return NotImplemented
        return self.d == other.d and self.degree == other.degree and self.terms == other.terms


def monomial(n: CountVector, coeff: float = 1.0) -> SimplexPolynomial:
    """The single-term polynomial coeff * theta^n."""
    n = tuple(n)
    return SimplexPolynomial(len(n), sum(n), {n: coeff})


def constant(value: float, d: int) -> SimplexPolynomial:
    """The degree-0 polynomial with the given value."""
    return SimplexPolynomial(d, 0, {(0,) * d: value})


def homogenize(g: SimplexPolynomial, target_degree: int) -> SimplexPolynomial:
    """Multiply g by (theta_1+...+theta_d)**(target_degree - degree).

    On the simplex the values are unchanged; the result is homogeneous of
    the target degree.
    """
    lift = target_degree - g.degree
    if lift < 0:
        raise DomainError(
            f"cannot lower degree: target {target_degree} < degree {g.degree}"
        )
    if lift == 0:
        return g
    terms: dict[CountVector, float] = {}
    for m in compositions(lift, g.d):
        # multinomial weight of theta^m inside (sum theta)^lift
        w = orbit_size(m)
        for n, c in g.terms.items():
            key = tuple(a + b for a, b in zip(n, m))
            terms[key] = terms.get(key, 0.0) + c * w
    return SimplexPolynomial(g.d, target_degree, terms)


def evaluate(g: SimplexPolynomial, theta) -> float:
    """Value of g at a point (any real vector of length d)."""
    theta = list(theta)
    if len(theta) != g.d:
        raise DomainError(f"point has {len(theta)} coordinates, expected {g.d}")
    total = 0.0
    for n, c in g.terms.items():
        term = c
        for t, e in zip(theta, n):
            if e:
                term *= t**e
        total += term
    return total


def gradient(g: SimplexPolynomial, theta) -> list[float]:
    """Partial derivatives of g at a point."""
    theta = list(theta)
    if len(theta) != g.d:
        raise DomainError(f"point has {len(theta)} coordinates, expected {g.d}")
    grad = [0.0] * g.d
    for n, c in g.terms.items():
        for i, e in enumerate(n):
            if e == 0:
                continue
            term = c * e
            for j, (t, f) in enumerate(zip(theta, n)):
                power = f - 1 if j == i else f
                if power:
                    term *= t**power
            grad[i] += term
    return grad


def reduce_to_free_vars(g: SimplexPolynomial) -> dict[tuple[int, ...], float]:
    """Substitute theta_d = 1 - theta_1 - ... - theta_{d-1} and expand.

    Returns a (generally non-homogeneous) map from (d-1)-entry exponent
    vectors to coefficients.  The cone LP (bernstein_lp) writes the same
    coefficients from its cached per-shape structure; this expansion is
    the reference its tests compare against.
    """
    out: dict[tuple[int, ...], float] = {}
    dm1 = g.d - 1
    for n, c in g.terms.items():
        head, last = n[:dm1], n[-1]
        # (1 - theta_1 - ... - theta_{d-1})**last expanded multinomially:
        # slot 0 holds the constant 1, slots 1..d-1 hold -theta_i
        for j in compositions(last, dm1 + 1):
            w = orbit_size(j) * (-1) ** (last - j[0])
            key = tuple(h + e for h, e in zip(head, j[1:]))
            out[key] = out.get(key, 0.0) + c * w
    return {e: c for e, c in out.items() if abs(c) >= _PRUNE}


@dataclass(frozen=True)
class DiagonalObservable:
    """Diagonal observable on the d**s sequence basis, constant on orbits.

    values maps a count vector to the entry shared by every sequence in
    its orbit; count vectors absent from the map carry the value 0.
    """

    d: int
    s: int
    values: dict[CountVector, float] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for n, v in self.values.items():
            n = tuple(n)
            validate_counts(n)
            if len(n) != self.d or sum(n) != self.s:
                raise DomainError(
                    f"observable entry {n} does not have degree {self.s} over d={self.d}"
                )
            cleaned[n] = float(v)
        object.__setattr__(self, "values", cleaned)

    def value(self, n: CountVector) -> float:
        return self.values.get(tuple(n), 0.0)


def to_diagonal_observable(g: SimplexPolynomial) -> DiagonalObservable:
    """Observable whose expectation under any exchangeable P equals L(g).

    The entry on each sequence is the coefficient of its orbit's monomial
    divided by the orbit size, so summing entry * per-sequence probability
    over all sequences reproduces the polynomial expectation.
    """
    values = {n: c / orbit_size(n) for n, c in g.terms.items()}
    return DiagonalObservable(g.d, g.degree, values)


def to_json(g: SimplexPolynomial) -> str:
    terms = [
        {"counts": list(n), "coeff": c}
        for n, c in sorted(g.terms.items(), reverse=True)
    ]
    return json.dumps({"d": g.d, "terms": terms})


def from_json(text: str) -> SimplexPolynomial:
    """Parse the JSON polynomial format, rejecting non-homogeneous input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "d" not in doc or "terms" not in doc:
        raise DomainError('polynomial JSON must be {"d": ..., "terms": [...]}')
    d = doc["d"]
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    terms: dict[CountVector, float] = {}
    deg = None
    for item in doc["terms"]:
        if not isinstance(item, dict) or "counts" not in item or "coeff" not in item:
            raise DomainError(f'term {item!r} must be {{"counts": [...], "coeff": ...}}')
        counts = item["counts"]
        if (
            not isinstance(counts, list)
            or len(counts) != d
            or any(not isinstance(v, int) or v < 0 for v in counts)
        ):
            raise DomainError(
                f"term {item!r}: counts must be {d} non-negative integers"
            )
        n = tuple(counts)
        if deg is None:
            deg = sum(n)
        elif sum(n) != deg:
            raise DomainError(
                f"term {item!r} has degree {sum(n)} but earlier terms have degree {deg} "
                "(terms must be homogeneous)"
            )
        terms[n] = terms.get(n, 0.0) + float(item["coeff"])
    return SimplexPolynomial(d, deg if deg is not None else 0, terms)


def two_face_witness(d: int = 6) -> SimplexPolynomial:
    """theta_1^2 - theta_1 theta_2 + theta_2^2 over d outcomes.

    Non-negative everywhere, approaching 0 only when both flagged faces
    carry no mass (attainable for d >= 3), so a negative worst-case
    expectation certifies that a distribution is only finitely exchangeable.
    """
    if d < 2:
        raise DomainError("witness needs at least two outcomes")

    def unit(i, j):
        n = [0] * d
        n[i] += 1
        n[j] += 1
        return tuple(n)

    return SimplexPolynomial(d, 2, {unit(0, 0): 1.0, unit(0, 1): -1.0, unit(1, 1): 1.0})


def sum_of_squares(d: int) -> SimplexPolynomial:
    """theta_1^2 + ... + theta_d^2 (minimum 1/d at the barycenter)."""
    terms = {tuple(2 if j == i else 0 for j in range(d)): 1.0 for i in range(d)}
    return SimplexPolynomial(d, 2, terms)
