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
from functools import cached_property
from itertools import compress

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DomainError
from .multiindex import (
    CountVector,
    composition_array,
    compositions,
    num_compositions,
    orbit_size,
    orbit_sizes,
    ranks,
    require_int,
    scatter_by_rank,
    validate_counts,
)

_PRUNE = DEFAULT_TOLERANCES.coefficient_prune
_LIFT_BLOCK = 1 << 16  # (lift composition, term) products scattered per block


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

    @classmethod
    def _checked(cls, d: int, degree: int, terms: dict, vector: np.ndarray):
        """Wrap valid, finite, pruned terms and their coefficient_vector, without re-checking."""
        g = object.__new__(cls)
        vector.setflags(write=False)
        g.__dict__.update(d=d, degree=degree, terms=terms, coefficient_vector=vector)
        return g

    @cached_property
    def coefficient_vector(self) -> np.ndarray:
        """Coefficients in compositions(degree, d) order, 0 where there is no term; read-only."""
        out = scatter_by_rank(self.terms, self.degree, self.d)
        out.setflags(write=False)
        return out

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


@dataclass(frozen=True, eq=False)
class PolynomialBlock:
    """B observables of one shape (d, degree) as a term list and a (terms x B) matrix.

    Column j of coefficients holds observable j's coefficient on each of
    terms, 0 where it has no such term.  Every route evaluates a block,
    one value per column, and a single observable is a block of one
    (PolynomialBlock.of([g])).  The boson route sums its terms in the
    block's order, so a column whose own terms come in that order reads
    bitwise what it reads alone.  Build blocks with PolynomialBlock.of,
    which takes validated polynomials; the matrix is read-only.
    """

    d: int
    degree: int
    terms: tuple[CountVector, ...]
    coefficients: np.ndarray

    @classmethod
    def of(cls, polynomials) -> PolynomialBlock:
        """Stack observables of one shape; the terms in the order they are first met."""
        polynomials = list(polynomials)
        if not polynomials:
            raise DomainError("a block needs at least one observable")
        d, degree = polynomials[0].d, polynomials[0].degree
        position: dict[CountVector, int] = {}
        for g in polynomials:
            if (g.d, g.degree) != (d, degree):
                raise DomainError(
                    f"a block holds one shape: d={g.d}, degree {g.degree} "
                    f"after d={d}, degree {degree}"
                )
            for n in g.terms:
                position.setdefault(n, len(position))
        coefficients = np.zeros((len(position), len(polynomials)))
        for j, g in enumerate(polynomials):
            coefficients[[position[n] for n in g.terms], j] = list(g.terms.values())
        coefficients.setflags(write=False)
        return cls(d, degree, tuple(position), coefficients)

    @property
    def size(self) -> int:
        """B, the number of observables."""
        return self.coefficients.shape[1]

    @cached_property
    def term_counts(self) -> np.ndarray:
        """terms as a (terms x d) int64 array."""
        return np.array(self.terms, dtype=np.int64).reshape(-1, self.d)

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """Coefficients in compositions(degree, d) order, one column per observable; read-only."""
        out = np.zeros((num_compositions(self.degree, self.d), self.size))
        out[ranks(self.term_counts, self.degree)] = self.coefficients
        out.setflags(write=False)
        return out


def lift_block(block: PolynomialBlock, target_degree: int) -> np.ndarray:
    """Each column multiplied by (theta_1+...+theta_d)**(target_degree - degree).

    Returns the lifted coefficients in compositions(target_degree, d)
    order, one column per observable, those below the prune threshold
    set to 0.  A lifted coefficient past the float range in any column
    raises DomainError.
    """
    lift = target_degree - block.degree
    if lift < 0:
        raise DomainError(
            f"cannot lower degree: target {target_degree} < degree {block.degree}"
        )
    d, size = block.d, block.size
    term_counts, coeffs = block.term_counts, block.coefficients
    lift_counts, weights = composition_array(lift, d), orbit_sizes(lift, d)
    values = np.zeros(num_compositions(target_degree, d) * size)
    columns = np.arange(size)
    # one product per lift composition m (weight orbit_size(m), its multinomial),
    # term n and column, m-major: np.add.at adds them in that order, block
    # after block, so every lifted coefficient rounds as the sum over m, then
    # over n, does; one m and the target fix n, so the term order never matters
    step = max(1, _LIFT_BLOCK // max(1, coeffs.size))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for start in range(0, len(weights), step):
            block_m = slice(start, start + step)
            keys = (lift_counts[block_m, None, :] + term_counts[None, :, :]).reshape(-1, d)
            index = ranks(keys, target_degree)
            if size > 1:
                index = (index[:, None] * size + columns).ravel()
            products = (weights[block_m, None, None] * coeffs[None, :, :]).ravel()
            np.add.at(values, index, products)
    if not np.isfinite(values).all():
        raise DomainError(
            f"lifting to length s={target_degree} overflows: "
            "a lifted coefficient exceeds the float range"
        )
    values[np.abs(values) < _PRUNE] = 0.0
    return values.reshape(-1, size)


def homogenize(g: SimplexPolynomial, target_degree: int) -> SimplexPolynomial:
    """Multiply g by (theta_1+...+theta_d)**(target_degree - degree).

    On the simplex the values are unchanged; the result is homogeneous of
    the target degree.  The coefficients are lift_block's for g as a block
    of one.  A lifted coefficient past the float range raises DomainError.
    """
    if target_degree == g.degree:
        return g
    values = lift_block(PolynomialBlock.of([g]), target_degree)[:, 0]
    kept = values != 0.0  # lift_block has set the pruned coefficients to 0
    comps = compositions(target_degree, g.d)
    terms = dict(zip(compress(comps, kept.tolist()), values[kept].tolist()))
    return SimplexPolynomial._checked(g.d, target_degree, terms, values)


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
    d = require_int(doc["d"], "d", 1)
    if not isinstance(doc["terms"], list):
        raise DomainError(f"terms must be a list, got {doc['terms']!r}")
    terms: dict[CountVector, float] = {}
    deg = None
    for item in doc["terms"]:
        if not isinstance(item, dict) or "counts" not in item or "coeff" not in item:
            raise DomainError(f'term {item!r} must be {{"counts": [...], "coeff": ...}}')
        counts = item["counts"]
        if (
            not isinstance(counts, list)
            or len(counts) != d
            or any(type(v) is not int or v < 0 for v in counts)
        ):
            raise DomainError(
                f"term {item!r}: counts must be {d} non-negative integers"
            )
        # bool is an int subclass and float("1.5") parses, so check the type
        if type(item["coeff"]) not in (int, float):
            raise DomainError(f"term {item!r}: coeff must be a number")
        try:
            coeff = float(item["coeff"])
        except OverflowError as exc:
            raise DomainError(f"term {item!r}: coeff exceeds the float range") from exc
        n = tuple(counts)
        if deg is None:
            deg = sum(n)
        elif sum(n) != deg:
            raise DomainError(
                f"term {item!r} has degree {sum(n)} but earlier terms have degree {deg} "
                "(terms must be homogeneous)"
            )
        terms[n] = terms.get(n, 0.0) + coeff
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
