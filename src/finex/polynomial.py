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
    count_vector,
    is_integer,
    json_counts,
    json_document,
    orbit_size,
    orbit_sizes,
    ranks,
    require_int,
    scatter_by_rank,
    table_rows,
    validate_counts,
)

_PRUNE = DEFAULT_TOLERANCES.coefficient_prune
_LIFT_BLOCK = 1 << 16  # (lift composition, term) products scattered per block


@dataclass(frozen=True)
class SimplexPolynomial:
    """Homogeneous polynomial of fixed degree in d simplex variables.

    terms is kept in composition order (lex-descending count vectors),
    whatever order it was given in.
    """

    d: int
    degree: int
    terms: dict[CountVector, float] = field(default_factory=dict)

    def __post_init__(self):
        require_int(self.d, "d", 1)
        require_int(self.degree, "degree", 0)
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
        # composition order, so every sum over the terms adds them in one order
        object.__setattr__(self, "terms", dict(sorted(cleaned.items(), reverse=True)))

    @classmethod
    def _checked(cls, d: int, degree: int, terms: dict, vector: np.ndarray):
        """Wrap valid, finite, pruned terms in composition order, and their vector, unchecked."""
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
    """B observables of one shape (d, degree) as an N(degree) x B coefficient matrix.

    Column j of coefficient_matrix is observable j's coefficient_vector,
    its coefficients in compositions(degree, d) order, 0 where it has no
    such term.  Every route evaluates a block, one value per column, and a
    single observable is a block of one (PolynomialBlock.of([g])).  Every
    route takes a sequence of lengths (a tuple, list or range), checks
    them once (check_lengths) and returns a list with one (values, rows)
    pair per length, in the order given: each column's minimum and its row
    in compositions(s, d), each pair bitwise what a call at that length
    alone returns.  Every route reads the terms in composition order, so
    each column reads bitwise what it reads alone, whatever order its
    terms came in.  Build blocks with PolynomialBlock.of, which takes
    validated polynomials; every array is read-only.
    """

    d: int
    degree: int
    coefficient_matrix: np.ndarray

    @classmethod
    def of(cls, polynomials) -> PolynomialBlock:
        """Stack the coefficient_vectors of observables of one shape, one column each."""
        polynomials = list(polynomials)
        if not polynomials:
            raise DomainError("a block needs at least one observable")
        d, degree = polynomials[0].d, polynomials[0].degree
        for g in polynomials:
            if (g.d, g.degree) != (d, degree):
                raise DomainError(
                    f"a block holds one shape: d={g.d}, degree {g.degree} "
                    f"after d={d}, degree {degree}"
                )
        matrix = np.stack([g.coefficient_vector for g in polynomials], axis=1)
        matrix.setflags(write=False)
        return cls(d, degree, matrix)

    @property
    def size(self) -> int:
        """B, the number of observables."""
        return self.coefficient_matrix.shape[1]

    def check_lengths(self, lengths) -> tuple[int, ...]:
        """lengths as a tuple, at least one, each an integer >= degree; run before any cache."""
        lengths = tuple(lengths)
        if not lengths:
            raise DomainError("a block route needs at least one sequence length")
        for s in lengths:
            if not is_integer(s):
                raise DomainError(f"sequence length must be an integer, got {s!r}")
            if s < self.degree:
                raise DomainError(f"sequence length {s} < polynomial degree {self.degree}")
        return lengths

    @cached_property
    def _term_rows(self) -> np.ndarray:
        """The rows of coefficient_matrix with a nonzero entry, the terms of some column."""
        return np.flatnonzero(self.coefficient_matrix.any(axis=1))

    @cached_property
    def term_counts(self) -> np.ndarray:
        """The terms' count vectors, in composition order, as a (terms x d) int64 array; read-only."""
        out = composition_array(self.degree, self.d)[self._term_rows]
        out.setflags(write=False)
        return out

    @cached_property
    def terms(self) -> tuple[CountVector, ...]:
        """term_counts as tuples."""
        return tuple(map(tuple, self.term_counts.tolist()))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """coefficient_matrix's rows at the terms, a (terms x B) array; read-only."""
        out = self.coefficient_matrix[self._term_rows]
        out.setflags(write=False)
        return out


def lift_block(block: PolynomialBlock, target_degree: int) -> np.ndarray:
    """Each column multiplied by (theta_1+...+theta_d)**(target_degree - degree).

    Returns the lifted coefficients in compositions(target_degree, d)
    order, one column per observable, those below the prune threshold
    set to 0.  A lifted coefficient past the float range in any column
    raises DomainError.  target_degree is checked first (check_lengths).
    """
    block.check_lengths((target_degree,))
    return _lift(block, target_degree)


def _lift(block: PolynomialBlock, target_degree: int) -> np.ndarray:
    """lift_block at a target_degree already checked, as a route checks its lengths."""
    lift = target_degree - block.degree
    d, size = block.d, block.size
    # sized first: a target degree past the tables is refused by name, before the lift's tables
    values = np.zeros(table_rows(target_degree, d) * size)
    term_counts, coeffs = block.term_counts, block.coefficients
    lift_counts, weights = composition_array(lift, d), orbit_sizes(lift, d)
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
            index = (ranks(keys, target_degree)[:, None] * size + columns).ravel()
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
        cleaned = {
            count_vector(n, self.s, self.d, "observable entry"): float(v)
            for n, v in self.values.items()
        }
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
        {"counts": [int(v) for v in n], "coeff": c}
        for n, c in sorted(g.terms.items(), reverse=True)
    ]
    return json.dumps({"d": int(g.d), "terms": terms})


def from_json(text: str | bytes) -> SimplexPolynomial:
    """Parse the JSON polynomial format, rejecting non-homogeneous input."""
    doc = json_document(text, "polynomial", ("d", "terms"))
    d = require_int(doc["d"], "d", 1)
    terms = json_counts(doc["terms"], "term", "coeff")
    degree = sum(next(iter(terms), ()))
    for n in terms:
        if sum(n) != degree:
            raise DomainError(
                f"term {list(n)} has degree {sum(n)} but earlier terms have degree {degree} "
                "(terms must be homogeneous)"
            )
    return SimplexPolynomial(d, degree, terms)


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
