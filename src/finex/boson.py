"""The quantum route: symmetric subspace, occupation compression, eigenbounds.

A length-s exchangeable experiment over d outcomes maps onto s
indistinguishable d-level bosons.  The permutation-symmetric subspace of
the d**s tensor space has one orthonormal basis vector per count vector
(the occupation basis); compressing an orbit-constant diagonal observable
onto it gives a diagonal operator whose smallest eigenvalue is exactly
the worst-case expectation over all boson-symmetric density matrices.
boson_block reads that diagonal by second quantization, never from the
lifted observable, for a block of observables, one column each
(quantum_bound is a block of one), so its agreement with the urn oracle
and the cone LP tests the classical/quantum equivalence instead of
assuming it.

boson_block caches two read-only tables per length, composition_array(s, d)
and _falling_factorials(k, s), and nothing per call: it reads each
length's tables in place, one length after another.

Dense tensor-space objects (symmetrizer, permutation matrices and their
relabelling tables, dense density matrices) are capped at d**s <= 4096.
They check the compressed path against dense matrix algebra: the tests
run them, and so does every `finex verify` invocation (its four dense
rows), which applies each permutation as the exact relabelling that
relabellings lists instead of multiplying by its 0/1 matrix.  The tensor
basis and each sequence's orbit, which they are built from, are cached
per (s, d) as read-only arrays; the arrays returned are fresh and writable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOLERANCES, DENSE_CAP
from .errors import CapacityError, DomainError
from .exchangeable import BoundResult, ExchangeableDistribution
from .multiindex import (
    CountVector,
    composition_array,
    compositions,
    count_vector,
    json_document,
    json_number,
    num_compositions,
    orbit_sizes,
    rank,
    ranks,
    require_int,
    scatter_by_rank,
)
from .polynomial import (
    DiagonalObservable,
    PolynomialBlock,
    SimplexPolynomial,
    evaluate,
    gradient,
    homogenize,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
)
from .solvers import jacobi_eigen, require_hermitian


def _check_dense(s: int, d: int, order: np.ndarray | None = None) -> int:
    """Refuse bad or oversized arguments before any cached call; return d**s.

    s must be an integer >= 0 and d an integer >= 1 (require_int); order,
    one permutation per row, must be a table of integers.
    """
    require_int(s, "s", 0)
    require_int(d, "d", 1)
    if order is not None and (order.ndim != 2 or order.size and order.dtype.kind not in "iu"):
        raise DomainError("permutation entries must be machine integers")
    dim = d**s
    if dim > DENSE_CAP:
        raise CapacityError(
            f"dense tensor space d**s = {dim} exceeds the cap {DENSE_CAP}; "
            "use the occupation-basis path"
        )
    return dim


@lru_cache(maxsize=None)
def _outcomes(s: int, d: int) -> np.ndarray:
    """outcomes[i, j] is draw i of sequence j of the d**s, the row-major tensor basis.

    Read-only; callers run _check_dense first.
    """
    out = np.indices((d,) * s).reshape(s, d**s)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _sequence_orbits(s: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and orbit size of each sequence's count vector, over the d**s in row-major order.

    Read-only; callers run _check_dense first.
    """
    k = ranks((_outcomes(s, d)[:, :, None] == np.arange(d)).sum(axis=0), s)
    orbits = orbit_sizes(s, d)[k]
    k.setflags(write=False)
    orbits.setflags(write=False)
    return k, orbits


@dataclass(frozen=True)
class OccupationBasis:
    """Orthonormal symmetric states, one per count vector of degree s."""

    d: int
    s: int
    elements: tuple[CountVector, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(compositions(self.s, self.d)))

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def index(self, n: CountVector) -> int:
        return rank(count_vector(n, self.s, self.d, "count vector"))

    def dense_isometry(self) -> np.ndarray:
        """V with columns (1/sqrt(orbit)) * sum of the orbit's basis vectors."""
        _check_dense(self.s, self.d)
        k, orbits = _sequence_orbits(self.s, self.d)
        v = np.zeros((len(k), self.dimension))
        v[np.arange(len(k)), k] = 1.0 / np.sqrt(orbits)
        return v


@dataclass(frozen=True)
class BosonDensityMatrix:
    """Density matrix of s indistinguishable d-level bosons, compressed form.

    matrix lives on the occupation basis; the dense tensor-space state is
    V @ matrix @ V.conj().T.  PSD and unit trace are validated on
    construction, against the fixed DEFAULT_TOLERANCES (normalization and
    psd, and the eigensolver's hermiticity and eigen_residual).  The
    symmetry constraint holds by construction because the occupation basis
    spans exactly the symmetric subspace.
    """

    basis: OccupationBasis
    matrix: np.ndarray

    def __post_init__(self):
        tol = DEFAULT_TOLERANCES
        m = require_hermitian(self.matrix)
        if m.shape[0] != self.basis.dimension:
            raise DomainError(
                f"matrix dimension {m.shape[0]} != occupation dimension "
                f"{self.basis.dimension}"
            )
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > tol.normalization:
            raise DomainError(f"density matrix trace {trace} != 1")
        smallest = float(jacobi_eigen(m).eigenvalues[0])
        if smallest < -tol.psd:
            raise DomainError(f"density matrix not PSD: min eigenvalue {smallest}")
        object.__setattr__(self, "matrix", m)

    def dense(self) -> np.ndarray:
        # equal to V @ matrix @ V^H, but written with one exact integer
        # orbit product per entry: same-orbit entries come out bit-exact
        # (probability/orbit_size) instead of picking up sqrt round-off
        _check_dense(self.basis.s, self.basis.d)
        idx, orb = _sequence_orbits(self.basis.s, self.basis.d)
        return self.matrix[np.ix_(idx, idx)] / np.sqrt(np.outer(orb, orb))


def relabellings(perms, d: int) -> np.ndarray:
    """rows[i, j]: the row-major index of sequence j reordered by perms[i].

    Relabelling the tensor factors by perms[i] maps e_j to e_rows[i, j], so
    row i is permutation_matrix(perms[i], d) without its zeros.  Every
    permutation has the same length s.
    """
    perms = [tuple(perm) for perm in perms]
    if not perms:
        raise DomainError("a relabelling table needs at least one permutation")
    s = len(perms[0])
    if any(len(perm) != s for perm in perms):
        raise DomainError("permutations of different lengths cannot share a table")
    order = np.array(perms)
    _check_dense(s, d, order)
    for perm in perms:
        if sorted(perm) != list(range(s)):
            raise DomainError(f"{perm} is not a permutation of 0..{s - 1}")
    order = order.astype(np.intp, copy=False)  # np.array([()]) is float
    return d ** np.arange(s - 1, -1, -1) @ _outcomes(s, d)[order]


def permutation_matrix(perm, d: int) -> np.ndarray:
    """Tensor-factor relabelling: maps e_seq to e_(seq reordered by perm).

    One scatter of relabellings([perm], d).
    """
    rows = relabellings([perm], d)[0]
    p = np.zeros((len(rows), len(rows)))
    p[rows, np.arange(len(rows))] = 1.0
    return p


def symmetrizer(s: int, d: int) -> np.ndarray:
    """Orthogonal projector onto the permutation-symmetric subspace.

    Equals the average of all s! tensor-factor permutation matrices;
    built here from the orbit structure (entries 1/orbit_size within an
    orbit block), which is the same matrix without the factorial sum.
    """
    _check_dense(s, d)
    k, orbits = _sequence_orbits(s, d)
    return np.where(k[:, None] == k[None, :], 1.0 / orbits[:, None], 0.0)


def occupation_diagonal(obs: DiagonalObservable) -> np.ndarray:
    """Diagonal of the compressed observable, in occupation-basis order.

    Compressing an orbit-constant diagonal observable V^H diag(obs) V
    gives a diagonal matrix whose (n, n) entry is the observable's shared
    value on orbit n.
    """
    return scatter_by_rank(obs.values, obs.s, obs.d)


def compress(obs: DiagonalObservable) -> np.ndarray:
    """Compressed observable as a dense matrix on the occupation basis."""
    return np.diag(occupation_diagonal(obs).astype(complex))


def compress_hermitian(g_matrix: np.ndarray, s: int, d: int) -> np.ndarray:
    """V^H G V for a dense Hermitian G on the d**s tensor space."""
    g_matrix = require_hermitian(g_matrix)
    dim = _check_dense(s, d)
    if g_matrix.shape[0] != dim:
        raise DomainError(f"matrix dimension {g_matrix.shape[0]} != d**s = {dim}")
    v = OccupationBasis(d, s).dense_isometry()
    return v.T @ g_matrix @ v


@lru_cache(maxsize=None)
def _falling_factorials(k: int, s: int) -> np.ndarray:
    """table[j, x] = x (x-1) ... (x-j+1), the falling factorial, for j <= k and x <= s.

    The entries are exact integers while they stay below 2**53.  Where
    s (s-1) ... (s-k+1) would pass the float range, every factor is divided
    by s, which scales each product of k factors by the same s**-k.
    Read-only.
    """
    x = np.arange(s + 1, dtype=float)
    scale = 1.0 if math.lgamma(s + 1) - math.lgamma(s - k + 1) < 700.0 else float(s)
    table = np.ones((k + 1, s + 1))
    for j in range(1, k + 1):
        table[j] = table[j - 1] * (np.maximum(x - (j - 1), 0.0) / scale)
    table.setflags(write=False)
    return table


def boson_block(block: PolynomialBlock, lengths) -> list[tuple[np.ndarray, np.ndarray]]:
    """Minimum of Tr(D rho) over boson-symmetric density matrices, for each column and length.

    The compressed operator of the lifted observable is diagonal on the
    occupation basis, so its minimum eigenvalue is the smallest diagonal
    entry and the optimal rho is the rank-one projector onto the matching
    occupation state.  The diagonal comes from second quantization, not
    from the lift: the normal-ordered term a^dagger^m a^m has
    <n| a^dagger^m a^m |n> = prod_i n_i (n_i - 1) ... (n_i - m_i + 1), so
    at the Fock state |n> the observable reads
    sum_m c_m prod_i n_i^(m_i falling) / s^(k falling), Diaconis and
    Freedman's (1980) formula for sampling k of the s balls without
    replacement.  It is the urn oracle's vector computed another way.  The
    falling-factorial product of each term is formed once and multiplies
    that term's row of coefficients, the terms summed in composition
    order, so each column reads bitwise what it reads alone.
    The lengths are checked first (check_lengths), then each is solved in
    turn from its own cached tables, so a call holds one length's diagonal
    at a time.  Returns one (values, rows) pair per length, in the order
    given: each column's minimum and its occupation state's row in
    compositions(s, d); the first minimum wins ties.  The first length
    whose minimum overflows raises.
    """
    lengths = block.check_lengths(lengths)
    columns = np.arange(block.size)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for s in lengths:
            counts, table = composition_array(s, block.d), _falling_factorials(block.degree, s)
            diagonal = np.zeros((len(counts), block.size))
            for m, c in zip(block.terms, block.coefficients):
                product = None  # prod_i table[m_i, n_i] over the term's nonzero exponents
                for i, e in enumerate(m):
                    if e:
                        factor = table[e][counts[:, i]]
                        product = factor if product is None else product * factor
                diagonal += c if product is None else product[:, None] * c
            diagonal /= table[block.degree, s]  # s^(k falling)
            rows = np.argmin(diagonal, axis=0)  # first minimum wins: deterministic tie-break
            values = diagonal[rows, columns]
            if not np.isfinite(values).all():  # argmin stops at a NaN, so this sees any but +inf
                raise DomainError(
                    f"the boson diagonal at length s={s} overflows: "
                    "an expectation exceeds the float range"
                )
            out.append((values, rows))
    return out


def quantum_bound(g: SimplexPolynomial, s: int) -> BoundResult:
    """boson_block for g alone at one length; the certificate is the ground eigenvector.

    That eigenvector is the occupation basis vector of the minimizing
    count vector, which is also the argmin.
    """
    [(values, rows)] = boson_block(PolynomialBlock.of([g]), (s,))
    k = int(rows[0])
    eigenvector = np.zeros(num_compositions(s, g.d))
    eigenvector[k] = 1.0
    return BoundResult(
        value=float(values[0]),
        method="boson",
        argmin=tuple(composition_array(s, g.d)[k].tolist()),
        certificate=eigenvector,
        diagnostics={"occupation_dimension": len(eigenvector), "s": s},
    )


def rho_from_exchangeable(dist: ExchangeableDistribution) -> BosonDensityMatrix:
    """Boson state reproducing an exchangeable distribution.

    Mixture of occupation projectors weighted by the orbit probabilities;
    the dense form has the per-sequence probabilities on its diagonal and
    is invariant under the symmetrizer.
    """
    basis = OccupationBasis(dist.d, dist.r)
    weights = scatter_by_rank(dist.orbit_probs, dist.r, dist.d)
    return BosonDensityMatrix(basis, np.diag(weights.astype(complex)))


def witness_value(observable, rho: BosonDensityMatrix) -> float:
    """Tr(G rho) for a diagonal observable or a dense Hermitian matrix.

    Negative output for an observable whose polynomial is non-negative on
    product states certifies that rho is no mixture of identical products
    (the finite-exchangeability / entanglement witness test).
    """
    if isinstance(observable, DiagonalObservable):
        if (observable.d, observable.s) != (rho.basis.d, rho.basis.s):
            raise DomainError(
                f"observable is d={observable.d}, s={observable.s}; state is "
                f"d={rho.basis.d}, s={rho.basis.s}"
            )
        compressed = compress(observable)
    else:
        compressed = compress_hermitian(
            np.asarray(observable), rho.basis.s, rho.basis.d
        )
    value = np.trace(compressed @ rho.matrix)
    return float(value.real)


def to_json(rho: BosonDensityMatrix) -> str:
    """Serialize a boson state: basis in rank order, entries as [re, im]."""
    matrix = [
        [[float(v.real), float(v.imag)] for v in row] for row in rho.matrix
    ]
    doc = {
        "d": int(rho.basis.d),
        "s": int(rho.basis.s),
        "basis": [list(n) for n in rho.basis.elements],
        "matrix": matrix,
    }
    return json.dumps(doc)


def _matrix_entry(entry) -> complex:
    if not isinstance(entry, list) or len(entry) != 2:
        raise DomainError(f"matrix entry {entry!r} must be a pair [re, im] of numbers")
    parts = zip(entry, ("re", "im"))
    return complex(*(json_number(v, f"matrix entry {entry!r}: {part}") for v, part in parts))


def from_json(text: str | bytes) -> BosonDensityMatrix:
    """Parse the JSON density-matrix format; validates PSD and unit trace."""
    doc = json_document(text, "density-matrix", ("d", "s", "matrix"))
    d = require_int(doc["d"], "d", 1)
    s = require_int(doc["s"], "s", 0)
    raw = doc["matrix"]
    if not isinstance(raw, list) or any(
        not isinstance(row, list) or len(row) != len(raw) for row in raw
    ):
        raise DomainError("matrix must be a square list of rows")
    # there are at least s+d-1 count vectors unless s == 0 or d == 1; testing
    # that first refuses a huge d or s without computing a huge binomial
    if (min(s, d - 1) > 0 and s + d - 1 > len(raw)) or num_compositions(s, d) != len(raw):
        raise DomainError(
            f"a {len(raw)}x{len(raw)} matrix does not fit d={d}, s={s}: "
            "it needs one row per count vector of degree s"
        )
    basis = OccupationBasis(d, s)
    # a plain comparison: a listing that is not a list of lists differs too
    if "basis" in doc and doc["basis"] != [list(n) for n in basis.elements]:
        raise DomainError("basis listing does not match the occupation rank order")
    matrix = np.array([[_matrix_entry(entry) for entry in row] for row in raw])
    return BosonDensityMatrix(basis, matrix)


def _project_to_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(x)[::-1]
    cumulative = np.cumsum(u) - 1.0
    indices = np.arange(1, len(x) + 1)
    positive = u - cumulative / indices > 0
    k = indices[positive][-1]
    tau = cumulative[k - 1] / k
    return np.maximum(x - tau, 0.0)


def _grid_resolution(d: int) -> int:
    """The largest r >= 1 with num_compositions(r, d) <= 1e5 points, or 1 if none.

    The count grows with r, so a bisection finds it.
    """
    if d == 1:  # the simplex is one point, and every resolution lists it once
        return 1
    low, high = 1, 100_000  # high does not fit: num_compositions(r, d) >= r + 1
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if num_compositions(middle, d) <= 100_000 else (low, middle)
    return low


def _grid_argmin(g: SimplexPolynomial) -> np.ndarray:
    """The first minimizing point, in composition order, of the densest grid under 1e5 points."""
    resolution = _grid_resolution(g.d)
    points = composition_array(resolution, g.d) / resolution
    values = np.zeros(len(points))
    for n, c in g.terms.items():
        term = np.full(len(points), c)
        for i, e in enumerate(n):
            if e:
                term *= points[:, i] ** e
        values += term
    return points[values.argmin()]


def simplex_minimum(g: SimplexPolynomial) -> float:
    """Minimum of g over the probability simplex (the iid-mixture limit).

    Projected gradient descent with backtracking, from the best point of a
    deterministic grid of roughly 1e5 simplex points.  A step is taken only
    if it strictly lowers the value, so the result never lies above the
    grid's.  The descent runs on g times 2**-e, which brings the largest
    |coefficient| into [1/2, 1); the scaling is exact, so the fixed step
    floor means the same at every scale, and the value is scaled back.
    """
    e = math.frexp(max(map(abs, g.terms.values()), default=0.0))[1]
    terms = {n: math.ldexp(c, -e) for n, c in g.terms.items()}
    g = SimplexPolynomial._checked(g.d, g.degree, terms, np.ldexp(g.coefficient_vector, -e))
    x = _grid_argmin(g)
    value = evaluate(g, x)
    step = 1.0
    for _ in range(500):
        grad = np.array(gradient(g, x))
        while step > 1e-14:
            candidate = _project_to_simplex(x - step * grad)
            candidate_value = evaluate(g, candidate)
            if candidate_value < value:
                x, value = candidate, candidate_value
                step *= 1.5
                break
            step *= 0.5
        else:
            break
    return math.ldexp(value, e)
