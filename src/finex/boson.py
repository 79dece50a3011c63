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

Dense tensor-space objects (symmetrizer, permutation matrices, dense
density matrices) are capped at d**s <= 4096; they exist to let tests
verify the compressed path against literal matrix algebra.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CapacityError, DomainError, SolverFailure
from .exchangeable import BoundResult, ExchangeableDistribution
from .multiindex import (
    CountVector,
    composition_array,
    compositions,
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

DENSE_CAP = 4096


def _check_dense(s: int, d: int) -> int:
    dim = d**s
    if dim > DENSE_CAP:
        raise CapacityError(
            f"dense tensor space d**s = {dim} exceeds the cap {DENSE_CAP}; "
            "use the occupation-basis path"
        )
    return dim


def _outcomes(s: int, d: int) -> np.ndarray:
    """outcomes[i, j] is draw i of sequences(s, d)[j], the row-major tensor basis."""
    return np.indices((d,) * s).reshape(s, d**s)


def _sequence_orbits(s: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and orbit size of each sequence's count vector, over sequences(s, d)."""
    _check_dense(s, d)
    k = ranks((_outcomes(s, d)[:, :, None] == np.arange(d)).sum(axis=0), s)
    return k, orbit_sizes(s, d)[k]


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
        n = tuple(n)
        if len(n) != self.d or sum(n) != self.s:
            raise DomainError(f"count vector {n} does not have degree {self.s} over d={self.d}")
        return rank(n)

    def dense_isometry(self) -> np.ndarray:
        """V with columns (1/sqrt(orbit)) * sum of the orbit's basis vectors."""
        k, orbits = _sequence_orbits(self.s, self.d)
        v = np.zeros((len(k), self.dimension))
        v[np.arange(len(k)), k] = 1.0 / np.sqrt(orbits)
        return v


@dataclass(frozen=True)
class BosonDensityMatrix:
    """Density matrix of s indistinguishable d-level bosons, compressed form.

    matrix lives on the occupation basis; the dense tensor-space state is
    V @ matrix @ V.conj().T.  PSD and unit trace are validated on
    construction; the symmetry constraint holds by construction because
    the occupation basis spans exactly the symmetric subspace.
    """

    basis: OccupationBasis
    matrix: np.ndarray

    def __post_init__(self):
        tol = DEFAULT_TOLERANCES
        m = require_hermitian(self.matrix, tol)
        if m.shape[0] != self.basis.dimension:
            raise DomainError(
                f"matrix dimension {m.shape[0]} != occupation dimension "
                f"{self.basis.dimension}"
            )
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > tol.normalization:
            raise DomainError(f"density matrix trace {trace} != 1")
        smallest = float(jacobi_eigen(m, tol).eigenvalues[0])
        if smallest < -tol.psd:
            raise DomainError(f"density matrix not PSD: min eigenvalue {smallest}")
        object.__setattr__(self, "matrix", m)

    def dense(self) -> np.ndarray:
        # equal to V @ matrix @ V^H, but written with one exact integer
        # orbit product per entry: same-orbit entries come out bit-exact
        # (probability/orbit_size) instead of picking up sqrt round-off
        idx, orb = _sequence_orbits(self.basis.s, self.basis.d)
        return self.matrix[np.ix_(idx, idx)] / np.sqrt(np.outer(orb, orb))


def permutation_matrix(perm, d: int) -> np.ndarray:
    """Tensor-factor relabelling: maps e_seq to e_(seq reordered by perm)."""
    perm = tuple(perm)
    s = len(perm)
    if sorted(perm) != list(range(s)):
        raise DomainError(f"{perm} is not a permutation of 0..{s - 1}")
    dim = _check_dense(s, d)
    # column j is sequence j; its reordering sits at its row-major index
    rows = d ** np.arange(s - 1, -1, -1) @ _outcomes(s, d)[list(perm)]
    p = np.zeros((dim, dim))
    p[rows, np.arange(dim)] = 1.0
    return p


def symmetrizer(s: int, d: int) -> np.ndarray:
    """Orthogonal projector onto the permutation-symmetric subspace.

    Equals the average of all s! tensor-factor permutation matrices;
    built here from the orbit structure (entries 1/orbit_size within an
    orbit block), which is the same matrix without the factorial sum.
    """
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


def boson_block(block: PolynomialBlock, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of Tr(D rho) over boson-symmetric density matrices, for each column.

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
    that term's row of coefficients, the terms summed in the block's order.
    Returns each column's minimum and its occupation state's row in
    compositions(s, d); the first minimum wins ties.
    """
    if s < block.degree:
        raise DomainError(f"sequence length {s} < polynomial degree {block.degree}")
    counts = composition_array(s, block.d)
    table = _falling_factorials(block.degree, s)
    diagonal = np.zeros((len(counts), block.size))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for m, c in zip(block.terms, block.coefficients):
            product = None  # prod_i table[m_i, n_i] over the term's nonzero exponents
            for i, e in enumerate(m):
                if e:
                    factor = table[e][counts[:, i]]
                    product = factor if product is None else product * factor
            diagonal += c if product is None else product[:, None] * c
        diagonal /= table[block.degree, s]
    rows = np.argmin(diagonal, axis=0)  # first minimum wins: deterministic tie-break
    values = diagonal[rows, np.arange(block.size)]
    if not np.isfinite(values).all():  # argmin stops at a NaN, so this sees any but +inf
        raise DomainError(
            f"the boson diagonal at length s={s} overflows: "
            "an expectation exceeds the float range"
        )
    return values, rows


def quantum_bound(g: SimplexPolynomial, s: int) -> BoundResult:
    """boson_block for g as a block of one; the certificate is the ground eigenvector.

    That eigenvector is the occupation basis vector of the minimizing
    count vector, which is also the argmin.
    """
    values, rows = boson_block(PolynomialBlock.of([g]), s)
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
        "d": rho.basis.d,
        "s": rho.basis.s,
        "basis": [list(n) for n in rho.basis.elements],
        "matrix": matrix,
    }
    return json.dumps(doc)


def _matrix_entry(entry) -> complex:
    # type(), not isinstance: JSON true and false arrive as bool, an int subclass
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or any(type(part) not in (int, float) for part in entry)
    ):
        raise DomainError(f"matrix entry {entry!r} must be a pair [re, im] of numbers")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError as exc:
        raise DomainError(f"matrix entry {entry!r} exceeds the float range") from exc


def from_json(text: str) -> BosonDensityMatrix:
    """Parse the JSON density-matrix format; validates PSD and unit trace."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    for key in ("d", "s", "matrix"):
        if not isinstance(doc, dict) or key not in doc:
            raise DomainError('density-matrix JSON must carry "d", "s", "matrix"')
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


def _descent_starts(d: int, total: int = 64) -> np.ndarray:
    """Corners, edge midpoints, barycenter, then seeded random fill."""
    starts = [np.eye(d)[i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            mid = np.zeros(d)
            mid[i] = mid[j] = 0.5
            starts.append(mid)
    starts.append(np.full(d, 1.0 / d))
    rng = np.random.default_rng(0)  # fixed stream: the routine is deterministic
    while len(starts) < total:
        starts.append(rng.dirichlet(np.ones(d)))
    return np.array(starts[:total])


def _grid_minimum(g: SimplexPolynomial, target_points: int = 100_000) -> float:
    """Minimum over the densest rational grid with at most ~target points."""
    resolution = 1
    # at d = 1 the simplex is one point, and every resolution lists it once
    while g.d > 1 and num_compositions(resolution + 1, g.d) <= target_points:
        resolution += 1
    points = np.array(compositions(resolution, g.d), dtype=float) / resolution
    values = np.zeros(len(points))
    for n, c in g.terms.items():
        term = np.full(len(points), c)
        for i, e in enumerate(n):
            if e:
                term *= points[:, i] ** e
        values += term
    return float(values.min())


def simplex_minimum(
    g: SimplexPolynomial, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Minimum of g over the probability simplex (the iid-mixture limit).

    Multistart projected gradient descent with backtracking, verified
    against a deterministic grid scan of roughly 1e5 simplex points: the
    descent result must not exceed the grid minimum by more than the grid
    slack, otherwise the routine failed and says so.
    """
    best = np.inf
    for start in _descent_starts(g.d):
        x = start.copy()
        step = 1.0
        value = evaluate(g, x)
        for _ in range(500):
            grad = np.array(gradient(g, x))
            moved = False
            while step > 1e-14:
                candidate = _project_to_simplex(x - step * grad)
                candidate_value = evaluate(g, candidate)
                if candidate_value < value - 1e-15:
                    x, value = candidate, candidate_value
                    moved = True
                    step *= 1.5
                    break
                step *= 0.5
            if not moved:
                break
        best = min(best, value)

    grid = _grid_minimum(g)
    if best > grid + tolerances.grid_slack:
        raise SolverFailure(
            "descent missed the grid minimum",
            {"descent": best, "grid": grid, "slack": tolerances.grid_slack},
        )
    return float(best)
