"""The quantum route: symmetric subspace, occupation compression, eigenbounds.

A length-s exchangeable experiment over d outcomes maps onto s
indistinguishable d-level bosons.  The permutation-symmetric subspace of
the d**s tensor space has one orthonormal basis vector per count vector
(the occupation basis); compressing an orbit-constant diagonal observable
onto it gives a diagonal operator whose smallest eigenvalue is exactly
the worst-case expectation over all boson-symmetric density matrices,
which by the classical/quantum equivalence is the same worst case the urn
oracle and the cone LP compute.

Dense tensor-space objects (symmetrizer, permutation matrices, dense
density matrices) are capped at d**s <= 4096; they exist to let tests
verify the compressed path against literal matrix algebra.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CapacityError, DomainError, SolverFailure
from .exchangeable import BoundResult, ExchangeableDistribution, urn_values
from .multiindex import (
    CountVector,
    compositions,
    num_compositions,
    orbit_sizes,
    rank,
    ranks,
    require_int,
    scatter_by_rank,
    unrank,
)
from .polynomial import (
    DiagonalObservable,
    SimplexPolynomial,
    evaluate,
    gradient,
    homogenize,
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
        return rank(tuple(n))

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


def quantum_bound(
    g: SimplexPolynomial, s: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> BoundResult:
    """Minimum of Tr(D rho) over boson-symmetric density matrices.

    The compressed operator of the lifted observable is diagonal on the
    occupation basis, so its minimum eigenvalue is the smallest diagonal
    entry and the optimal rho is the rank-one projector onto the matching
    occupation state; that basis vector is returned as the certificate.
    The diagonal is the urn oracle's vector (urn_values), so this route
    and the oracle agree by construction.
    """
    if s < g.degree:
        raise DomainError(f"sequence length {s} < polynomial degree {g.degree}")
    diagonal = urn_values(homogenize(g, s))
    k = int(np.argmin(diagonal))  # first minimum wins: deterministic tie-break
    eigenvector = np.zeros(len(diagonal))
    eigenvector[k] = 1.0
    return BoundResult(
        value=float(diagonal[k]),
        method="boson",
        argmin=unrank(k, s, g.d),
        certificate=eigenvector,
        diagnostics={"occupation_dimension": len(diagonal), "s": s},
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
    while num_compositions(resolution + 1, g.d) <= target_points:
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
