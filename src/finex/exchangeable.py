"""Finitely exchangeable distributions and the exact urn-model oracle.

An exchangeable joint distribution over r draws assigns equal probability
to every ordering of the same outcome multiset, so it is stored as one
probability per orbit (per count vector).  The extreme points of that
polytope are the urn distributions: fix an urn composition n with sum(n)=s
balls, draw all s without replacement, and every ordering of n is equally
likely.  Minimizing a linear expectation over the polytope therefore
reduces to an exact enumeration over urn compositions, which is the
oracle every other bound method in this package is checked against.
oracle_block evaluates it for a block of observables, one column each,
at each of a sequence of lengths; oracle_bound is that for a single
observable, a block of one, at one length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DomainError, ExchangeabilityError, NormalizationError
from .multiindex import (
    CountVector,
    Sequence,
    composition_array,
    compositions,
    count_vector,
    iter_orbit_sequences,
    json_counts,
    json_document,
    num_compositions,
    orbit_size,
    orbit_sizes,
    require_int,
    scatter_by_rank,
    sequence_to_counts,
    validate_counts,
)
from .polynomial import (
    PolynomialBlock,
    SimplexPolynomial,
    _lift,
    homogenize,  # noqa: F401  kept under this name: perfbench/tracer.py wraps it here
)


@dataclass(frozen=True)
class ExchangeableDistribution:
    """Joint distribution over r exchangeable draws, stored by orbit.

    orbit_probs[n] is the total probability of all orderings with counts n;
    each individual sequence in the orbit carries orbit_probs[n]/orbit_size(n).
    Construction validates against the fixed DEFAULT_TOLERANCES (negativity
    and normalization).
    """

    d: int
    r: int
    orbit_probs: dict[CountVector, float] = field(default_factory=dict)

    def __post_init__(self):
        tol = DEFAULT_TOLERANCES
        cleaned = {}
        total = 0.0
        for n, p in self.orbit_probs.items():
            n = count_vector(n, self.r, self.d, "orbit")
            p = float(p)
            if not math.isfinite(p):
                raise DomainError(f"orbit probability {p} at {n} is not finite")
            if p < -tol.negativity:
                raise DomainError(f"negative orbit probability {p} at {n}")
            total += p
            if p > 0.0:
                cleaned[n] = p
        if abs(total - 1.0) > tol.normalization:
            raise NormalizationError(
                f"orbit probabilities sum to {total}, expected 1 within {tol.normalization}"
            )
        object.__setattr__(self, "orbit_probs", cleaned)

    def orbit_probability(self, n: CountVector) -> float:
        return self.orbit_probs.get(count_vector(n, self.r, self.d, "orbit"), 0.0)

    def sequence_probability(self, seq: Sequence) -> float:
        if len(seq) != self.r:
            raise DomainError(f"sequence {tuple(seq)} has length {len(seq)}, expected {self.r}")
        n = sequence_to_counts(seq, self.d)
        return self.orbit_probability(n) / orbit_size(n)


@dataclass(frozen=True)
class BoundResult:
    """A computed worst-case bound with its certificate.

    method is one of "oracle", "lp", "boson".  argmin holds the minimizing
    urn composition when the method produces one; certificate holds the
    method-specific optimality payload (LP basis and multipliers, or the
    occupation-basis ground eigenvector).
    """

    value: float
    method: str
    argmin: CountVector | None = None
    certificate: object = None
    diagnostics: dict = field(default_factory=dict)


def from_sequence_probs(
    probs: dict[Sequence, float], d: int, r: int
) -> ExchangeableDistribution:
    """Build a distribution from per-sequence probabilities.

    Verifies permutation symmetry: all sequences in one orbit must carry
    equal probability within DEFAULT_TOLERANCES.symmetry_check.
    Sequences absent from the map count as probability zero.  The
    normalization is the constructor's check, on the orbit sums.
    """
    tol = DEFAULT_TOLERANCES
    by_orbit: dict[CountVector, dict[Sequence, float]] = {}
    for seq, p in probs.items():
        seq = tuple(seq)
        if len(seq) != r:
            raise DomainError(f"sequence {seq} has length {len(seq)}, expected {r}")
        p = float(p)
        if p < -tol.negativity:
            raise DomainError(f"negative probability {p} for sequence {seq}")
        n = sequence_to_counts(seq, d)
        by_orbit.setdefault(n, {})[seq] = p

    orbit_probs: dict[CountVector, float] = {}
    for n, values in by_orbit.items():
        if len(values) < orbit_size(n):
            # sequences never mentioned carry probability zero, so the first
            # of them in lexicographic order stands for them all
            values[next(seq for seq in iter_orbit_sequences(n) if seq not in values)] = 0.0
        lo_seq = min(values, key=lambda s: values[s])
        hi_seq = max(values, key=lambda s: values[s])
        if values[hi_seq] - values[lo_seq] > tol.symmetry_check:
            raise ExchangeabilityError(
                f"not exchangeable: P{hi_seq} = {values[hi_seq]} but "
                f"P{lo_seq} = {values[lo_seq]} (same orbit {n})"
            )
        orbit_probs[n] = sum(values.values())
    return ExchangeableDistribution(d, r, orbit_probs)


def urn_distribution(n: CountVector) -> ExchangeableDistribution:
    """Extreme point: draw all balls from an urn with composition n.

    Every ordering of the multiset n is equally likely, so the whole orbit
    n carries probability one.
    """
    n = tuple(n)
    validate_counts(n)
    if sum(n) < 1:
        raise DomainError("urn must contain at least one ball")
    return ExchangeableDistribution(len(n), sum(n), {n: 1.0})


def marginalize(dist: ExchangeableDistribution, r: int) -> ExchangeableDistribution:
    """Marginal of the first r draws (multivariate hypergeometric mixing).

    The orbit m of the shorter sequence receives
    sum_n P(n) * prod_i C(n_i, m_i) / C(s, r).
    """
    s = dist.r
    if require_int(r, "marginal length", 0) > s:
        raise DomainError(
            f"marginal length {r} exceeds sequence length {s}; "
            "marginalization only shortens"
        )
    if r == s:
        return dist
    out: dict[CountVector, float] = {}
    denom = math.comb(s, r)
    for n, p in dist.orbit_probs.items():
        for m in compositions(r, dist.d):
            ways = 1
            for ni, mi in zip(n, m):
                if mi > ni:
                    ways = 0
                    break
                ways *= math.comb(ni, mi)
            if ways:
                out[m] = out.get(m, 0.0) + p * ways / denom
    return ExchangeableDistribution(dist.d, r, out)


def expectation(dist: ExchangeableDistribution, g: SimplexPolynomial) -> float:
    """E[g] = sum over orbits n of g's urn value at n (urn_values) * P(orbit n).

    The polynomial degree must equal the sequence length; lift the
    polynomial with homogenize first if it is shorter.
    """
    if g.d != dist.d:
        raise DomainError(f"polynomial has d={g.d}, distribution has d={dist.d}")
    if g.degree != dist.r:
        raise DomainError(
            f"polynomial degree {g.degree} != sequence length {dist.r}; "
            "homogenize the polynomial first"
        )
    values = urn_values(PolynomialBlock.of([g]), g.degree)[:, 0]
    return float(values @ scatter_by_rank(dist.orbit_probs, dist.r, dist.d))


def urn_values(block: PolynomialBlock, s: int) -> np.ndarray:
    """Each column's expectation under each length-s urn: a row per urn, in compositions order.

    The urn with composition n makes each ordering of n equally likely, so
    it reads the coefficient of theta^n in the column lifted to degree s
    divided by orbit_size(n).  s is not checked against the block
    (oracle_block checks its lengths); one that is not a valid length
    still raises DomainError, from the tables.  The boson route computes
    the same values another way, by second quantization
    (boson.boson_block), so each checks the other.
    """
    # first: where the lift's multinomials overflow these do, and the error names the length
    sizes = orbit_sizes(s, block.d)
    return _lift(block, s) / sizes[:, None]


def oracle_block(block: PolynomialBlock, lengths) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact worst case of each column over all exchangeable distributions of each length.

    Linear objective + convex polytope: the minimum is attained at an urn
    extreme point, so at each length s the minimum of each column is the
    smallest of its urn_values.  Returns one (values, rows) pair per
    length, in the order given: each column's minimum and its row in
    compositions(s, d).  Ties break toward the earlier composition in the
    fixed enumeration order, making the certificate deterministic.  The
    lengths are checked first (check_lengths), then lifted to in turn;
    the first that fails raises.
    """
    out = []
    for s in block.check_lengths(lengths):
        values = urn_values(block, s)
        rows = np.argmin(values, axis=0)  # the first minimum: the earlier composition wins ties
        out.append((values[rows, np.arange(block.size)], rows))
    return out


def oracle_bound(g: SimplexPolynomial, s: int) -> BoundResult:
    """Exact worst case of g over length-s exchangeable distributions.

    oracle_block for g as a block of one at one length; argmin is the
    minimizing urn composition.
    """
    [(values, rows)] = oracle_block(PolynomialBlock.of([g]), (s,))
    return BoundResult(
        value=float(values[0]),
        method="oracle",
        argmin=tuple(composition_array(s, g.d)[rows[0]].tolist()),
        diagnostics={"compositions_evaluated": num_compositions(s, g.d), "s": s},
    )


def sample(
    dist: ExchangeableDistribution, count: int, seed: int
) -> list[Sequence]:
    """Draw i.i.d. sequences: pick an orbit, then a uniform ordering.

    Uses numpy's PCG64 generator, so a fixed seed gives the same stream on
    every platform.
    """
    require_int(count, "sample count", 0)
    rng = np.random.default_rng(seed)
    orbits = sorted(dist.orbit_probs)  # deterministic order
    probs = np.array([dist.orbit_probs[n] for n in orbits])
    probs = probs / probs.sum()
    picks = rng.choice(len(orbits), size=count, p=probs)
    out = []
    for k in picks:
        multiset = [t for t, c in enumerate(orbits[k]) for _ in range(c)]
        out.append(tuple(int(v) for v in rng.permutation(multiset)))
    return out


def to_json(dist: ExchangeableDistribution) -> str:
    orbits = [
        {"counts": [int(v) for v in n], "prob": p}
        for n, p in sorted(dist.orbit_probs.items(), reverse=True)
    ]
    return json.dumps({"d": int(dist.d), "r": int(dist.r), "orbits": orbits})


def from_json(text: str | bytes) -> ExchangeableDistribution:
    """Parse the JSON distribution format."""
    doc = json_document(text, "distribution", ("d", "r", "orbits"))
    d = require_int(doc["d"], "d", 1)
    r = require_int(doc["r"], "r", 0)
    return ExchangeableDistribution(d, r, json_counts(doc["orbits"], "orbit", "prob"))
