"""Count vectors, orbits, and sequence/count conversions.

A count vector records how many of the r draws landed on each of the d
outcomes; a sequence records the ordered draws themselves.  Both are plain
tuples of non-negative ints:

  CountVector = (n_1, ..., n_d)   with sum = r   (the "degree")
  Sequence    = (t_1, ..., t_r)   with each t_i in [0, d)

Every enumeration in the package uses one fixed total order on count
vectors of a given degree: lexicographic, descending (so the first
coordinate decreases first).  For r=2, d=2 that is (2,0), (1,1), (0,2).
This module owns that order: other modules locate count vectors in it
with ranks and read per-vector arrays (composition_array, orbit_sizes).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

CountVector = tuple[int, ...]
Sequence = tuple[int, ...]


def is_integer(value) -> bool:
    """Whether value is a Python int or a numpy integer; bool, an int subclass, is not."""
    return type(value) is int or isinstance(value, np.integer)


def validate_counts(n: CountVector) -> None:
    """Raise DomainError unless n is a valid count vector."""
    if len(n) < 1:
        raise DomainError("count vector needs at least one outcome")
    # one pass: is_integer is called only on an entry that is not a plain int
    if any((type(v) is not int and not is_integer(v)) or v < 0 for v in n):
        raise DomainError(f"count vector entries must be non-negative integers: {n}")


def require_int(value, name: str, minimum: int) -> int:
    """Return value if it is an integer (is_integer) >= minimum, else raise DomainError."""
    if not is_integer(value) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def num_compositions(r: int, d: int) -> int:
    """Number of count vectors of degree r over d outcomes: C(r+d-1, d-1)."""
    require_int(d, "d", 1)
    require_int(r, "degree", 0)
    return math.comb(r + d - 1, d - 1)


@lru_cache(maxsize=None)
def _compositions(r: int, d: int) -> tuple[CountVector, ...]:
    if d == 1:
        return ((r,),)
    out = []
    for v in range(r, -1, -1):
        for tail in _compositions(r - v, d - 1):
            out.append((v,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def _composition_array(r: int, d: int) -> np.ndarray:
    out = np.array(_compositions(r, d), dtype=np.int64).reshape(-1, d)
    out.setflags(write=False)
    return out


def composition_array(r: int, d: int) -> np.ndarray:
    """compositions(r, d) as a read-only int64 array, one row per count vector; cached."""
    num_compositions(r, d)  # validates r and d before the cache, which takes True for 1
    return _composition_array(r, d)


def compositions(r: int, d: int) -> list[CountVector]:
    """All count vectors of degree r over d outcomes, lex-descending.

    The list has num_compositions(r, d) elements, no duplicates, and is
    strictly decreasing under tuple comparison.
    """
    num_compositions(r, d)  # validates r and d
    return list(_compositions(r, d))


def orbit_size(n: CountVector) -> int:
    """Number of distinct sequences with counts n: r! / (n_1! ... n_d!).

    Exact for all inputs (Python integers do not overflow).
    """
    validate_counts(n)
    size = math.factorial(sum(n))
    for v in n:
        size //= math.factorial(v)
    return size


@lru_cache(maxsize=None)
def orbit_sizes(r: int, d: int) -> np.ndarray:
    """orbit_size of each count vector in compositions(r, d), correctly rounded to float64.

    That is the rounding a float divided by orbit_size(n) applies.  Read-only.
    """
    factorials = np.array([math.factorial(k) for k in range(r + 1)], dtype=object)
    exact = factorials[r] // np.prod(factorials[composition_array(r, d)], axis=1)
    out = exact.astype(np.float64)
    out.setflags(write=False)
    return out


def sequence_to_counts(seq: Sequence, d: int) -> CountVector:
    """Count the occurrences of each outcome in an ordered sequence."""
    require_int(d, "d", 1)
    counts = [0] * d
    for t in seq:
        if not is_integer(t) or not 0 <= t < d:
            raise DomainError(f"outcome {t!r} is not an integer in [0, {d})")
        counts[t] += 1
    return tuple(counts)


_CACHED_BINOMIALS = 1 << 17  # int64 entries (1 MB): larger tables are built per call


@lru_cache(maxsize=None)
def _binomials(r: int, d: int) -> np.ndarray:
    """table[a, b] = C(a, b) for b < d and a - b < r, the entries ranks reads.

    Each is at most C(r + d - 2, r - 1) <= num_compositions(r, d), so the
    table fits int64 whenever the compositions of degree r can be listed;
    that covers every length the oracle and boson routes enumerate and
    every cone LP that fits in memory.  The entries ranks never reads are
    0.  Read-only.
    """
    a = np.arange(r + d - 1)
    table = np.zeros((r + d - 1, d), dtype=np.int64)
    table[:, 0] = a < r
    for b in range(1, d):
        # C(a, b) = C(0, b-1) + ... + C(a-1, b-1), and every addend is itself read
        table[1:, b] = np.cumsum(table[:-1, b - 1])
        table[a - b >= r, b] = 0
    table.setflags(write=False)
    return table


def ranks(counts: np.ndarray, r: int) -> np.ndarray:
    """Position of each row of counts (degree-r count vectors) in compositions(r, d).

    Lex-descending order puts before n every vector sharing n's first i
    entries and exceeding n_i at entry i; with R left to place over the
    remaining slots once n_i is placed, there are C(R - 1 + slots, slots)
    of them.  The rows are not validated.
    """
    d = counts.shape[1]
    if (r + d - 1) * d <= _CACHED_BINOMIALS:
        table = _binomials(r, d)
    else:
        table = _binomials.__wrapped__(r, d)
    out = np.zeros(len(counts), dtype=np.int64)
    top = r + d - 1  # R - 1 + slots before any entry is placed
    for i in range(d - 1):
        # placing n_i takes n_i from R and one slot; C(top, slots) is 0 when
        # top < slots, that is when nothing exceeds n_i
        top = top - counts[:, i] - 1
        out += table[:, d - 1 - i][top]
    return out


def scatter_by_rank(entries: dict[CountVector, float], r: int, d: int) -> np.ndarray:
    """A map of degree-r count vectors as a vector in compositions(r, d) order, 0 if absent."""
    out = np.zeros(num_compositions(r, d))
    keys = np.array(list(entries), dtype=np.int64).reshape(-1, d)
    out[ranks(keys, r)] = list(entries.values())
    return out


def rank(n: CountVector) -> int:
    """Position of n within compositions(sum(n), len(n))."""
    validate_counts(n)
    return int(ranks(np.array([n], dtype=np.int64), sum(n))[0])


def unrank(k: int, r: int, d: int) -> CountVector:
    """Inverse of rank: the k-th count vector of degree r over d outcomes."""
    if require_int(k, "rank", 0) >= num_compositions(r, d):
        raise DomainError(f"rank {k} out of range for degree {r}, d={d}")
    out = []
    remaining = r
    for i in range(d - 1):
        slots = d - i - 1
        for v in range(remaining, -1, -1):
            block = num_compositions(remaining - v, slots)
            if k < block:
                out.append(v)
                remaining -= v
                break
            k -= block
    out.append(remaining)
    return tuple(out)


def sequences(r: int, d: int) -> list[Sequence]:
    """All d**r ordered sequences of length r, in row-major order."""
    if d < 1:
        raise DomainError("d must be >= 1")
    out: list[Sequence] = [()]
    for _ in range(r):
        out = [seq + (t,) for seq in out for t in range(d)]
    return out


def orbit_sequences(n: CountVector) -> list[Sequence]:
    """All distinct orderings of the multiset described by n."""
    validate_counts(n)
    d = len(n)
    out: list[Sequence] = []

    def extend(prefix: tuple[int, ...], left: list[int]) -> None:
        if sum(left) == 0:
            out.append(prefix)
            return
        for t in range(d):
            if left[t] > 0:
                left[t] -= 1
                extend(prefix + (t,), left)
                left[t] += 1

    extend((), list(n))
    return out
