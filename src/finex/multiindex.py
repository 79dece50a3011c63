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

The arrays are the primary tables: composition_array is built by numpy
block concatenation and cached read-only, and orbit_sizes is computed
from it.  The tuple lists of compositions derive from the array, so only
a caller that reads tuples pays for them.

The input rules live here too, each written once: the integer rule
(require_int, validate_counts), a count vector's shape (count_vector) and
the parts the three JSON formats share (json_document, json_number, json_counts).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError

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


def count_vector(n, r: int, d: int, label: str) -> CountVector:
    """n as a tuple if it is a count vector of degree r over d, else DomainError naming label."""
    n = tuple(n)
    validate_counts(n)
    if len(n) != d or sum(n) != r:
        raise DomainError(f"{label} {n} does not have degree {r} over d={d}")
    return n


def json_document(text: str | bytes, what: str, keys: tuple[str, ...]) -> dict:
    """The JSON object in text, which must carry every one of keys.

    Every refusal of json.loads is a DomainError "invalid JSON: ...": malformed
    text, bytes that are not UTF-8 (or UTF-16 or UTF-32), an integer literal
    past Python's digit limit, nesting past the recursion limit.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise DomainError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        listed = ", ".join(f'"{key}"' for key in keys)
        raise DomainError(f"{what} JSON must be an object with the keys {listed}")
    return doc


def json_number(value, what: str) -> float:
    """value as a float if it is a JSON number within the float range, else DomainError."""
    # type(), not isinstance: JSON true and false arrive as bool, an int subclass
    if type(value) not in (int, float):
        raise DomainError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise DomainError(f"{what} exceeds the float range") from exc


def json_counts(items, label: str, key: str) -> dict[CountVector, float]:
    """The list [{"counts": [...], key: number}, ...] under label + "s" as a map; repeats add up.

    Only the counts' type and sign are checked here: their shape is the record's to check.
    """
    if not isinstance(items, list):
        raise DomainError(f"{label}s must be a list, got {items!r}")
    out: dict[CountVector, float] = {}
    for item in items:
        if not isinstance(item, dict) or "counts" not in item or key not in item:
            raise DomainError(f'{label} {item!r} must be {{"counts": [...], "{key}": ...}}')
        counts = item["counts"]
        if not isinstance(counts, list) or any(type(v) is not int or v < 0 for v in counts):
            raise DomainError(f"{label} {item!r}: counts must be a list of non-negative integers")
        n = tuple(counts)
        out[n] = out.get(n, 0.0) + json_number(item[key], f"{label} {item!r}: {key}")
    return out


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
def _composition_array(r: int, d: int) -> np.ndarray:
    """The rows with leading entry v = r, ..., 0, each block over the cached (r - v, d - 1) rows."""
    if d == 1:
        out = np.full((1, 1), r, dtype=np.int64)
    elif d == 2:  # (r, 0), ..., (0, r) directly: no r + 1 cached one-row tails
        out = np.empty((r + 1, 2), dtype=np.int64)
        out[:, 1] = np.arange(r + 1)
        out[:, 0] = out[::-1, 1]
    else:
        tails = [_composition_array(r - v, d - 1) for v in range(r, -1, -1)]
        lengths = [len(tail) for tail in tails]
        out = np.empty((sum(lengths), d), dtype=np.int64)
        out[:, 0] = np.repeat(np.arange(r, -1, -1), lengths)
        np.concatenate(tails, out=out[:, 1:])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _compositions(r: int, d: int) -> tuple[CountVector, ...]:
    return tuple(map(tuple, _composition_array(r, d).tolist()))


# the largest byte count numpy allocates as one array
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


def table_rows(r: int, d: int) -> int:
    """num_compositions(r, d), N; CapacityError where a table of degree r passes numpy's limit.

    Every array with a row per count vector is sized by it before any
    allocation; composition_array's int64 table, d entries a row, is the
    largest of them.  The tables with a row per degree 0..r, of which
    orbit_sizes' binomials (_INT64_BINOMIAL_COLUMNS int64 entries a row)
    are the largest, are refused here too: at d <= 2 they outgrow the
    count vectors' table, and their bound refuses every r past int64,
    which holds every count.
    """
    n = num_compositions(r, d)
    if n * d * 8 > _MAX_ARRAY_BYTES:
        raise CapacityError(
            f"the count vectors of degree {r} over d={d} number N = {n}, "
            "past the largest array numpy can hold"
        )
    if (r + 1) * _INT64_BINOMIAL_COLUMNS * 8 > _MAX_ARRAY_BYTES:
        raise CapacityError(
            f"the tables with a row per degree 0..{r} pass the largest array numpy can hold"
        )
    return n


def composition_array(r: int, d: int) -> np.ndarray:
    """compositions(r, d) as a read-only int64 array, one row per count vector; cached.

    r and d are validated before the cache, which takes True for 1, and the
    table's size by table_rows.  Its build recurses one level per outcome,
    so from about 330 outcomes it outruns Python's recursion limit, which
    is refused as a CapacityError naming d.  Memory runs out first: the
    build caches every (r', d') tail it reads, about d**4 bytes at r = 2
    (measured +42 MB of RSS at d = 80 and +208 MB at d = 120), so about
    12 GB by d = 330.
    """
    table_rows(r, d)
    try:
        return _composition_array(r, d)
    except RecursionError as exc:
        raise CapacityError(
            f"the composition tables over d={d} outcomes nest past Python's recursion limit"
        ) from exc


def compositions(r: int, d: int) -> list[CountVector]:
    """All count vectors of degree r over d outcomes, lex-descending.

    The list has num_compositions(r, d) elements, no duplicates, and is
    strictly decreasing under tuple comparison.  It is a fresh list of
    the cached tuples read from composition_array(r, d), which checks r,
    d and the size first.
    """
    composition_array(r, d)
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


# a multinomial whose log is below this (give or take float rounding) is below 2^63
_INT64_LOG_LIMIT = 62 * math.log(2)
# C(a, m) with min(m, a - m) >= 34 is at least C(68, 34) > 2^63
_INT64_BINOMIAL_COLUMNS = 34
# a multinomial whose log is above this is past the float range
_FLOAT_LOG_LIMIT = math.log(np.finfo(np.float64).max)


@lru_cache(maxsize=None)
def orbit_sizes(r: int, d: int) -> np.ndarray:
    """orbit_size of each count vector in compositions(r, d), correctly rounded to float64.

    That is the rounding a float divided by orbit_size(n) applies.  Read-only.
    The multinomial of n is the product of the binomials
    C(n_1 + ... + n_i, n_i), each no larger than it, so one below 2^63 is
    exact in int64, as are its binomials (built by Pascal's rule from
    smaller ones), and is rounded once.  The rows whose log-multinomial
    says they may not be below 2^63 are computed with Python integers.
    A multinomial past the float range raises DomainError.
    """
    counts = composition_array(r, d)
    # C(a, m) is read at m <= a / 2 <= r / 2, and at d = 1 not at all
    columns = min(_INT64_BINOMIAL_COLUMNS, r // 2 + 1) if d > 1 else 1
    binomials = np.zeros((columns, r + 1), dtype=np.int64)  # C(a, m) at [m, a], m < columns
    binomials[0] = 1
    for m in range(1, columns):
        # C(a, m) = C(0, m-1) + ... + C(a-1, m-1); an entry past 2^63 wraps, as
        # its addends do, and only the rows recomputed below read it
        np.cumsum(binomials[m - 1, :-1], out=binomials[m, 1:])
    # log k! as one running sum of logs.  The screen's 62 bits leave a factor-2
    # margin (log 2) below 2^63, and the sum's rounding is at most
    # r^2 log(r) 2^-53: 0.18 at r = 10^7, whose binomials take 2.7 GB, and
    # measured 4.5e-5 at r = 2 * 10^7; so every row past 2^63 takes the exact path
    log_factorials = np.zeros(r + 1)
    np.cumsum(np.log(np.arange(1, r + 1)), out=log_factorials[1:])
    exact = np.ones(len(counts), dtype=np.int64)
    log_size = log_factorials[r] - log_factorials[counts[:, 0]]
    prefix = counts[:, 0].copy()
    for i in range(1, d):
        prefix += counts[:, i]
        smaller = np.minimum(counts[:, i], prefix - counts[:, i])  # C(a, m) = C(a, a - m)
        exact *= binomials[np.minimum(smaller, columns - 1), prefix]
        log_size -= log_factorials[counts[:, i]]
    out = exact.astype(np.float64)
    wide = np.flatnonzero(log_size > _INT64_LOG_LIMIT)
    try:
        # log r! and the counts' log-factorials each round by at most the bound
        # above, and the subtractions by no more: a row whose log passes the float
        # range's by 4 times it overflows, and is refused before any factorial
        if log_size.max() > _FLOAT_LOG_LIMIT + 4 * r * r * math.log(r + 1) * 2.0**-53:
            raise OverflowError
        if len(wide):
            factorials = np.array([math.factorial(k) for k in range(r + 1)], dtype=object)
            out[wide] = (factorials[r] // np.prod(factorials[counts[wide]], axis=1)).astype(np.float64)
    except OverflowError as exc:
        raise DomainError(
            f"the orbit sizes of length-{r} sequences over d={d} overflow: "
            "a multinomial exceeds the float range (about 1.8e308)"
        ) from exc
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
    """table[a, b] = C(a, b) for b < d and a - b < r, the entries head_ranks reads.

    Each is at most C(r + d - 2, r - 1) <= num_compositions(r, d), so the
    table fits int64 whenever the compositions of degree r can be listed;
    that covers every length the oracle and boson routes enumerate and
    every cone LP that fits in memory.  The entries head_ranks never reads are
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


def head_ranks(heads: np.ndarray, r: int) -> np.ndarray:
    """Position of each degree-r count vector in compositions(r, d), given its first d - 1 entries.

    heads has d - 1 columns; the last entry of each vector is r minus the
    row's sum and is never read.  Lex-descending order puts before n every
    vector sharing n's first i entries and exceeding n_i at entry i; with
    R left to place over the remaining slots once n_i is placed, there are
    C(R - 1 + slots, slots) of them.  The rows are not validated.
    """
    d = heads.shape[1] + 1
    if (r + d - 1) * d <= _CACHED_BINOMIALS:
        table = _binomials(r, d)
    else:
        table = _binomials.__wrapped__(r, d)
    out = np.zeros(len(heads), dtype=np.int64)
    top = r + d - 1  # R - 1 + slots before any entry is placed
    for i in range(d - 1):
        # placing n_i takes n_i from R and one slot; C(top, slots) is 0 when
        # top < slots, that is when nothing exceeds n_i
        top = top - heads[:, i] - 1
        out += table[:, d - 1 - i][top]
    return out


def ranks(counts: np.ndarray, r: int) -> np.ndarray:
    """Position of each row of counts (degree-r count vectors) in compositions(r, d)."""
    return head_ranks(counts[:, :-1], r)


def scatter_by_rank(entries: dict[CountVector, float], r: int, d: int) -> np.ndarray:
    """A map of degree-r count vectors as a vector in compositions(r, d) order, 0 if absent."""
    out = np.zeros(table_rows(r, d))
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


def iter_orbit_sequences(n: CountVector) -> Iterator[Sequence]:
    """The distinct orderings of the multiset described by n, lazily, in lexicographic order.

    Each is the next permutation of the one before (Narayana's step), from the sorted one.
    """
    validate_counts(n)
    seq = [t for t, k in enumerate(n) for _ in range(k)]

    def walk() -> Iterator[Sequence]:
        while True:
            yield tuple(seq)
            # swap the last ascent's low entry with the last entry above it; reverse the tail
            i = next((i for i in range(len(seq) - 2, -1, -1) if seq[i] < seq[i + 1]), -1)
            if i < 0:
                return
            j = max(j for j in range(i + 1, len(seq)) if seq[j] > seq[i])
            seq[i], seq[j] = seq[j], seq[i]
            seq[i + 1 :] = seq[:i:-1]

    return walk()
