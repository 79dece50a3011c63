"""Per-layer tracing from outside finex: wrap public functions in place.

Every wrapper records one span per call: its wall time, and the time of
the wrapped calls made inside it.  A layer's self time is the sum of its
spans' times minus their wrapped children, so nested layers are never
counted twice.  Functions are replaced under the name each caller looks
up (cli's `polynomial_from_json`, bernstein_lp's `oracle_bound`, and so
on), because a `from .x import f` binding is not reached by patching the
defining module alone.  finex's files are not changed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import finex.bernstein_lp
import finex.boson
import finex.cli
import finex.exchangeable
import finex.polynomial
import finex.solvers

# (span name, module whose global is replaced, attribute)
WRAPPED = [
    ("cli.parse", finex.cli, "polynomial_from_json"),
    ("multiindex.compositions", finex.cli, "compositions"),
    ("multiindex.compositions", finex.polynomial, "compositions"),
    ("multiindex.compositions", finex.exchangeable, "compositions"),
    ("multiindex.compositions", finex.bernstein_lp, "compositions"),
    ("multiindex.compositions", finex.boson, "compositions"),
    ("polynomial.homogenize", finex.exchangeable, "homogenize"),
    ("polynomial.homogenize", finex.bernstein_lp, "homogenize"),
    ("polynomial.homogenize", finex.boson, "homogenize"),
    ("polynomial.reduce_to_free_vars", finex.bernstein_lp, "reduce_to_free_vars"),
    ("exchangeable.oracle_bound", finex.cli, "oracle_bound"),
    ("exchangeable.oracle_bound", finex.bernstein_lp, "oracle_bound"),
    ("bernstein_lp.assemble", finex.cli, "assemble"),
    ("bernstein_lp.assemble", finex.bernstein_lp, "assemble"),
    ("bernstein_lp.lower_bound_lp", finex.cli, "lower_bound_lp"),
    ("solvers.simplex_solve", finex.bernstein_lp, "simplex_solve"),
    ("solvers.simplex_solve", finex.solvers, "simplex_solve"),
    ("solvers.jacobi_eigen", finex.boson, "jacobi_eigen"),
    ("boson.quantum_bound", finex.boson, "quantum_bound"),
    ("boson.simplex_minimum", finex.boson, "simplex_minimum"),
    ("boson.dense_checks", finex.boson, "symmetrizer"),
    ("boson.dense_checks", finex.boson, "permutation_matrix"),
    ("boson.dense_checks", finex.boson.OccupationBasis, "dense_isometry"),
    ("boson.dense_checks", finex.boson.BosonDensityMatrix, "dense"),
]

SPANS = sorted({name for name, _, _ in WRAPPED})


class Recorder:
    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._children = []  # wrapped-child time of each open span, innermost last

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "self_s": {name: self.self_s[name] for name in SPANS},
            "calls": {name: self.calls[name] for name in SPANS},
            "counts": dict(self.counts),
        }


def install() -> Recorder:
    """Wrap every function in WRAPPED; return the recorder they report to."""
    rec = Recorder()
    counts = rec.counts

    def lifted(result, args, kwargs):
        counts["lifted_terms"] += len(result.terms)

    def urns(result, args, kwargs):
        counts["urns_evaluated"] += result.diagnostics["compositions_evaluated"]

    def rows(result, args, kwargs):
        counts["lp_rows"] += len(result.rows)

    def states(result, args, kwargs):
        counts["occupation_states"] += result.diagnostics["occupation_dimension"]

    def top_level_solve(result, args, kwargs):
        # a result returned to lower_bound_lp: the LP attempt is over
        counts["lp_pivots"] += result.iterations

    def rerun(args, kwargs):
        perturb = kwargs.get("_perturb", args[2] if len(args) > 2 else True)
        if not perturb:
            counts["lp_reruns"] += 1

    after = {
        "polynomial.homogenize": lifted,
        "exchangeable.oracle_bound": urns,
        "bernstein_lp.assemble": rows,
        "boson.quantum_bound": states,
    }
    for name, owner, attr in WRAPPED:
        fn = getattr(owner, attr)
        if owner is finex.bernstein_lp and attr == "simplex_solve":
            setattr(owner, attr, _lp_attempt(rec, rec.wrap(name, fn, top_level_solve)))
        elif owner is finex.solvers and attr == "simplex_solve":
            setattr(owner, attr, _on_call(rerun, rec.wrap(name, fn)))
        else:
            setattr(owner, attr, rec.wrap(name, fn, after.get(name)))
    return rec


def _on_call(hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hook(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _lp_attempt(rec: Recorder, fn):
    """Count LPs attempted, and those accepted with no unperturbed rerun."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts["lp_attempts"] += 1
        reruns_before = rec.counts["lp_reruns"]
        result = fn(*args, **kwargs)
        if result.status == finex.solvers.OPTIMAL and rec.counts["lp_reruns"] == reruns_before:
            rec.counts["lp_first_try"] += 1
        return result

    return wrapper
