"""The benchmark's workloads: seeded jobs, each one finex command line.

A job is a dict with
  name       unique within the workload
  command    "bound", "curve", "verify" or "verify-negative"
  argv       the arguments for finex.cli.main; "{input}" stands for the
             observable file the worker writes before the first job
  observable {counts: coeff}, as reference.py reads it, or None
  s / s_min / s_max / seed   what the checks need to know
  frontier   True for a job that fails today at the LP frontier; its time
             is kept out of the timing metrics whether it fails or not

The same workload and seed always give the same jobs.  finex is not used
here, so the worker can build its inputs before finex runs.
"""

from __future__ import annotations

import numpy as np

import reference

WORKLOADS = ("lp_cone", "urn_scan", "verify_suite")

LP_CAP_OFF = "1"  # below every --s-min: curve prints no LP column


def psd_quadratic(rng: np.random.Generator, d: int, rows: int | None = None) -> dict:
    """theta^T A^T A theta for a Gaussian rows x d matrix A (3d rows by default).

    A^T A is scaled so its largest entry is 1.  A tall A keeps A^T A well
    conditioned, so finex's simplex descent does about the same work on
    every seed; with a square A its time ranged from 0.9 s to 10 s across
    ten seeds at d=8.
    """
    a = rng.normal(size=(rows or 3 * d, d))
    q = a.T @ a
    q /= np.abs(q).max()
    g = {}
    for i in range(d):
        for j in range(i, d):
            n = [0] * d
            n[i] += 1
            n[j] += 1
            g[tuple(n)] = float(q[i, j] if i == j else 2.0 * q[i, j])
    return g


def positive_times_psd(rng: np.random.Generator, d: int) -> dict:
    """(w . theta) * theta^T A^T A theta with w > 0: a seeded cubic."""
    w = rng.uniform(0.5, 1.5, size=d)
    g: dict[tuple, float] = {}
    for m, c in psd_quadratic(rng, d).items():
        for i in range(d):
            n = list(m)
            n[i] += 1
            g[tuple(n)] = g.get(tuple(n), 0.0) + float(w[i]) * c
    return g


def _bound(name, observable, s, frontier=False):
    return {
        "name": name,
        "command": "bound",
        "argv": ["bound", "--observable", "{input}", "--s", str(s),
                 "--method", "all", "--format", "json"],
        "observable": observable,
        "s": s,
        "frontier": frontier,
    }


def _curve(name, observable, s_min, s_max):
    return {
        "name": name,
        "command": "curve",
        "argv": ["curve", "--observable", "{input}", "--s-min", str(s_min),
                 "--s-max", str(s_max), "--lp-cap", LP_CAP_OFF],
        "observable": observable,
        "s_min": s_min,
        "s_max": s_max,
        "frontier": False,
    }


def lp_cone(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    return [
        _bound("witness-d6-s5", reference.witness(6), 5),
        _bound("witness-d6-s6", reference.witness(6), 6),
        _bound("witness-d6-s7", reference.witness(6), 7),
        _bound("psd-d5-s7", psd_quadratic(rng, 5), 7),
        _bound("psd-d6-s6", psd_quadratic(rng, 6), 6),
        # both exit 3 on every run today, "simplex validation failed": the
        # first on a perturbed basis infeasible for the exact data, the
        # second on a primal residual of 7.6e-8 against the 1e-8 contract
        _bound("frontier-witness-d3-s16", reference.witness(3), 16, frontier=True),
        _bound("frontier-sos-d3-s13", reference.sum_of_squares(3), 13, frontier=True),
    ]


def urn_scan(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    return [
        _curve("witness-d6", reference.witness(6), 2, 13),
        _curve("sos-d5", reference.sum_of_squares(5), 2, 16),
        _curve("psd-d8", psd_quadratic(rng, 8), 2, 7),
        _curve("cubic-d4", positive_times_psd(rng, 4), 3, 20),
        # the same for every seed: a square A, on which the descent is slow
        _curve("slow-descent-psd-d8", psd_quadratic(np.random.default_rng([1, 9]), 8, rows=8), 2, 6),
    ]


VERIFY_SEEDS = 15


def verify_suite(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    seeds = [int(v) for v in rng.choice(1 << 30, size=VERIFY_SEEDS + 1, replace=False)]
    jobs = [
        {"name": f"verify-{k}", "command": "verify",
         "argv": ["verify", "--seed", str(k)], "observable": None,
         "seed": k, "frontier": False}
        for k in seeds[:-1]
    ]
    k = seeds[-1]
    jobs.append(
        {"name": f"negative-control-{k}", "command": "verify-negative",
         "argv": ["verify", "--seed", str(k), "--inject-perturbation"],
         "observable": None, "seed": k, "frontier": False}
    )
    return jobs


def jobs(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"lp_cone": lp_cone, "urn_scan": urn_scan, "verify_suite": verify_suite}[
        workload
    ](seed)


def polynomial_json(g: dict) -> dict:
    """The observable in finex's file format."""
    return {
        "d": len(next(iter(g))),
        "terms": [{"counts": list(n), "coeff": c} for n, c in g.items()],
    }
