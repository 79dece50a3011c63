"""finex benchmark: run one workload for a fixed time, check it, report.

    python3 perfbench/run.py --workload lp_cone --seed 1 --seconds 55 --trace 0

Run from the root of a checkout (the directory holding src/finex).  The
run repeats whole rounds until --seconds have passed.  A round is one
fresh worker process (worker.py) that imports finex from src/, writes the
round's inputs and runs every job of the workload once, so no job repeats
inside a process and finex's in-process caches start cold each round.
Rounds run one after another; each worker is single-threaded, with the
BLAS thread count held at 1.

Every output is checked against reference.py.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (medians over rounds); with
--trace 1 the run alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = "1"
RUN_LIMIT_S = 150  # no round is expected to end later than this
DEADLINE_S = 170  # a round still running at this time is killed


class BenchmarkError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)  # finex comes from this checkout's src/ only
    return env


def run_round(workload: str, seed: int, workdir: str, k: int, traced: bool, deadline: float) -> dict:
    result_path = os.path.join(workdir, f"round-{k}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), workdir, result_path]
    if traced:
        cmd.append("--trace")
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        cmd, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    with open(result_path) as handle:
        doc = json.load(handle)
    doc["setup_s"] = doc["first_job_at"] - spawned_at
    doc["traced"] = traced
    return doc


def score_round(jobs: list[dict], refs: dict, doc: dict) -> dict:
    """Failures, problems and the timed jobs' times of one round.

    Only a frontier job may fail and leave the round correct; any other
    job that exits with an unexpected code is also a problem.
    """
    failed, problems, times = [], [], {}
    for job, res in zip(jobs, doc["jobs"]):
        if res["code"] != checks.EXPECTED_CODE[job["command"]]:
            failed.append(f"{job['name']}: exit {res['code']}: {res['stderr'].strip()[-200:]}")
            if not job["frontier"]:
                problems.append(f"{job['name']}: unexpected exit {res['code']} of a non-frontier job")
            continue
        problems += [f"{job['name']}: {p}" for p in checks.check_job(job, res["stdout"], refs[job["name"]])]
        if not job["frontier"]:
            times[job["name"]] = res["seconds"]
    return {"attempted": len(jobs), "failed": failed, "problems": problems, "times": times,
            "wall_s": sum(times.values())}


def end_to_end(docs: list[dict], scores: list[dict]) -> dict:
    """Each job's time is its median over the rounds in which it succeeded."""
    names = sorted({name for s in scores for name in s["times"]})
    if not names:
        raise BenchmarkError("no timed job succeeded in any round")
    per_job = [statistics.median(s["times"][n] for s in scores if n in s["times"]) for n in names]
    values = [
        ("setup_s", statistics.median(d["setup_s"] for d in docs), "s"),
        ("wall_s", sum(per_job), "s"),
        ("job_p50_s", statistics.median(per_job), "s"),
        ("job_max_s", max(per_job), "s"),
        ("peak_rss_mb", statistics.median(d["maxrss_kb"] for d in docs) / 1024.0, "MB"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: list[dict], traced_scores: list[dict], plain_scores: list[dict]) -> dict:
    """Per-layer metrics: times are medians over traced rounds, counts per round."""
    layers = [doc["layers"] for doc in traced]

    def self_s(span):
        return statistics.median(layer["self_s"][span] for layer in layers)

    calls = layers[0]["calls"]
    counts = layers[0]["counts"]
    simplex_s = self_s("solvers.simplex_solve")
    overhead = statistics.median(s["wall_s"] for s in traced_scores) - statistics.median(
        s["wall_s"] for s in plain_scores
    )
    values = [
        ("cli.parse_s", self_s("cli.parse"), "s"),
        ("multiindex.compositions_s", self_s("multiindex.compositions"), "s"),
        ("multiindex.compositions_calls", calls["multiindex.compositions"], "count"),
        ("polynomial.homogenize_s", self_s("polynomial.homogenize"), "s"),
        ("polynomial.homogenize_calls", calls["polynomial.homogenize"], "count"),
        ("polynomial.lifted_terms", counts.get("lifted_terms", 0), "count"),
        ("polynomial.reduce_to_free_vars_s", self_s("polynomial.reduce_to_free_vars"), "s"),
        ("exchangeable.oracle_bound_s", self_s("exchangeable.oracle_bound"), "s"),
        ("exchangeable.oracle_bound_calls", calls["exchangeable.oracle_bound"], "count"),
        ("exchangeable.urns_evaluated", counts.get("urns_evaluated", 0), "count"),
        ("bernstein_lp.assemble_s", self_s("bernstein_lp.assemble"), "s"),
        ("bernstein_lp.lower_bound_lp_s", self_s("bernstein_lp.lower_bound_lp"), "s"),
        ("bernstein_lp.lp_rows", counts.get("lp_rows", 0), "count"),
        ("solvers.simplex_solve_s", simplex_s, "s"),
        ("solvers.simplex_solve_calls", calls["solvers.simplex_solve"], "count"),
        ("solvers.simplex_reruns", counts.get("lp_reruns", 0), "count"),
        ("solvers.simplex_pivots", counts.get("lp_pivots", 0), "count"),
        ("solvers.pivots_per_s", _ratio(counts.get("lp_pivots", 0), simplex_s), "1/s"),
        ("solvers.first_try_ratio",
         _ratio(counts.get("lp_first_try", 0), counts.get("lp_attempts", 0)), "ratio"),
        ("solvers.jacobi_eigen_s", self_s("solvers.jacobi_eigen"), "s"),
        ("boson.quantum_bound_s", self_s("boson.quantum_bound"), "s"),
        ("boson.occupation_states", counts.get("occupation_states", 0), "count"),
        ("boson.simplex_minimum_s", self_s("boson.simplex_minimum"), "s"),
        ("boson.dense_checks_s", self_s("boson.dense_checks"), "s"),
        ("trace.overhead_s", overhead, "s"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "finex", "__init__.py")):
        raise BenchmarkError(f"no finex source under {os.path.join(ROOT, 'src')}")
    jobs = workloads.jobs(workload, seed)
    # the references are computed here, never in a worker, and before any timing
    refs = {job["name"]: checks.make_reference(job, seed) for job in jobs}
    compileall.compile_dir(os.path.join(ROOT, "src", "finex"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    docs, scores = [], []
    try:
        started = time.perf_counter()
        while True:
            traced = trace and len(docs) % 2 == 1
            doc = run_round(workload, seed, workdir, len(docs), traced, deadline)
            docs.append(doc)
            scores.append(score_round(jobs, refs, doc))
            if trace and len(docs) % 2:
                continue  # traced and untraced rounds come in pairs
            elapsed = time.perf_counter() - started
            # one more block of rounds only if it would end nearer to --seconds
            block = elapsed / len(docs) * (2 if trace else 1)
            if elapsed + block / 2 >= seconds or elapsed + block >= RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for k, s in enumerate(scores):
        for line in s["failed"] + s["problems"]:
            print(f"round {k}: {line}", file=sys.stderr)
    plain = [s for d, s in zip(docs, scores) if not d["traced"]]
    if trace:
        traced_docs = [d for d in docs if d["traced"]]
        traced_scores = [s for d, s in zip(docs, scores) if d["traced"]]
        metrics = per_layer(traced_docs, traced_scores, plain)
    else:
        metrics = end_to_end(docs, scores)
    return {
        "correct": not any(s["problems"] for s in scores),
        "attempted": sum(s["attempted"] for s in scores),
        "failed": sum(len(s["failed"]) for s in scores),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
