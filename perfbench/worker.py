"""One round of a workload, in a fresh process: write inputs, run every job.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR RESULT_JSON [--trace]

The worker imports finex from the checkout's src/, writes the jobs'
observable files into WORKDIR, then calls finex.cli.main(argv) once per
job with stdout and stderr captured.  It records the perf_counter reading
at the start of the first job (run.py subtracts its own reading taken
just before it started this process), each job's exit code, time and
output, and ru_maxrss after the last job.  With --trace the public
functions of finex's modules are wrapped first (see tracer.py).  No
reference value is computed here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import finex.cli  # noqa: E402

import workloads  # noqa: E402


def _check_source() -> None:
    where = os.path.abspath(finex.__file__)
    if not where.startswith(os.path.join(SRC, "")):
        raise SystemExit(f"finex imported from {where}, not from {SRC}")


def _write_inputs(jobs: list[dict], workdir: str) -> list[list[str]]:
    argvs = []
    for k, job in enumerate(jobs):
        argv = list(job["argv"])
        if job["observable"] is not None:
            path = os.path.join(workdir, f"{k:02d}-{job['name']}.json")
            with open(path, "w") as handle:
                json.dump(workloads.polynomial_json(job["observable"]), handle)
            argv = [path if a == "{input}" else a for a in argv]
        argvs.append(argv)
    return argvs


def _run_job(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = finex.cli.main(argv)
    except Exception as exc:  # an escaped traceback is a failed job, not a dead round
        code = None
        err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    seconds = time.perf_counter() - start
    return {"code": code, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv: list[str]) -> int:
    workload, seed, workdir, result_path = argv[:4]
    traced = "--trace" in argv[4:]
    _check_source()
    jobs = workloads.jobs(workload, int(seed))
    recorder = None
    if traced:
        import tracer

        recorder = tracer.install()
    argvs = _write_inputs(jobs, workdir)

    first_job_at = time.perf_counter()
    results = []
    for job, job_argv in zip(jobs, argvs):
        results.append({"name": job["name"], **_run_job(job_argv)})
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {
        "first_job_at": first_job_at,
        "jobs": results,
        "maxrss_kb": maxrss_kb,
        "layers": recorder.summary() if recorder is not None else None,
    }
    with open(result_path, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
