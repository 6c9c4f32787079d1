"""One pass of a workload in a fresh process, or the checks after the passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.

``--mode pass`` runs the workload's job list once, in order, through
``mc_arelab.cli.main`` (a closed loop with one client), timing each job.
Pass 0 writes ``<job>.first.csv``; every later pass writes
``<job>.rerun.csv`` and must reproduce pass 0 byte for byte. With
``--trace 1`` the layer entry points are wrapped and the pass reports
per-layer counts and times, and writes its spans.

``--mode check`` checks every pass-0 output and reruns the determinism
jobs. The last line of stdout is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import tracing
import workloads


def _run_job(cli, job, path: str) -> bool:
    """Run one CLI job in process; True when it exits 0."""
    if job.threads is None:
        os.environ.pop("MC_ARELAB_THREADS", None)
    else:
        os.environ["MC_ARELAB_THREADS"] = job.threads
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(job.argv + ["--out", path])
    except Exception:
        print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False
    if rc != 0:
        print(f"job {job.name} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return rc == 0


def _path(out_dir: str, job, tag: str) -> str:
    return os.path.join(out_dir, f"{job.name}.{tag}.csv")


def run_pass(jobs, out_dir: str, index: int, trace: bool) -> dict:
    tracer = tracing.Tracer()
    import mc_arelab.cli as cli

    patches = tracer.install("mc_arelab") if trace else None
    times, failed = {}, []
    for job in jobs:
        tracer.job = job.name
        path = _path(out_dir, job, "first" if index == 0 else "rerun")
        start = time.perf_counter()
        ok = _run_job(cli, job, path)
        times[job.name] = time.perf_counter() - start
        if ok and index > 0 and not filecmp.cmp(_path(out_dir, job, "first"), path, shallow=False):
            print(f"job {job.name}: pass {index} output differs from pass 0", file=sys.stderr)
            ok = False
        if not ok:
            failed.append(job.name)
    result = {
        "job_s": times,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        calls, busy, self_s = tracing.layer_times(tracer.spans)
        result.update(calls=calls, busy=busy, self=self_s, counts=tracer.counts,
                      patches=patches, count_errors=tracer.count_errors)
        tracer.write(os.path.join(out_dir, f"spans.pass{index}.csv.gz"))
    return result


def run_checks(name: str, jobs, out_dir: str) -> dict:
    """Check every pass-0 output, then rerun the determinism jobs (at
    another thread count where one is given) and compare bytes."""
    import mc_arelab.cli as cli

    failed = []
    for job in jobs:
        path = _path(out_dir, job, "first")
        if not os.path.exists(path):
            continue  # the job failed in pass 0 and is counted there
        try:
            checks.CHECKS[job.argv[0]](path, job.argv)
        except Exception as exc:
            print(f"job {job.name}: output check failed: {exc!r}", file=sys.stderr)
            failed.append(job.name)
    reruns = workloads.DETERMINISM[name]
    deterministic = True
    for job_name, threads in reruns:
        job = next(j for j in jobs if j.name == job_name)
        if threads is not None:
            job = job._replace(threads=threads)
        path = _path(out_dir, job, "determinism")
        if not (_run_job(cli, job, path) and filecmp.cmp(_path(out_dir, job, "first"), path, shallow=False)):
            print(f"determinism: {job.name} at threads={job.threads} differs", file=sys.stderr)
            failed.append(f"{job.name} (determinism)")
            deterministic = False
    return {"attempted": len(reruns), "failed": failed, "deterministic": deterministic}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--mode", required=True, choices=("pass", "check"))
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.mode == "pass":
        result = run_pass(jobs, args.out_dir, args.index, bool(args.trace))
    else:
        result = run_checks(args.workload, jobs, args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
