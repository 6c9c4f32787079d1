"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. It compiles ``src`` to bytecode,
then runs passes over the seeded job list, each in a fresh worker process
(``worker.py``), until the next pass would overrun ``--seconds``. Before
each pass it starts the CLI a few times for ``setup_s`` (fresh
interpreter to a built CLI parser; the median of all starts). A last
worker checks every output and reruns the determinism jobs. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.
The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Artifacts (job CSVs, spans, a result record with machine details) go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WHY, WORKLOADS  # noqa: E402

SETUP_STARTS = 3
SETUP_CODE = (
    "import sys\n"
    "import mc_arelab.cli\n"
    "mc_arelab.cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("MC_ARELAB_THREADS", None)
    return env


def _start_once(env: dict, root: str) -> float:
    """Seconds from launching an interpreter to a built CLI parser."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, env=env, cwd=root, text=True
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError("the CLI did not start")
    return elapsed


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _worker(args, env: dict, root: str, out_dir: str, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out-dir", out_dir, *extra,
    ]
    done = subprocess.run(
        cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"worker {' '.join(extra)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _wall_s(passes: list[dict]) -> float:
    """Time for one pass over the job list: the sum over jobs of the best
    job time over the passes. Other tenants of the host only ever add time,
    and they do so for seconds at a stretch; the best of several passes is
    the time the code itself needs, and it spreads less across runs than
    the median does."""
    return sum(min(p["job_s"][job] for p in passes) for job in passes[0]["job_s"])


def run_passes(args, env: dict, root: str, out_dir: str, deadline: float):
    """Fresh-process passes until the next would overrun ``--seconds``.

    Before each pass the CLI is started ``SETUP_STARTS`` times for
    ``setup_s``: host speed drifts over seconds, so spreading the starts
    over the whole run steadies their median. With ``--trace 1`` untraced
    and traced passes alternate, at least two traced ones, so that the
    counts can be seen to repeat."""
    plain, traced, setup = [], [], []
    _start_once(env, root)  # bytecode and OS caches warm, as for a user's second call
    start = time.perf_counter()
    cost = {False: [], True: []}  # seconds per pass, CLI starts included
    index = 0
    while True:
        trace = bool(args.trace) and index % 2 == 1
        t0 = time.perf_counter()
        setup += [_start_once(env, root) for _ in range(SETUP_STARTS)]
        result = _worker(args, env, root, out_dir, deadline, "--mode", "pass",
                         "--index", str(index), "--trace", str(int(trace)))
        cost[trace].append(time.perf_counter() - t0)
        (traced if trace else plain).append(result)
        index += 1
        if args.trace and len(traced) < 2:
            continue
        upcoming = bool(args.trace) and index % 2 == 1
        if time.perf_counter() - start + statistics.median(cost[upcoming]) > args.seconds:
            return statistics.median(setup), plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mc_arelab", "cli.py")):
        return _fail("run from the root of an mc-arelab checkout (src/mc_arelab is missing)")
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = _env(root)
    out_dir = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)

    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
        env=env, cwd=root, stdout=subprocess.DEVNULL, timeout=600,
    )
    if build.returncode != 0:
        return _fail("compiling src failed")
    try:
        setup_s, plain, traced = run_passes(args, env, root, out_dir, deadline)
        checked = _worker(args, env, root, out_dir, deadline, "--mode", "check")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    passes = plain + traced
    failed = sum(len(p["failed"]) for p in passes) + len(checked["failed"])
    attempted = sum(len(p["job_s"]) for p in passes) + checked["attempted"]
    wall_s = _wall_s(plain)
    if args.trace:
        values = tracing.layer_metrics(traced)
        values["trace.overhead_s"] = _wall_s(traced) - wall_s
        metrics = {name: {"value": v, "unit": tracing.layer_unit(name)} for name, v in values.items()}
    else:
        peak_rss_mb = statistics.median(p["peak_rss_mb"] for p in plain)
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    counts_repeat = all(
        p["counts"] == traced[0]["counts"] and p["calls"] == traced[0]["calls"] for p in traced
    )
    correct = failed == 0 and checked["deterministic"] and counts_repeat
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "jobs": {job.name: job.argv for job in WORKLOADS[args.workload](args.seed)},
        "fail_ratio": failed / attempted,
        "failed": [name for p in passes for name in p["failed"]] + checked["failed"],
        "passes": [{"traced": p in traced, "job_s": p["job_s"], "peak_rss_mb": p["peak_rss_mb"]}
                   for p in passes],
        "metrics": metrics,
    }
    if args.trace:
        record["trace_overhead_s"] = values["trace.overhead_s"]
        record["counts_repeat"] = counts_repeat
        # a layer whose patch point is gone, or whose counter raised, reads 0:
        # record which, so that it is not taken for a layer that got cheaper
        record["patches"] = traced[0]["patches"]
        record["count_errors"] = dict(sum((Counter(p["count_errors"]) for p in traced), Counter()))
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes; machine {record['machine']}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':44s} {record['fail_ratio']:14.6g} ratio ({failed} of {attempted} jobs)")
    if args.trace:
        print(f"  tracing overhead: traced wall {_wall_s(traced):.4f} s minus untraced "
              f"{wall_s:.4f} s; counts repeat across traced passes: {counts_repeat}")
        print(f"  patch points installed: {len(record['patches']['installed'])}; missing: "
              f"{', '.join(record['patches']['missing']) or 'none'}")
        for error, n in record["count_errors"].items():
            print(f"  counter raised {n} times: {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
