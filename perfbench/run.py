"""cavityspin benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout. Each run starts SETUP_PROBES
set-up-only processes and then one worker process for the workload, all
with the package's process pool and BLAS/OpenMP pinned to one thread, so
setup_s and peak_rss_mb belong to that workload alone. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). A detailed record (samples, percentiles, generated inputs,
checks, provenance) is written under .perfbench/results/.

`--workload all` runs every workload and prints one table line per
workload with wall_s, setup_s, peak_rss_mb and fail_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from tracing import COUNT_METRICS, DERIVED_METRICS, TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0
THREAD_ENV = ("CAVITYSPIN_MAX_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_METRICS = tuple(TIME_METRICS) + COUNT_METRICS + DERIVED_METRICS


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({key: "1" for key in THREAD_ENV})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(workload, seed, seconds, trace, workdir, setup_only) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON record."""
    result = os.path.join(workdir, f"result-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(seconds), str(trace), repr(time.monotonic()), workdir, result]
    if setup_only:
        cmd.append("--setup-only")
    # The program's own prints go to stderr; stdout ends with the result line.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} exceeded {WORKER_TIMEOUT_S} s") from None
    if code != 0:
        raise BenchError(f"worker for {workload} exited with {code}")
    with open(result) as fh:
        return json.load(fh)


def _percentile_with_tail(samples, tail=10):
    """Highest whole percentile with at least `tail` samples above it."""
    n = len(samples)
    if n <= tail:
        return None
    p = math.floor(100.0 * (n - tail) / n)
    ordered = sorted(samples)
    return {"p": p, "value": ordered[max(0, math.ceil(p / 100.0 * n) - 1)]}


def _provenance() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cavityspin")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"git_revision": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {key: "1" for key in THREAD_ENV}}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the detail record, result line included."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cavityspin", "__init__.py")):
        raise BenchError(f"no cavityspin sources under {ROOT}/src")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        setups = [_spawn(workload, seed, seconds, trace, workdir, True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        record = _spawn(workload, seed, seconds, trace, workdir, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(record["setup_s"])
    walls = record["walls"]["untraced"]
    if trace:
        # One consistent iteration (median traced wall, lower of an even
        # count) rather than per-metric medians, so its layers add up.
        layers = sorted(record["layers"], key=lambda it: it["trace.wall_s"])
        metrics = dict(layers[(len(layers) - 1) // 2])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        # Layer self times cover the root span, so this is rounding only,
        # unless a layer escaped the wrappers.
        record["trace_closure_s"] = metrics["trace.wall_s"] - sum(
            metrics[name] for name in TIME_METRICS)
        metrics = {name: {"value": metrics[name], "unit": layer_unit(name)}
                   for name in LAYER_METRICS}
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    line = {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}
    detail = dict(record, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  setup_samples=setups, wall_samples=len(walls),
                  wall_tail_percentile=_percentile_with_tail(walls),
                  fail_ratio=record["failed"] / record["attempted"],
                  provenance=_provenance(), result=line)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, default=float)
    return detail


def _summary(seed: int, seconds: float) -> int:
    print(f"{'workload':<15}{'wall_s':>12}{'setup_s':>12}{'peak_rss_mb':>14}"
          f"{'fail_ratio':>12}  samples")
    bad = 0
    for name in WORKLOADS:
        d = run_workload(name, seed, seconds, 0)
        m = d["result"]["metrics"]
        print(f"{name:<15}{m['wall_s']['value']:>10.3f} s{m['setup_s']['value']:>10.3f} s"
              f"{m['peak_rss_mb']['value']:>10.1f} MiB{d['fail_ratio']:>12.3f}  "
              f"{d['wall_samples']}", flush=True)
        bad += not d["result"]["correct"]
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return _summary(args.seed, args.seconds)
        detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for check in detail["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['name']}: {check['value']} "
                  f"(bound {check['bound']})", file=sys.stderr)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
