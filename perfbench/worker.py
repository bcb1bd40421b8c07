"""One workload in one fresh process: set up, iterate for a time budget,
check outputs, write a JSON record. Started by run.py; not an entry point.

    worker.py WORKLOAD SEED SECONDS TRACE SPAWN_TIME WORKDIR RESULT [--setup-only]

SPAWN_TIME is the parent's time.monotonic() (a system-wide clock) just
before it started this process, so setup_s covers interpreter start,
imports, input generation, config parse and density build, up to the
first workload call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _loop(workload, seconds: float, trace: bool) -> dict:
    """Closed loop, one client: each iteration starts when the previous one
    ended. A new iteration starts only if it is expected to finish within
    the budget; the first one (first pair when tracing) always runs."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    walls = {"untraced": [], "traced": []}
    layers, failures, digests = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.iteration_span(i):
                    workload.run(tracer)
            else:
                workload.run()
            wall = time.perf_counter() - t0
            digests.append(workload.digest())
        except Exception:  # a failed iteration is counted, not fatal
            wall = time.perf_counter() - t0
            failures.append({"iteration": i, "error": traceback.format_exc(limit=3)})
            digests.append(None)
        walls["traced" if traced else "untraced"].append(wall)
        if traced:
            layers.append(tracer.iteration_metrics(i, workload.useful_solves))
        i += 1
        done = time.perf_counter() - start
        per_iteration = done / i
        if i >= (2 if trace else 1) and done + per_iteration > seconds:
            break
    return {"walls": walls, "layers": layers, "failures": failures, "digests": digests}


def _versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv) -> int:
    workload_name, seed, seconds, trace, spawned, workdir, result_path = argv[:7]
    setup_only = "--setup-only" in argv[7:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"

    import workloads

    inputs = workloads.generate(workload_name, seed)
    workload = workloads.make(workload_name, inputs, workdir)
    setup_s = time.monotonic() - float(spawned)
    record = {"setup_s": setup_s}
    if not setup_only:
        loop = _loop(workload, seconds, trace)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok = [d for d in loop["digests"] if d is not None]
        # Every iteration must reproduce the first one's output exactly, so
        # the reference checks of that output cover all of them.
        mismatched = [i for i, d in enumerate(loop["digests"])
                      if d is not None and d != ok[0]]
        checks = []
        if ok:
            try:
                checks = workload.check(seed)
            except Exception:
                checks = [{"name": "check raised", "ok": False,
                           "value": traceback.format_exc(limit=3), "bound": None}]
        attempted = len(loop["digests"])
        checks_ok = bool(checks) and all(c["ok"] for c in checks)
        failed = attempted if not checks_ok else len(loop["failures"]) + len(mismatched)
        record.update(loop, attempted=attempted, failed=failed, checks=checks,
                      mismatched=mismatched, inputs=inputs, sizes=workload.sizes(),
                      versions=_versions())
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
