"""Run one op of a workload in a fresh process and print its record as JSON.

``run.py`` starts one worker per op, one at a time, on inputs it has built:
a process keeps its own memory layout for its whole life, and on a shared
host that alone moves an op's time by 10-15%, so each op gets a new one.
Untraced ops run under the host sampler, traced ops under the tracer.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from host import HostSampler
from tracing import Tracer
from workloads import WORKLOADS, import_scaledet


def out_bytes(workload) -> int:
    out = getattr(workload, "out", None)
    if out is None or not out.exists():
        return 0
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def run_op(workload, traced: bool) -> dict:
    """Run, time and check one op."""
    probe = Tracer() if traced else HostSampler()
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    try:
        with probe:
            workload.op()
        problems = None
    except Exception:  # an op that raises is a failed op, and the run goes on
        problems = [traceback.format_exc(limit=4)]
    spent = 0.0 if traced else probe.spent
    record = {
        "traced": traced,
        "wall_s": time.perf_counter() - start_wall - spent,
        "cpu_s": time.process_time() - start_cpu - spent,
        "problems": workload.check() if problems is None else problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = probe.metrics()
        layers["cli.out_bytes"] = out_bytes(workload)
        if not record["problems"]:
            for key, value in workload.outcomes().items():
                layers[f"evaluation.{key}"] = value
        record["layers"] = layers
        record["trace_errors"] = probe.errors
    else:
        record["calib_s"] = probe.calib_s
        record["wall_rel"] = record["wall_s"] / probe.calib_s
    return record


def main(argv) -> int:
    spec = json.loads(argv[0])
    import_scaledet()
    workload = WORKLOADS[spec["workload"]](spec["seed"], Path(spec["work"]), spec["images"])
    workload.attach(spec["facts"])
    gc.collect()
    gc.freeze()
    print(json.dumps(run_op(workload, spec["traced"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
