"""scaledet benchmark: closed-loop workloads, gated, with an optional traced run.

Run from the repository root::

    python3 scalebench/run.py --workload eval-kitti --seed 1 --seconds 24 --trace 0

The run builds the workload's inputs from ``--seed``, then one client runs
the workload's op back to back for ``--seconds`` (at least one op, and with
``--trace 1`` at least two). Each op runs in a fresh worker process (see
``worker.py``), one at a time, and every op's results are checked. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``wall_rel``, the median over
ops of the op's wall time divided by the host reference loop timed during
it; ``setup_s``, the median of repeated times importing scaledet and
building the inputs in memory, in seconds at the reference host speed
(see ``set_up``; writing the input files is not timed); and
``peak_rss_mb``, the median peak RSS of a worker. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, plus context: the host reference time, the raw wall and CPU seconds
of the untraced ops and the tracing overhead.

scaledet is imported from ``src/`` next to this directory and nowhere else;
without it the benchmark exits 2 and prints no result. Inputs live in
``.scalebench_work/`` under the repository root and are removed at exit.
The process re-executes itself once to fix ``PYTHONHASHSEED``, which the
workers inherit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".scalebench_work"
HASH_SEED = "0"
SETUP_SAMPLES = 3
SETUP_MIN_S = 1.0
WORKER_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))

from host import REFERENCE_CALIB_S, HostSampler, environment  # noqa: E402
from workloads import WORKLOADS, SetupError, import_scaledet, write_files  # noqa: E402

LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("svgplot.render_s", "s"),
    ("datasets.load_s", "s"),
    ("datasets.files", "count"),
    ("datasets.boxes", "count"),
    ("datasets.stats_s", "s"),
    ("anchors.coverage_s", "s"),
    ("anchors.coverage_calls", "count"),
    ("anchors.anchors_per_image", "count"),
    ("geometry.iou_matrix_s", "s"),
    ("geometry.iou_matrix_calls", "count"),
    ("geometry.iou_matrix_pairs", "count"),
    ("geometry.iou_calls", "count"),
    ("netgraph.analyze_s", "s"),
    ("netgraph.layers", "count"),
    ("evaluation.csv_read_s", "s"),
    ("evaluation.csv_rows", "count"),
    ("evaluation.match_s", "s"),
    ("evaluation.match_calls", "count"),
    ("evaluation.det_gt_pairs", "count"),
    ("evaluation.bucketed_s", "s"),
    ("evaluation.ap_s", "s"),
    ("evaluation.nms_s", "s"),
    ("evaluation.nms_in", "count"),
    ("evaluation.nms_kept_frac", "ratio"),
    ("evaluation.tp", "count"),
    ("evaluation.fp", "count"),
    ("evaluation.ignored", "count"),
    ("simulate.simulate_s", "s"),
    ("simulate.dets", "count"),
    ("host.calib_s", "s"),
    ("op.wall_s", "s"),
    ("op.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


def forget_scaledet() -> None:
    for name in [m for m in sys.modules if m == "scaledet" or m.startswith("scaledet.")]:
        del sys.modules[name]


def set_up(name: str, seed: int, work: Path, n_images: int | None):
    """Import scaledet and build the inputs in memory, again and again.

    Takes at least ``SETUP_SAMPLES`` samples, and more until they add up to
    ``SETUP_MIN_S``, so that a quick set-up still gets a steady median.
    Each sample runs under the host sampler, and its time is scaled to the
    reference host speed: seconds x ``REFERENCE_CALIB_S`` / the reference
    loop's median time during the sample. Returns the workload of the last
    sample, with its input files written, and the median scaled time.
    """
    sampler = HostSampler()
    samples = []
    spent = 0.0
    while len(samples) < SETUP_SAMPLES or spent < SETUP_MIN_S:
        forget_scaledet()
        gc.collect()
        sampler.reset()
        start = time.perf_counter()
        with sampler:
            import_scaledet()
            workload = WORKLOADS[name](seed, work, n_images)
            files = workload.build()
        seconds = time.perf_counter() - start - sampler.spent
        spent += seconds
        samples.append(seconds * REFERENCE_CALIB_S / sampler.calib_s)
    write_files(work, files)
    workload.bind()
    return workload, statistics.median(samples)


def run_worker(workload, traced: bool) -> dict:
    """One op in a fresh worker process; a worker that fails is a failed op."""
    spec = {
        "workload": workload.name,
        "seed": workload.seed,
        "work": str(workload.work),
        "images": workload.n_images,
        "facts": workload.facts,
        "traced": traced,
    }
    command = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip()[-800:]
        return {"traced": traced, "problems": [f"worker exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def measure(workload, seconds: float, trace: bool) -> list[dict]:
    """Ops back to back until ``seconds`` have passed; traced runs alternate."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline or (trace and len(records) < 2):
        record = run_worker(workload, traced=trace and len(records) % 2 == 1)
        records.append(record)
        if record["problems"]:
            status = "FAILED " + "; ".join(record["problems"])
        elif record["traced"]:
            status = f"wall {record['wall_s']:.4f} s, traced"
            if record["trace_errors"]:
                status += ", counters failed: " + "; ".join(record["trace_errors"])
        else:
            status = (f"wall {record['wall_s']:.4f} s, cpu {record['cpu_s']:.4f} s, "
                      f"calib {record['calib_s'] * 1e3:.3f} ms, rel {record['wall_rel']:.1f}")
        print(f"[{workload.name}] op {len(records)}: {status}", file=sys.stderr)
    return records


def _median(records: list[dict], key: str) -> float:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def summarize(records: list[dict], setup_s: float, trace: bool) -> dict:
    failed = sum(1 for r in records if r["problems"])
    plain = [r for r in records if not r["traced"]]
    if trace:
        traced = [r for r in records if r["traced"] and "layers" in r]
        values = {
            name: statistics.median(r["layers"].get(name, 0) for r in traced) if traced else 0.0
            for name, _ in LAYER_METRICS
        }
        values["host.calib_s"] = _median(plain, "calib_s")
        values["op.wall_s"] = _median(plain, "wall_s")
        values["op.cpu_s"] = _median(plain, "cpu_s")
        values["trace.overhead_s"] = _median(traced, "wall_s") - values["op.wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "wall_rel": {"value": _median(plain, "wall_rel"), "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"},
        }
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path,
              n_images: int | None = None) -> dict:
    """Set up, measure and summarize one run; ``work`` is removed afterwards."""
    try:
        workload, setup_s = set_up(name, seed, work, n_images)
        print("environment " + json.dumps(environment(work)))
        records = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(records, setup_s, trace)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--images", type=int, help="scene size (default: the workload's)")
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  env)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work,
                           args.images)
    except SetupError as exc:
        print(f"scalebench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
