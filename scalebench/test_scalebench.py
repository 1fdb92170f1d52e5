"""The benchmark's own tests: every workload at test size through the gate.

Run from the repository root with ``python -m pytest scalebench``. Whole
benchmark runs happen in a subprocess, because a run re-imports scaledet
to time its import; the in-process tests never do.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from generate import road_scene  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, import_scaledet  # noqa: E402

import_scaledet()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "scalebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _tiny(name: str, seed: int, tmp_path: Path):
    workload = WORKLOADS[name](seed, tmp_path / name, WORKLOADS[name].tiny_size)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_gate_at_test_size(name, trace):
    size = str(WORKLOADS[name].tiny_size)
    proc = _run(run.ROOT, "--workload", name, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--images", size)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert '"PYTHONHASHSEED": "0"' in proc.stdout
    assert not run.WORK_ROOT.exists() or not any(run.WORK_ROOT.iterdir())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_recorded_digests(name, tmp_path):
    workload = _tiny(name, DEFAULT_SEED, tmp_path)
    assert workload.expected_digests(), "no digests recorded at test size"
    workload.op()
    assert workload.check() == []


def _drop_first_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")


def _flip_last_digit(path: Path) -> None:
    text = path.read_text(encoding="utf-8").rstrip("\n")
    digit = text[-1]
    path.write_text(text[:-1] + ("1" if digit != "1" else "2") + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "name, seed, artifact, corrupt",
    [
        ("coverage-scan", 7, "coverage/attribution.csv", _drop_first_row),
        ("eval-kitti", 7, "folds.csv", _drop_first_row),
        # At the default seed a value that keeps every invariant still fails.
        ("eval-kitti", DEFAULT_SEED, "pr.csv", _flip_last_digit),
    ],
)
def test_corrupted_artifact_is_a_failed_op(name, seed, artifact, corrupt, tmp_path):
    workload = _tiny(name, seed, tmp_path)
    honest_op = workload.op

    def corrupting_op():
        honest_op()
        corrupt(workload.out / artifact)

    workload.op = corrupting_op
    record = worker.run_op(workload, traced=False)
    result = run.summarize([record], 0.0, trace=False)
    assert result["attempted"] == 1 and result["failed"] == 1 and not result["correct"]


def test_raising_op_is_a_failed_op(tmp_path):
    workload = _tiny("eval-dense", 7, tmp_path)
    workload.gts = None
    record = worker.run_op(workload, traced=False)
    assert "TypeError" in record["problems"][0]


@pytest.mark.parametrize("name", ["coverage-scan", "eval-dense"])
def test_worker_with_wrong_facts_is_a_failed_op(name, tmp_path):
    workload = _tiny(name, 7, tmp_path)
    workload.facts = {**workload.facts, "n_gt": workload.facts["n_gt"] + 1}
    records = run.measure(workload, 0, trace=False)
    result = run.summarize(records, 0.0, trace=False)
    assert result["attempted"] == 1 and result["failed"] == 1 and not result["correct"]


def test_tracer_patches_from_imports_and_restores(tmp_path):
    modules = {name: sys.modules[f"scaledet.{name}"]
               for name in ("anchors", "cli", "evaluation", "geometry", "simulate")}
    before = {
        "iou": modules["evaluation"].iou,
        "iou_matrix": modules["anchors"].iou_matrix,
        "run_detector": modules["cli"].run_detector,
        "simulate": modules["simulate"].simulate,
    }
    workload = _tiny("eval-dense", 7, tmp_path)
    with Tracer() as tracer:
        assert modules["evaluation"].iou is not before["iou"]
        assert modules["anchors"].iou_matrix is not before["iou_matrix"]
        assert modules["cli"].run_detector is not before["run_detector"]
        assert modules["simulate"].simulate is not before["simulate"]
        workload.op()
    assert modules["evaluation"].iou is before["iou"]
    assert modules["anchors"].iou_matrix is before["iou_matrix"]
    assert modules["cli"].run_detector is before["run_detector"]
    assert modules["simulate"].simulate is before["simulate"]
    layers = tracer.metrics()
    assert layers["simulate.dets"] == workload.n_in > 0
    assert layers["evaluation.nms_in"] == workload.n_in
    assert layers["geometry.iou_calls"] > 0 and layers["evaluation.det_gt_pairs"] > 0
    assert layers["evaluation.nms_s"] > 0 and not tracer.errors


def test_scene_is_seeded_and_prefix_stable():
    short, long = road_scene(3, 12), road_scene(3, 30)
    assert long.labels[:12] == short.labels
    assert road_scene(3, 12) == short and road_scene(4, 12) != short
    assert all(3 <= len(text.splitlines()) <= 8 for _, text in long.labels)
    assert long.n_gt == sum(len(text.splitlines()) for _, text in long.labels)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "scalebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "eval-dense", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
