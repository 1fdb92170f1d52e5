"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 8 needs real KITTI training labels and is skipped unless
``SCALEDET_KITTI_LABEL_DIR`` points at a directory of label .txt files.
"""

import contextlib
import math
import os
import time

import numpy as np
import pytest

from conftest import synthetic_vehicle_dataset
from test_cli import dir_bytes, write_kitti_dataset
from test_evaluation import nms_oracle, riemann_ap
from test_netgraph import random_graph, rf_by_perturbation

from scaledet.anchors import (
    RATIOS_DEFAULT,
    SCALES_BASELINE,
    SCALES_EXTENDED,
    AnchorConfig,
    anchor_shapes,
    coverage,
)
from scaledet.cli import main
from scaledet.datasets import compute_stats, load_dataset, split_folds
from scaledet.evaluation import (
    Detection,
    average_precision,
    evaluate_detections,
    nms,
    pr_curve,
    scale_bucketed_ap,
)
from scaledet.geometry import Box
from scaledet.netgraph import (
    builtin_arch,
    parse_arch,
    receptive_field,
    validate_variant,
    with_probe_window,
)
from scaledet.simulate import DetectorProfile, simulate


@contextlib.contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL [{number}] {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"\nACCEPTANCE PASS [{number}] {description} ({elapsed:.2f}s < {budget_s:g}s)")


def test_criterion_1_anchor_family_sizes():
    with criterion(1, "anchor family sizes k=9 and k=15", 1.0):
        three = AnchorConfig(scales=SCALES_BASELINE, ratios=RATIOS_DEFAULT)
        five = AnchorConfig(scales=SCALES_EXTENDED, ratios=RATIOS_DEFAULT)
        assert three.k == 9 and len(anchor_shapes(three)) == 9
        assert five.k == 15 and len(anchor_shapes(five)) == 15


def test_criterion_2_receptive_field():
    with criterion(2, "ZF chain RF 171 / stride 16 + perturbation oracle x200", 10.0):
        probed = with_probe_window(parse_arch(builtin_arch("zf")))
        info = receptive_field(probed, "rpn_window")
        assert info.receptive_field == 171
        assert info.cumulative_stride == 16

        rng = np.random.default_rng(424242)
        for _ in range(200):
            graph, layer = random_graph(rng)
            assert (
                receptive_field(graph, layer).receptive_field
                == rf_by_perturbation(graph, layer)
            )


def test_criterion_3_variant_validation():
    with criterion(3, "variant merges valid with expected rf_sets", 1.0):
        ml = parse_arch(builtin_arch("zf_ml"))
        [f_ml] = validate_variant(ml, 1392, 512)
        assert f_ml.ok and f_ml.rf_set == frozenset({107, 139})

        ms = parse_arch(builtin_arch("zf_ms"))
        [f_ms] = validate_variant(ms, 1392, 512)
        assert f_ms.ok and f_ms.rf_set == frozenset({107, 139, 171})

        res_text = builtin_arch("zf_res")
        [f_res] = validate_variant(parse_arch(res_text), 1392, 512)
        assert f_res.ok and f_res.rf_set == frozenset({107, 171})
        broken = res_text.replace(
            "conv res2 k=3 s=1 p=1 c=384 from res1", "conv res2 k=3 s=1 p=1 c=192 from res1"
        )
        [f_bad] = validate_variant(parse_arch(broken), 1392, 512)
        assert not f_bad.ok and f_bad.node == "resout"


def test_criterion_4_nms_equivalence():
    with criterion(4, "NMS equals O(n^2) greedy oracle on 1000 instances", 5.0):
        rng = np.random.default_rng(271828)
        for _ in range(1000):
            n = int(rng.integers(0, 51))
            dets = []
            for _ in range(n):
                x1 = rng.uniform(0, 90)
                y1 = rng.uniform(0, 90)
                dets.append(
                    Detection(
                        image_id="i",
                        class_name="Car",
                        box=Box(x1, y1, x1 + rng.uniform(2, 45), y1 + rng.uniform(2, 45)),
                        score=round(float(rng.random()), 2),
                    )
                )
            threshold = float(rng.uniform(0.2, 0.8))
            assert nms(dets, threshold) == nms_oracle(dets, threshold)


def test_criterion_5_ap_correctness():
    with criterion(5, "AP vs Riemann oracle (500 seqs) + exact 11-point fixtures", 5.0):
        assert average_precision([True], 1, "all-point") == 1.0
        assert average_precision([True], 1, "11-point") == 1.0
        assert average_precision([False], 1, "all-point") == 0.0
        assert average_precision([False], 1, "11-point") == 0.0
        # Hand-computed 11-point fixtures.
        assert average_precision([True, False, True], 2, "11-point") == pytest.approx(
            28 / 33, abs=1e-12
        )
        assert average_precision([True], 2, "11-point") == pytest.approx(6 / 11, abs=1e-12)
        assert average_precision([False, True], 1, "11-point") == pytest.approx(
            0.5 * 11 / 11, abs=1e-12
        )

        rng = np.random.default_rng(314159)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            flags = [bool(rng.random() < 0.6) for _ in range(n)]
            total_gt = sum(flags) + int(rng.integers(0, 10))
            if total_gt == 0:
                continue
            ap = average_precision(flags, total_gt, "all-point")
            assert ap == pytest.approx(riemann_ap(pr_curve(flags, total_gt)), abs=1e-3)


def test_criterion_6_coverage_direction():
    with criterion(6, "5-scale recall beats 3-scale on small-object dataset", 30.0):
        dataset = synthetic_vehicle_dataset(seed=90210, n_images=40)
        stats = compute_stats([a for i in dataset for a in i.annotations])
        assert stats.width_histogram.modal_bin() == (30.0, 60.0)

        thresholds = (0.3, 0.5, 0.7, 0.9)
        base = coverage(AnchorConfig(scales=SCALES_BASELINE), dataset, thresholds=thresholds)
        ext = coverage(AnchorConfig(scales=SCALES_EXTENDED), dataset, thresholds=thresholds)
        r_base = base.overall_recall(0.5)
        r_ext = ext.overall_recall(0.5)
        assert r_ext > r_base  # strict improvement at IoU 0.5
        for t in thresholds:  # superset monotonicity everywhere
            assert ext.overall_recall(t) >= base.overall_recall(t)
        print(f"\n  recall@0.5: baseline={r_base:.4f} extended={r_ext:.4f} "
              f"gain={r_ext - r_base:.4f}")


def test_criterion_7_end_to_end():
    with criterion(7, "perfect sim AP=1.0; step profile splits buckets", 30.0):
        dataset = synthetic_vehicle_dataset(seed=5150, n_images=30)
        gts = [a for i in dataset for a in i.annotations]
        perfect = DetectorProfile(detect_prob=((0.0, 1.0),), loc_noise_sigma=0.0,
                                  fp_per_image=0.0)
        assert evaluate_detections(simulate(dataset, perfect), gts, class_name="Car").ap == 1.0

        def sampler(rng):
            return rng.uniform(30, 100) if rng.random() < 0.5 else rng.uniform(160, 400)

        bimodal = synthetic_vehicle_dataset(seed=5151, n_images=30, width_sampler=sampler)
        bi_gts = [a for i in bimodal for a in i.annotations]
        step = DetectorProfile(detect_prob=((127.9, 0.0), (128.0, 1.0)),
                               loc_noise_sigma=0.0, fp_per_image=0.0)
        small, large = scale_bucketed_ap(
            simulate(bimodal, step), bi_gts, (0, 128, math.inf), 0.5
        )
        assert small.total_gt > 0 and large.total_gt > 0
        assert small.ap < 0.05
        assert large.ap > 0.95


def test_criterion_8_real_kitti(tmp_path):
    label_dir = os.environ.get("SCALEDET_KITTI_LABEL_DIR")
    if not label_dir or not os.path.isdir(label_dir):
        print("\nACCEPTANCE SKIP [8] real KITTI labels not present "
              "(set SCALEDET_KITTI_LABEL_DIR)")
        pytest.skip("real KITTI labels not available")
    with criterion(8, "real KITTI modal width bin in [30,60); 6-fold split sizes", 60.0):
        images, _ = load_dataset(label_dir, "kitti", skip_bad=True)
        annotations = [a for i in images for a in i.annotations]
        stats = compute_stats(annotations, class_filter="Car")
        lo, hi = stats.width_histogram.modal_bin()
        assert (lo, hi) == (30.0, 60.0)

        car_images = sorted({a.source_image for a in annotations if a.class_name == "Car"})
        print(f"\n  images with cars: {len(car_images)} of {len(images)}")
        folds = split_folds(car_images, n_folds=6, test_size=1000, seed=0)
        assert len(folds) == 6
        for fold in folds:
            assert len(fold.test_ids) == 1000
            assert 5000 <= len(fold.train_ids) <= 6000


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI subcommand re-runs byte-identical", 60.0):
        dataset_dir = tmp_path / "labels"
        write_kitti_dataset(dataset_dir, synthetic_vehicle_dataset(seed=808, n_images=6))
        profile = tmp_path / "profile.txt"
        profile.write_text(
            "detect_prob=16:0.2,64:0.9\nloc_noise_sigma=1.5\nfp_per_image=1.0\nseed=17\n"
        )
        shared_sim = tmp_path / "shared_sim"
        assert main(["simulate", str(dataset_dir), str(profile),
                     "--out", str(shared_sim)]) == 0
        detections = shared_sim / "detections.csv"
        snapshots = {}
        for tag in ("first", "second"):
            base = tmp_path / tag
            assert main(["stats", str(dataset_dir), "--out", str(base / "stats")]) == 0
            assert main(["coverage", str(dataset_dir), "--scales", "32,64,128,256,512",
                         "--compare", "128,256,512", "--out", str(base / "cov")]) == 0
            assert main(["rf", "zf_combin", "--probe", "rpn_window",
                         "--out", str(base / "rf")]) == 0
            assert main(["simulate", str(dataset_dir), str(profile),
                         "--out", str(base / "sim")]) == 0
            assert main(["eval", str(dataset_dir), str(detections),
                         "--buckets", "0,128,inf", "--out", str(base / "eval")]) == 0
            snapshots[tag] = {
                sub: dir_bytes(base / sub) for sub in ("stats", "cov", "rf", "sim", "eval")
            }
        assert snapshots["first"] == snapshots["second"]
