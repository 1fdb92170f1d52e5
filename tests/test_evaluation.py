import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaledet.datasets import Annotation
from scaledet.errors import ConfigError, ParseError
from scaledet.evaluation import (
    FP,
    IGNORED,
    TP,
    Detection,
    aggregate_folds,
    average_precision,
    default_iou_threshold,
    evaluate_detections,
    match_detections,
    nms,
    pr_curve,
    read_detections_csv,
    scale_bucketed_ap,
    write_detections_csv,
)
from scaledet.geometry import Box, iou


def det(x1, y1, x2, y2, score, image="i0", cls="Car"):
    return Detection(image_id=image, class_name=cls, box=Box(x1, y1, x2, y2), score=score)


def gt(x1, y1, x2, y2, image="i0", cls="Car"):
    return Annotation(class_name=cls, box=Box(x1, y1, x2, y2), source_image=image)


def nms_oracle(dets, threshold):
    """Reference greedy NMS, written out step by step."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    alive = set(order)
    kept = []
    for i in order:
        if i not in alive:
            continue
        kept.append(dets[i])
        alive.discard(i)
        for j in list(alive):
            if iou(dets[i].box, dets[j].box) > threshold:
                alive.discard(j)
    return kept


def matching_oracle(dets, gts, threshold, ignore_mask=None):
    """Step-by-step simulation of the greedy matching protocol."""
    if ignore_mask is None:
        ignore_mask = [g.is_dontcare for g in gts]
    order = sorted(dets, key=Detection.sort_key)
    unmatched = {}
    ignore = {}
    for idx, (g, ignored) in enumerate(zip(gts, ignore_mask)):
        slot = ignore if ignored else unmatched
        slot.setdefault(g.source_image, []).append((idx, g.box))
    labels = []
    for d in order:
        candidates = unmatched.get(d.image_id, [])
        best = None
        best_iou = 0.0
        for idx, box in candidates:
            value = iou(d.box, box)
            if value > best_iou:
                best, best_iou = idx, value
        if best is not None and best_iou >= threshold:
            unmatched[d.image_id] = [(i, b) for i, b in candidates if i != best]
            labels.append((d, TP))
        elif any(iou(d.box, box) >= threshold for _, box in ignore.get(d.image_id, [])):
            labels.append((d, IGNORED))
        else:
            labels.append((d, FP))
    return labels


# Hypothesis cases for the matching kernel. Box(0, 0, 10, 10) has IoU exactly
# 0.5 with Box(0, 0, 10, 5) and with Box(0, 5, 10, 10) (an IoU tie), and
# exactly 1/3 with Box(0, 5, 10, 15); a small pool also makes duplicates.
EXACT_BOXES = [Box(0, 0, 10, 10), Box(0, 0, 10, 5), Box(0, 5, 10, 10), Box(0, 5, 10, 15),
               Box(0.0, 0.0, 10.0, 10.0)]
# Detections may land on image "c", which holds no ground truth.
DET_IMAGES = ["a", "b", "c"]
GT_IMAGES = ["a", "b"]
THRESHOLDS = st.sampled_from([0.5, 0.7, 1.0])


def _length(lo, hi):
    return st.one_of(st.integers(lo, hi), st.integers(4 * lo, 4 * hi).map(lambda v: v / 4))


@st.composite
def boxes(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(EXACT_BOXES))
    x1, y1 = draw(_length(0, 16)), draw(_length(0, 16))
    return Box(x1, y1, x1 + draw(_length(1, 12)), y1 + draw(_length(1, 12)))


detections = st.lists(
    st.builds(Detection, st.sampled_from(DET_IMAGES), st.sampled_from(["Car", "Car", "Van"]),
              boxes(), st.sampled_from([0.25, 0.5, 0.75])),  # coarse scores force ties
    max_size=14,
)
ground_truth = st.lists(
    st.builds(lambda cls, box, image: Annotation(class_name=cls, box=box, source_image=image),
              st.sampled_from(["Car", "Car", "DontCare", "Van"]), boxes(),
              st.sampled_from(GT_IMAGES)),
    max_size=10,
)


def riemann_ap(points, resolution=1e-4):
    """Oracle: midpoint Riemann sum of the enveloped precision over recall.

    Literal evaluation of p_env(r) = max{precision at recall >= r} on a fine
    grid; no envelope construction shared with the implementation.
    """
    if not points:
        return 0.0
    rec = np.array([r for r, _ in points])
    prec = np.array([p for _, p in points])
    grid = (np.arange(int(1 / resolution)) + 0.5) * resolution
    mask = rec[None, :] >= grid[:, None]
    p_env = np.where(mask, prec[None, :], 0.0).max(axis=1)
    return float(p_env.mean())


class TestNMS:
    def test_single_detection(self):
        d = det(0, 0, 10, 10, 0.5)
        assert nms([d], 0.5) == [d]

    def test_duplicate_suppressed(self):
        hi = det(0, 0, 10, 10, 0.9)
        lo = det(0, 0, 10, 10, 0.8)
        assert nms([lo, hi], 0.5) == [hi]

    def test_disjoint_all_survive_sorted(self):
        a = det(0, 0, 10, 10, 0.3)
        b = det(50, 50, 60, 60, 0.7)
        assert nms([a, b], 0.5) == [b, a]

    def test_threshold_is_strict(self):
        # IoU exactly at the threshold is NOT suppressed (rule is >).
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 5, 10, 15, 0.8)  # IoU with a = 50/150 = 1/3
        assert nms([a, b], 1 / 3) == [a, b]
        assert nms([a, b], 0.33) == [a]

    def test_equal_scores_tie_break_by_input_index(self):
        a = det(0, 0, 10, 10, 0.5)
        b = det(1, 0, 11, 10, 0.5)
        assert nms([a, b], 0.5) == [a]
        assert nms([b, a], 0.5) == [b]

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            nms([], 0.0)
        with pytest.raises(ConfigError):
            nms([], 1.0)

    def test_matches_oracle_on_1000_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(0, 51))
            dets = []
            for _ in range(n):
                x1 = rng.uniform(0, 80)
                y1 = rng.uniform(0, 80)
                dets.append(
                    det(x1, y1, x1 + rng.uniform(2, 40), y1 + rng.uniform(2, 40),
                        round(float(rng.random()), 2))
                )
            threshold = float(rng.uniform(0.2, 0.8))
            assert nms(dets, threshold) == nms_oracle(dets, threshold)

    def test_survivors_pairwise_below_threshold(self):
        rng = np.random.default_rng(5)
        dets = []
        for _ in range(60):
            x1 = rng.uniform(0, 50)
            y1 = rng.uniform(0, 50)
            dets.append(det(x1, y1, x1 + rng.uniform(5, 30), y1 + rng.uniform(5, 30),
                            float(rng.random())))
        kept = nms(dets, 0.4)
        assert set(kept) <= set(dets)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(a.box, b.box) <= 0.4


class TestMatching:
    def test_exact_hit(self):
        labels = match_detections([det(0, 0, 10, 10, 0.9)], [gt(0, 0, 10, 10)], 0.5)
        assert [label for _, label in labels] == [TP]

    def test_duplicate_penalized(self):
        dets = [det(0, 0, 10, 10, 0.9), det(0.5, 0, 10.5, 10, 0.8)]
        labels = match_detections(dets, [gt(0, 0, 10, 10)], 0.5)
        assert [label for _, label in labels] == [TP, FP]

    def test_dontcare_absorbs(self):
        dets = [det(100, 100, 140, 130, 0.9)]
        gts = [gt(0, 0, 10, 10), gt(100, 100, 140, 130, cls="DontCare")]
        labels = match_detections(dets, gts, 0.5)
        assert [label for _, label in labels] == [IGNORED]

    def test_true_match_beats_dontcare(self):
        # A detection that could match both takes the counted GT.
        dets = [det(0, 0, 10, 10, 0.9)]
        gts = [gt(0, 0, 10, 10), gt(0, 0, 10, 10, cls="DontCare")]
        labels = match_detections(dets, gts, 0.5)
        assert [label for _, label in labels] == [TP]

    def test_cross_image_isolation(self):
        dets = [det(0, 0, 10, 10, 0.9, image="a")]
        gts = [gt(0, 0, 10, 10, image="b")]
        labels = match_detections(dets, gts, 0.5)
        assert [label for _, label in labels] == [FP]

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            image_ids = ["a", "b"]
            dets = []
            for _ in range(20):
                x1 = rng.uniform(0, 60)
                y1 = rng.uniform(0, 60)
                dets.append(
                    det(x1, y1, x1 + rng.uniform(4, 30), y1 + rng.uniform(4, 30),
                        round(float(rng.random()), 1),  # coarse scores force ties
                        image=image_ids[int(rng.integers(0, 2))])
                )
            gts = []
            for _ in range(10):
                x1 = rng.uniform(0, 60)
                y1 = rng.uniform(0, 60)
                cls = "DontCare" if rng.random() < 0.2 else "Car"
                gts.append(gt(x1, y1, x1 + rng.uniform(4, 30), y1 + rng.uniform(4, 30),
                              image=image_ids[int(rng.integers(0, 2))], cls=cls))
            want = matching_oracle(dets, gts, 0.4)
            got = match_detections(dets, gts, 0.4)
            assert got == want

    def test_label_multiset_stable_under_permutation(self):
        rng = np.random.default_rng(3)
        dets = []
        for _ in range(15):
            x1 = rng.uniform(0, 40)
            y1 = rng.uniform(0, 40)
            dets.append(det(x1, y1, x1 + 10, y1 + 10, 0.5))  # all scores equal
        gts = [gt(5, 5, 18, 18), gt(20, 20, 33, 33)]
        base = match_detections(dets, gts, 0.3)
        for seed in range(5):
            perm = list(np.random.default_rng(seed).permutation(len(dets)))
            shuffled = match_detections([dets[i] for i in perm], gts, 0.3)
            assert shuffled == base  # identical content order, identical labels


class TestMatchingKernel:
    """The candidate-pair kernel against the step-by-step oracle."""

    @given(detections, ground_truth, THRESHOLDS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_match_equals_oracle(self, dets, gts, threshold, data):
        mask = data.draw(st.none() | st.lists(st.booleans(), min_size=len(gts),
                                              max_size=len(gts)))
        got = match_detections(dets, gts, threshold, ignore_mask=mask)
        assert list(got) == matching_oracle(dets, gts, threshold, ignore_mask=mask)

    @given(detections, ground_truth, THRESHOLDS,
           st.sampled_from([(0, math.inf), (0, 5, 10, math.inf), (0, 8, 10.5), (3, 6, 9)]))
    @settings(max_examples=200, deadline=None)
    def test_buckets_equal_rematching_each_bucket(self, dets, gts, threshold, edges):
        want = []
        for lo, hi in zip(edges, edges[1:]):
            ignore = [g.is_dontcare or not lo <= g.box.width < hi for g in gts]
            total_gt = ignore.count(False)
            if total_gt == 0:
                want.append((lo, hi, None, 0, 0, 0))
                continue
            matches = matching_oracle(dets, gts, threshold, ignore)
            flags = [label == TP for _, label in matches if label != IGNORED]
            want.append((lo, hi, average_precision(flags, total_gt), sum(flags),
                         len(flags) - sum(flags), total_gt))
        got = scale_bucketed_ap(dets, gts, edges, threshold)
        assert [(b.bucket_lo, b.bucket_hi, b.ap, b.tp, b.fp, b.total_gt) for b in got] == want

        class_gts = [g for g in gts if g.class_name == "Car" or g.is_dontcare]
        report = evaluate_detections(dets, gts, "Car", threshold, bucket_edges=edges)
        assert list(report.per_bucket) == scale_bucketed_ap(
            [d for d in dets if d.class_name == "Car"], class_gts, edges, threshold
        )

    @given(detections, ground_truth, THRESHOLDS,
           st.lists(st.sampled_from(["f0", "f1", "", None]), min_size=4, max_size=4),
           st.sampled_from(["all-point", "11-point"]), st.sampled_from(["Car", "Van", "DontCare"]))
    @settings(max_examples=200, deadline=None)
    def test_fold_slices_equal_fold_evaluation(self, dets, gts, threshold, folds, mode, cls):
        fold_of = {image: f for image, f in zip(DET_IMAGES + ["d"], folds) if f is not None}
        report = evaluate_detections(dets, gts, cls, threshold, mode, folds=fold_of)
        assert [d for d, _ in report.matches] == sorted(
            [d for d in dets if d.class_name == cls], key=Detection.sort_key
        )
        assert dataclasses.replace(report, per_fold=()) == evaluate_detections(
            dets, gts, cls, threshold, mode)
        assert [fold for fold, _ in report.per_fold] == sorted(set(fold_of.values()))
        for fold, fold_report in report.per_fold:
            images = {image for image, f in fold_of.items() if f == fold}
            assert fold_report == evaluate_detections(
                [d for d in dets if d.image_id in images],
                [g for g in gts if g.source_image in images],
                cls, threshold, mode,
            )

    @given(detections, st.sampled_from([0.25, 1 / 3, 0.5, 0.7]))
    @settings(max_examples=200, deadline=None)
    def test_nms_equals_oracle(self, dets, threshold):
        assert nms(dets, threshold) == nms_oracle(dets, threshold)

    def test_iou_exactly_at_threshold_matches(self):
        dets = [det(0, 0, 10, 5, 0.9)]
        assert match_detections(dets, [gt(0, 0, 10, 10)], 0.5) == [(dets[0], TP)]
        assert match_detections(dets, [gt(0, 0, 10, 10, cls="DontCare")], 0.5) == [
            (dets[0], IGNORED)
        ]
        assert nms([det(0, 0, 10, 10, 0.9), dets[0]], 0.5) == [det(0, 0, 10, 10, 0.9), dets[0]]

    def test_iou_tie_claims_lowest_index(self):
        # The first detection ties g0 and g1 at 0.5 and takes g0, so the
        # second, which overlaps g0 alone, finds it taken.
        first, second = det(0, 0, 10, 10, 0.9), det(0, 0, 10, 5, 0.8)
        gts = [gt(0, 0, 10, 5), gt(0, 5, 10, 10)]
        assert match_detections([first, second], gts, 0.5) == [(first, TP), (second, FP)]

    def test_outbid_detection_falls_back_to_ignore_region(self):
        first, second = det(0, 0, 10, 10, 0.9), det(0, 0, 10, 9, 0.8)
        gts = [gt(0, 0, 10, 10), gt(0, 0, 10, 8, cls="DontCare")]
        assert match_detections([first, second], gts, 0.7) == [(first, TP), (second, IGNORED)]

    def test_empty_inputs(self):
        assert nms([], 0.5) == []
        assert match_detections([], [], 0.5) == []
        assert match_detections([det(0, 0, 10, 10, 0.9)], [], 0.5)[0][1] == FP
        report = evaluate_detections([], [gt(0, 0, 10, 10)], bucket_edges=(0, math.inf))
        assert (report.ap, report.tp, report.fp, report.matches) == (0.0, 0, 0, ())


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([True], 1, "all-point") == 1.0
        assert average_precision([True], 1, "11-point") == 1.0

    def test_single_fp(self):
        assert average_precision([False], 1, "all-point") == 0.0
        assert average_precision([False], 1, "11-point") == 0.0

    def test_zero_gt(self):
        assert average_precision([], 0, "all-point") == 0.0

    def test_tp_fp_tp_hand_computed(self):
        # PR points: (0.5, 1), (0.5, 0.5), (1, 2/3).
        # Envelope: 1 on (0, 0.5], 2/3 on (0.5, 1] -> AP = 1/2 + 1/3 = 5/6.
        flags = [True, False, True]
        ap = average_precision(flags, 2, "all-point")
        assert ap == pytest.approx(5 / 6, abs=1e-12)
        assert ap == pytest.approx(riemann_ap(pr_curve(flags, 2)), abs=1e-3)

    def test_tp_fp_tp_eleven_point_hand_computed(self):
        # max precision at recall >= t: 1.0 for t in 0..0.5 (6 values),
        # 2/3 for t in 0.6..1.0 (5 values) -> (6 + 10/3) / 11 = 28/33.
        assert average_precision([True, False, True], 2, "11-point") == pytest.approx(
            28 / 33, abs=1e-12
        )

    def test_eleven_point_unreached_recall_zero(self):
        # One TP of two GT: recall caps at 0.5; thresholds above get 0.
        # (6 * 1.0 + 5 * 0.0) / 11.
        assert average_precision([True], 2, "11-point") == pytest.approx(6 / 11, abs=1e-12)

    def test_matches_riemann_oracle_on_500_random_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            flags = [bool(rng.random() < 0.6) for _ in range(n)]
            total_gt = sum(flags) + int(rng.integers(0, 10))
            if total_gt == 0:
                continue
            ap = average_precision(flags, total_gt, "all-point")
            assert ap == pytest.approx(riemann_ap(pr_curve(flags, total_gt)), abs=1e-3)

    def test_envelope_never_below_raw_step_integral(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            flags = [bool(rng.random() < 0.5) for _ in range(n)]
            total_gt = max(sum(flags), 1)
            points = pr_curve(flags, total_gt)
            raw = 0.0
            prev_r = 0.0
            for r, p in points:
                raw += (r - prev_r) * p
                prev_r = r
            assert average_precision(flags, total_gt, "all-point") >= raw - 1e-12

    def test_pr_curve_shape(self):
        points = pr_curve([True, False, True, True], 5)
        recalls = [r for r, _ in points]
        assert recalls == sorted(recalls)
        assert all(0 <= p <= 1 for _, p in points)
        assert recalls[-1] == 3 / 5

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            average_precision([True], 1, "coco")


class TestBucketedAP:
    def test_single_bucket_equals_plain_ap(self):
        rng = np.random.default_rng(23)
        dets, gts = [], []
        for i in range(30):
            x1 = rng.uniform(0, 400)
            w = rng.uniform(10, 300)
            g = gt(x1, 10, x1 + w, 10 + w / 2, image=f"i{i % 4}")
            gts.append(g)
            if rng.random() < 0.7:
                dets.append(det(x1 + 1, 10, x1 + w, 9 + w / 2, float(rng.random()),
                                image=f"i{i % 4}"))
        [bucket] = scale_bucketed_ap(dets, gts, (0, math.inf), 0.5)
        flags = [label == TP for _, label in match_detections(dets, gts, 0.5) if label != IGNORED]
        assert bucket.ap == average_precision(flags, len(gts), "all-point")

    def test_perfect_detections_both_buckets(self):
        gts = [gt(0, 0, 40, 20), gt(100, 100, 500, 260)]
        dets = [det(0, 0, 40, 20, 0.9), det(100, 100, 500, 260, 0.8)]
        buckets = scale_bucketed_ap(dets, gts, (0, 128, math.inf), 0.5)
        assert [b.ap for b in buckets] == [1.0, 1.0]

    def test_cross_bucket_detection_is_ignored_not_fp(self):
        # Only the large object is detected; the small bucket must not be
        # penalized by that detection.
        gts = [gt(0, 0, 40, 20), gt(100, 100, 500, 260)]
        dets = [det(100, 100, 500, 260, 0.8)]
        small, large = scale_bucketed_ap(dets, gts, (0, 128, math.inf), 0.5)
        assert small.ap == 0.0 and small.fp == 0
        assert large.ap == 1.0

    def test_empty_bucket_undefined(self):
        gts = [gt(0, 0, 40, 20)]
        buckets = scale_bucketed_ap([], gts, (0, 128, math.inf), 0.5)
        assert buckets[0].ap == 0.0
        assert buckets[1].ap is None and buckets[1].total_gt == 0


class TestEvaluateDetections:
    def test_default_thresholds(self):
        assert default_iou_threshold("Car") == 0.7
        assert default_iou_threshold("Pedestrian") == 0.5

    def test_perfect_detector(self):
        gts = [gt(0, 0, 50, 30), gt(200, 50, 400, 150, image="i1")]
        dets = [det(0, 0, 50, 30, 0.9), det(200, 50, 400, 150, 0.7, image="i1")]
        report = evaluate_detections(dets, gts, class_name="Car")
        assert report.iou_threshold == 0.7
        assert report.ap == 1.0
        assert (report.tp, report.fp, report.total_gt) == (2, 0, 2)
        assert not report.zero_gt

    def test_other_classes_invisible(self):
        gts = [gt(0, 0, 50, 30), gt(60, 0, 110, 30, cls="Pedestrian")]
        dets = [det(0, 0, 50, 30, 0.9), det(60, 0, 110, 30, 0.8, cls="Pedestrian")]
        report = evaluate_detections(dets, gts, class_name="Car")
        assert report.total_gt == 1
        assert (report.tp, report.fp) == (1, 0)

    def test_zero_gt_flagged(self):
        report = evaluate_detections([det(0, 0, 10, 10, 0.5)], [], class_name="Car")
        assert report.zero_gt and report.ap == 0.0

    def test_final_recall_is_tp_over_gt(self):
        gts = [gt(0, 0, 50, 30), gt(200, 50, 400, 150)]
        dets = [det(0, 0, 50, 30, 0.9), det(500, 400, 600, 470, 0.8)]
        report = evaluate_detections(dets, gts, class_name="Car")
        assert report.pr_points[-1][0] == report.tp / report.total_gt


class TestFolds:
    def test_single(self):
        agg = aggregate_folds([0.8])
        assert (agg.mean, agg.minimum, agg.maximum, agg.stddev) == (0.8, 0.8, 0.8, 0.0)

    def test_pair(self):
        assert aggregate_folds([0.7, 0.9]).mean == pytest.approx(0.8, abs=1e-15)

    def test_six_fold_mean_matches_hand_sum(self):
        values = [0.71, 0.74, 0.69, 0.80, 0.77, 0.73]
        agg = aggregate_folds(values)
        assert agg.mean == pytest.approx(sum(values) / 6, abs=1e-12)
        assert agg.minimum == 0.69 and agg.maximum == 0.80
        assert agg.n_folds == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([0.5, 1.2])


class TestDetectionsCsv:
    def test_round_trip(self, tmp_path):
        dets = [det(0.5, 1.25, 10.75, 20.0, 0.875), det(3, 4, 5, 6, 0.25, image="z9")]
        path = tmp_path / "dets.csv"
        write_detections_csv(path, dets)
        again = read_detections_csv(path)
        assert sorted(again, key=Detection.sort_key) == sorted(dets, key=Detection.sort_key)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image,cls,a,b,c,d,e\n")
        with pytest.raises(ParseError, match="header"):
            read_detections_csv(path)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,class,x1,y1,x2,y2,score\ni0,Car,0,0,ten,10,0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            read_detections_csv(path)
