import csv
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_bit_equal, kitti_label_line
from scaledet.anchors import AnchorConfig, coverage
from scaledet.cli import main
from scaledet.datasets import Annotation, as_label_table, load_dataset, read_csv_rows
from scaledet.errors import ConfigError, ParseError
from scaledet.evaluation import (
    DETECTIONS_CSV_HEADER,
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
    read_detection_table,
    read_detections_csv,
    scale_bucketed_ap,
    write_detections_csv,
)
from scaledet.evaluation import _LABELS as LABELS
from scaledet.evaluation import _detection_table, _order
from scaledet.geometry import Box, _iou_kernel, boxes_to_array, iou


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


def assert_sort_key_order(dets):
    """``_order`` is the ``sort_key`` order, and with ``by_image`` the order of
    ``(image_id,) + sort_key``; equal keys keep input order."""
    table = _detection_table(dets)
    for by_image, key in ((False, Detection.sort_key),
                          (True, lambda d: (d.image_id,) + d.sort_key())):
        want = sorted(range(len(dets)), key=lambda i: key(dets[i]))
        assert _order(table, by_image).tolist() == want


def random_dets(rng, n):
    """``n`` overlapping detections in one image, with scores rounded to force ties."""
    dets = []
    for _ in range(n):
        x1 = rng.uniform(0, 80)
        y1 = rng.uniform(0, 80)
        dets.append(det(x1, y1, x1 + rng.uniform(2, 40), y1 + rng.uniform(2, 40),
                        round(float(rng.random()), 2)))
    return dets


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
# One image of up to 150 detections: boxes on a coarse grid, so edges often
# coincide, a quarter of them scaled so far that two areas can sum past the
# float64 range, and coarse scores with -0.0 against 0.0.
_HUGE = 1.3 * 2.0**508


@st.composite
def crowds(draw):
    n = draw(st.integers(0, 150))
    return draw(st.lists(st.builds(
        Detection, st.just("i0"), st.just("Car"),
        st.one_of(boxes(), boxes(), boxes(),
                  boxes().map(lambda b: Box(*(c * _HUGE for c in dataclasses.astuple(b))))),
        st.sampled_from([1.0, 0.5, 0.25, 0.0, -0.0])), min_size=n, max_size=n))


# Ties, -0.0 against 0.0, and ids and classes that differ only by a trailing
# NUL (numpy strings would drop it).
def tie_prone_detections(scores, max_size):
    return st.lists(st.builds(
        Detection, st.sampled_from(["a", "a\x00", "b", ""]), st.sampled_from(["Car", "Car\x00"]),
        st.sampled_from([Box(0.0, 0, 1, 1), Box(-0.0, 0, 1, 1), Box(0, -0.0, 1, 1),
                         Box(0, 0, 2, 1)]),
        scores), max_size=max_size)


tied_detections = tie_prone_detections(st.sampled_from([0.5, 0.0, -0.0, 1]), 12)
# Longer lists whose scores mostly differ, with tied runs at both ends of the
# score order (1 first, 0 and -0.0 last).
rarely_tied_detections = tie_prone_detections(
    st.floats(0, 1) | st.sampled_from([1.0, 0.0, -0.0]), 40)


def annotations_on(image):
    return st.builds(lambda cls, box: Annotation(class_name=cls, box=box, source_image=image),
                     st.sampled_from(["Car", "Car", "DontCare", "Van"]), boxes())


def pr_curve_oracle(tp_flags, total_gt):
    """Reference PR points: one running TP/FP count per detection."""
    points = []
    tp = fp = 0
    for flag in tp_flags:
        if flag:
            tp += 1
        else:
            fp += 1
        recall = tp / total_gt if total_gt > 0 else 0.0
        points.append((recall, tp / (tp + fp)))
    return points


def ap_oracle(points, total_gt, mode):
    """Reference AP of PR points, summed left to right.

    The explicit ``+=`` loops fix the rounding the implementation must
    reproduce bit for bit (``sum`` of floats is compensated from Python 3.12).
    """
    if total_gt == 0 or not points:
        return 0.0
    if mode == "11-point":
        total = 0.0
        for t in range(11):
            total += max((p for r, p in points if r >= t / 10), default=0.0)
        return total / 11
    recalls = [0.0] + [r for r, _ in points] + [1.0]
    precisions = [0.0] + [p for _, p in points] + [0.0]
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    for i in range(1, len(recalls)):
        if recalls[i] != recalls[i - 1]:
            ap += (recalls[i] - recalls[i - 1]) * precisions[i]
    return ap


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

    def test_huge_duplicate_suppressed(self):
        # Each area is finite, but their sum is not: the pair's IoU is still 1.
        hi = det(-6.5e153, -6.5e153, 6.5e153, 6.5e153, 0.9)
        lo = det(-6.5e153, -6.5e153, 6.5e153, 6.5e153, 0.8)
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
            dets = random_dets(rng, int(rng.integers(0, 51)))
            threshold = float(rng.uniform(0.2, 0.8))
            assert nms(dets, threshold) == nms_oracle(dets, threshold)

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_blocks_carry_suppression(self, monkeypatch, cells):
        # More pairs than _NMS_CELLS: the sweep's pairs come in blocks, and the
        # walk takes the suppressing pairs in chunks; a detection suppressed in
        # one chunk stays suppressed in the next.
        monkeypatch.setattr("scaledet.evaluation._NMS_CELLS", cells)
        rng = np.random.default_rng(cells)
        for n in (*rng.integers(2, 141, 10).tolist(), *rng.integers(2, 33, 10).tolist(), 140):
            dets = random_dets(rng, n)
            threshold = float(rng.uniform(0.2, 0.8))
            assert nms(dets, threshold) == nms_oracle(dets, threshold)

    @pytest.mark.parametrize("cells", [1, 7, 64])
    @given(crowds())
    @settings(max_examples=40, deadline=None)
    # Abutting edges (IoU 0, no pair), shared near edges, identical boxes, and
    # -0.0 tied with 0.0.
    @example([det(0, 0, 4, 4, 0.5), det(4, 0, 8, 4, 0.5), det(0, 0, 2, 4, 0.0),
              det(0, 0, 4, 4, -0.0), det(0, 4, 4, 8, 1.0), det(0, 0, 4, 4, 0.0)])
    # Two areas sum past the float64 range: the kernel halves the pair.
    @example([det(0, 0, 12 * 2.0**508, 12 * 2.0**508, 0.25),
              det(2.0**508, 0, 13 * 2.0**508, 12 * 2.0**508, 0.5),
              det(0, 0, 12 * 2.0**508, 12 * 2.0**508, 1.0)])
    def test_crowd_equals_oracle(self, cells, dets):
        # Blocks of 1, 7 and 64 pairs split a box's run of pairs in the middle.
        with mock.patch("scaledet.evaluation._NMS_CELLS", cells):
            kept = nms(dets, 0.5)
        assert kept == nms_oracle(dets, 0.5)

    @pytest.mark.parametrize("swap", [False, True], ids=["x-crowd", "y-crowd"])
    def test_crowd_along_one_axis_sweeps_the_other(self, swap):
        # Every pair overlaps along one axis, and the boxes spread along the other.
        rng = np.random.default_rng(11)
        dets = []
        for _ in range(300):
            x1, y1 = rng.uniform(0, 10), rng.uniform(0, 3000)
            w, h = 100 + rng.uniform(0, 10), rng.uniform(10, 60)
            corners = (y1, x1, y1 + h, x1 + w) if swap else (x1, y1, x1 + w, y1 + h)
            dets.append(det(*corners, round(float(rng.random()), 2)))
        with mock.patch("scaledet.evaluation._iou_kernel", wraps=_iou_kernel) as kernel:
            kept = nms(dets, 0.5)
        assert kept == nms_oracle(dets, 0.5)
        assert len(kept) not in (1, len(dets))
        # Swept along the spread axis, under an eighth of the pairs get an IoU.
        assert sum(call.args[0].size for call in kernel.call_args_list) < 300 * 299 / 8

    def test_crowd_memory_is_one_block(self, monkeypatch):
        # Every box overlaps every other, and every pair suppresses: the sweep
        # holds one block of pairs at a time and the walk one chunk, beside the
        # int64 key of each suppressing pair (twice while the blocks are joined).
        # Expanding or walking all pairs at once holds ten 8-byte arrays over them.
        monkeypatch.setattr("scaledet.evaluation._NMS_CELLS", 256)
        rng = np.random.default_rng(3)
        dets = [det(x1, y1, x1 + 100, y1 + 100, float(rng.random()))
                for x1, y1 in rng.uniform(0, 5, (600, 2)).tolist()]
        pairs = 600 * 599 // 2
        tracemalloc.start()
        try:
            kept = nms(dets, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == nms_oracle(dets, 0.5) == [max(dets, key=lambda d: d.score)]
        assert peak < 3 * 8 * pairs

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

    @pytest.mark.parametrize("threshold", [0.0, 1.5])
    def test_threshold_out_of_range_rejected(self, threshold):
        with pytest.raises(ConfigError) as info:
            match_detections([det(0, 0, 10, 10, 0.9)], [gt(0, 0, 10, 10)], threshold)
        assert str(info.value) == f"matching IoU threshold must lie in (0, 1], got {threshold}"

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


def _cells(*values):
    """CSV cells as the writer formats them: a number as its repr, None as empty."""
    return ["" if v is None else repr(v) for v in values]


class TestMatchingKernel:
    """The candidate-pair kernel against the step-by-step oracle."""

    @given(detections, ground_truth, THRESHOLDS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_match_equals_oracle(self, dets, gts, threshold, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(gts), max_size=len(gts)))
        got = match_detections(dets, gts, threshold)
        assert list(got) == matching_oracle(dets, gts, threshold)
        relabeled = [LABELS[c] for c in got.labels(np.array(mask, dtype=bool))]
        want = matching_oracle(dets, gts, threshold, ignore_mask=mask)
        assert relabeled == [label for _, label in want]

    @given(detections, ground_truth, THRESHOLDS,
           st.sampled_from([(0, math.inf), (0, 5, 10, math.inf), (0, 8, 10.5), (3, 6, 9)]))
    @settings(max_examples=200, deadline=None)
    def test_buckets_equal_rematching_each_bucket(self, dets, gts, threshold, edges):
        want = []
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            # Widths below the first edge, or at or past the last, fall into the end buckets.
            first, last = i == 0, i == len(edges) - 2
            ignore = [g.is_dontcare or not (lo <= g.box.width < hi or first and g.box.width < lo
                                             or last and g.box.width >= hi) for g in gts]
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
        class_dets = [d for d in dets if d.class_name == cls]
        class_gts = [g for g in gts if g.class_name == cls or g.is_dontcare]
        assert [d for d, _ in match_detections(class_dets, class_gts, threshold)] == sorted(
            class_dets, key=Detection.sort_key
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

    @given(tied_detections)
    @settings(max_examples=300, deadline=None)
    def test_score_order_is_sort_key_order(self, dets):
        # Equal keys keep input order.
        got = [d for d, _ in match_detections(dets, [], 0.5)]
        assert [id(d) for d in got] == [id(d) for d in sorted(dets, key=Detection.sort_key)]

    @given(tied_detections)
    @settings(max_examples=300, deadline=None)
    def test_order_is_sort_key_order(self, dets):
        # With and without the leading image id; equal keys keep input order.
        assert_sort_key_order(dets)

    @given(rarely_tied_detections)
    @example([])
    @example([det(0, 0, 1, 1, 0.5)])
    @example([det(0, 0, 1, 1, k / 8, image="ab"[k % 2]) for k in range(8)])  # no ties
    @example([det(k % 3, 0, 4, 1, 0.5, image="ba"[k % 2], cls=("Car", "Van")[k % 3 == 1])
              for k in range(9)])  # every score ties
    @settings(max_examples=300, deadline=None)
    def test_order_with_rare_ties_is_sort_key_order(self, dets):
        # Only the tied runs are re-sorted past the score, the first and last runs included.
        assert_sort_key_order(dets)

    @given(detections, *(st.lists(annotations_on(image), min_size=1, max_size=4)
                         for image in ("a", "b", "a")), THRESHOLDS)
    @settings(max_examples=200, deadline=None)
    def test_interleaved_images_equal_oracle(self, dets, first, middle, last, threshold):
        # The rows of image "a" come in two runs: they are still one image.
        gts = first + middle + last
        assert list(match_detections(dets, gts, threshold)) == matching_oracle(dets, gts, threshold)

    @given(detections, ground_truth, THRESHOLDS, st.sampled_from(["all-point", "11-point"]),
           st.sampled_from(["Car", "Van"]), st.lists(st.sampled_from(["f0", "f1"]), min_size=3,
                                                   max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_cli_artifacts_equal_object_evaluation(self, tmp_path_factory, dets, gts, threshold,
                                                   mode, cls, folds):
        root = tmp_path_factory.mktemp("eval")
        (root / "labels").mkdir()
        for image in GT_IMAGES + ["e"]:  # "e": a label file with no objects
            lines = [kitti_label_line(g) for g in gts if g.source_image == image]
            (root / "labels" / f"{image}.txt").write_text("\n".join(lines))
        write_detections_csv(root / "dets.csv", dets)
        fold_of = dict(zip(DET_IMAGES, folds))
        (root / "folds.csv").write_text(
            "image_id,fold_id\n" + "".join(f"{i},{f}\n" for i, f in fold_of.items()))
        edges = (0, 5, 10.5, math.inf)
        assert main(["eval", str(root / "labels"), str(root / "dets.csv"), "--class", cls,
                     "--iou", repr(threshold), "--mode", mode, "--buckets", "0,5,10.5,inf",
                     "--folds", str(root / "folds.csv"), "--out", str(root / "out")]) == 0
        images, _ = load_dataset(root / "labels", "kitti")
        want = evaluate_detections(read_detections_csv(root / "dets.csv"),
                                   [a for image in images for a in image.annotations],
                                   cls, threshold, mode, edges, fold_of)
        out = {name: list(read_csv_rows(root / "out" / name, header))
               for name, header in (("pr.csv", ("recall", "precision")),
                                    ("ap.csv", ("scope", "bucket_lo", "bucket_hi", "ap", "tp",
                                                "fp", "total_gt")),
                                    ("folds.csv", ("fold_id", "ap", "tp", "fp", "total_gt",
                                                   "images")))}
        assert [row for _, row in out["pr.csv"]] == [_cells(r, p) for r, p in want.pr_points]
        assert [row[3:] for _, row in out["ap.csv"]] == [
            _cells(r.ap, r.tp, r.fp, r.total_gt) for r in (want, *want.per_bucket)]
        assert [row[:5] for _, row in out["folds.csv"]][:-1] == [
            [fold, *_cells(r.ap, r.tp, r.fp, r.total_gt)] for fold, r in want.per_fold]

    @given(detections, st.sampled_from([0.25, 1 / 3, 0.5, 0.7]))
    @settings(max_examples=200, deadline=None)
    # Integer scores past 2^53 that round to one float: the exact larger one leads.
    @example([det(0, 0, 10, 10, 2**53), det(0, 0, 10, 9, 2**53 + 1)], 0.5)
    # -0.0 ties 0.0, so the first in input order leads.
    @example([det(0, 0, 10, 9, -0.0), det(0, 0, 10, 10, 0.0)], 0.5)
    @example([det(0, 0, 10, 10, 0.0), det(0, 0, 10, 9, -0.0)], 0.5)
    # Identical boxes: IoU exactly 1.0.
    @example([det(2, 2, 6, 6, 0.25), det(2, 2, 6, 6, 0.75), det(2, 2, 6, 6, 0.5)], 0.7)
    # A suppresses B, B overlaps C above the threshold (IoU 7/13 each), yet C survives:
    # B is dead, and IoU(A, C) is 1/4.
    @example([det(0, 6, 10, 16, 0.25), det(0, 0, 10, 10, 0.75), det(0, 3, 10, 13, 0.5)], 0.5)
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
        assert (report.ap, report.tp, report.fp, report.pr_points) == (0.0, 0, 0, ())
        assert match_detections([], [gt(0, 0, 10, 10)], 0.7) == []


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

    @given(st.lists(st.booleans(), max_size=40), st.integers(0, 45),
           st.sampled_from(["all-point", "11-point"]))
    @example([], 0, "all-point")
    @example([], 3, "11-point")
    @example([True, False], 0, "11-point")
    @example([True, True, False, True], 2, "all-point")  # more TPs than ground truth
    @settings(max_examples=400, deadline=None)
    def test_equals_loop_oracle_bit_for_bit(self, flags, total_gt, mode):
        # total_gt ranges over 0 and below the TP count as well as above it.
        points = pr_curve_oracle(flags, total_gt)
        assert pr_curve(flags, total_gt) == points
        assert average_precision(flags, total_gt, mode) == ap_oracle(points, total_gt, mode)

    def test_negative_total_gt_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([True], -1)
        with pytest.raises(ValueError):
            average_precision([True], -1)


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

    @pytest.mark.parametrize("gts", [[], [gt(0, 0, 40, 20)]])
    def test_bad_mode_rejected_before_matching(self, gts):
        dets = [det(0, 0, 40, 20, 0.9)]
        with pytest.raises(ConfigError, match="unknown AP mode 'coco'"):
            scale_bucketed_ap(dets, gts, (0, 64, 128), 0.5, mode="coco")
        with pytest.raises(ConfigError, match="unknown AP mode 'coco'"):
            evaluate_detections(dets, gts, mode="coco", iou_threshold=2.0)

    def test_empty_bucket_undefined(self):
        gts = [gt(0, 0, 40, 20)]
        buckets = scale_bucketed_ap([], gts, (0, 128, math.inf), 0.5)
        assert buckets[0].ap == 0.0
        assert buckets[1].ap is None and buckets[1].total_gt == 0


    @given(detections,
           st.lists(st.builds(lambda cls, x1, y1, w, h, image: Annotation(
                                  cls, Box(x1, y1, x1 + w, y1 + h), image),
                              st.sampled_from(["Car", "Car", "DontCare", "Van"]),
                              st.floats(-100, 100), st.floats(-100, 100),
                              st.floats(1e-3, 1e4), st.floats(1e-3, 1e4),
                              st.sampled_from(GT_IMAGES)), max_size=10),
           st.lists(st.floats(-5, 300) | st.sampled_from([-math.inf, 0.0, math.inf]),
                    min_size=2, max_size=5, unique=True).map(sorted))
    @example([], [gt(0, 0, 5, 5), gt(0, 0, 60, 30)], [10.0, 20.0, math.inf])
    @settings(max_examples=150, deadline=None)
    def test_bucket_totals_equal_coverage(self, dets, gts, edges):
        # One bucket rule: eval and coverage put each counted box in the same
        # bucket, and neither drops a width outside the edges.
        labels = as_label_table(gts)
        report = evaluate_detections(_detection_table(dets), labels, "Car", 0.5,
                                     bucket_edges=edges)
        rows = coverage(AnchorConfig(scales=(32.0,), ratios=(1.0,)), labels, thresholds=(0.5,),
                        buckets=edges, class_filter="Car").rows
        assert [b.total_gt for b in report.per_bucket] == [r.total for r in rows[1:]]
        assert sum(r.total for r in rows[1:]) == rows[0].total == report.total_gt


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

    def test_other_classes_invisible(self):
        gts = [gt(0, 0, 50, 30), gt(60, 0, 110, 30, cls="Pedestrian")]
        dets = [det(0, 0, 50, 30, 0.9), det(60, 0, 110, 30, 0.8, cls="Pedestrian")]
        report = evaluate_detections(dets, gts, class_name="Car")
        assert report.total_gt == 1
        assert (report.tp, report.fp) == (1, 0)

    def test_zero_gt_flagged(self):
        report = evaluate_detections([det(0, 0, 10, 10, 0.5)], [], class_name="Car")
        assert report.total_gt == 0 and report.ap == 0.0

    def test_final_recall_is_tp_over_gt(self):
        gts = [gt(0, 0, 50, 30), gt(200, 50, 400, 150)]
        dets = [det(0, 0, 50, 30, 0.9), det(500, 400, 600, 470, 0.8)]
        report = evaluate_detections(dets, gts, class_name="Car")
        assert report.pr_points[-1][0] == report.tp / report.total_gt

    @given(detections, ground_truth, st.sampled_from(["Car", "Van"]), THRESHOLDS,
           st.sampled_from(["all-point", "11-point"]),
           st.none() | st.lists(st.sampled_from([0.0, 3.0, 6.0, 10.0, math.inf]), min_size=2,
                                max_size=4, unique=True).map(sorted),
           st.none() | st.dictionaries(st.sampled_from(DET_IMAGES + ["d"]),
                                       st.sampled_from(["f0", "f1"])))
    @settings(max_examples=150, deadline=None)
    def test_tables_and_objects_give_one_report(self, dets, gts, class_name, threshold, mode,
                                                edges, folds):
        # One evaluation: a DetectionTable or a Detection list, with a LabelTable
        # or an Annotation list, in all four pairings. Detection image "c" has
        # no labels, and the folds may name images in neither.
        forms = [(d, g) for d in (dets, _detection_table(dets)) for g in (gts, as_label_table(gts))]
        reports = [evaluate_detections(d, g, class_name, threshold, mode, edges, folds)
                   for d, g in forms]
        for report in reports[1:]:
            for field in ("iou_threshold", "pr_points", "ap", "tp", "fp", "total_gt",
                          "per_bucket", "per_fold"):
                assert getattr(report, field) == getattr(reports[0], field), field


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([0.5, 1.2])


def per_row_reader(path):
    """Reference detections reader: one Detection per row, in file order."""
    dets = []
    for lineno, row in read_csv_rows(path, DETECTIONS_CSV_HEADER):
        try:
            box = Box(float(row[2]), float(row[3]), float(row[4]), float(row[5]))
            dets.append(Detection(row[0], row[1], box, float(row[6])))
        except ValueError as exc:
            raise ParseError(f"{path.name}: line {lineno}: {exc}") from None
    return dets


@st.composite
def detection_row(draw):
    """A detections CSV row, mostly good: FIELD_FAULTS in its values, or too few columns."""
    fields = ["a", "Car", "0", "0", "10", "10", "0.5"]
    fields[0] = draw(st.sampled_from(["a", "a\x00", '"b,c"', "d", '"e\nf"', '"g""h"', "i\rj",
                                      *LONG_IDS]))
    for _ in range(draw(st.integers(0, 2))):
        fields[draw(st.integers(2, 6))] = draw(st.sampled_from(FIELD_FAULTS))
    if draw(st.integers(0, 9)) == 0:
        fields = fields[: draw(st.integers(1, 6))]
    return ",".join(fields)


HEADER = ",".join(DETECTIONS_CSV_HEADER)
# Image ids at csv's field size limit and one past it (a parse error).
LONG_IDS = ["i" * csv.field_size_limit(), "i" * (csv.field_size_limit() + 1)]
# Values that make a detections row fail each check of Detection and Box, or
# that only Python's float reads ("1_0"), plus -0.0 and large finite values.
FIELD_FAULTS = ["x", "nan", "inf", "-0.0", "1_0", "1e308", "-1e308", "5", "20", ""]


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

    def test_crlf_file_takes_one_split(self, tmp_path):
        # \r\n line ends read as \n ones; only a lone \r sends the file to csv.
        rows = ["a,Car,0,0,10,10,0.5", "", "b,Van,1.5,2,3,4,0.25"]
        tables, csv_reads = {}, {}
        for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(newline.join([HEADER, *rows, ""]).encode())
            with mock.patch("scaledet.evaluation.read_csv_rows", wraps=read_csv_rows) as reader:
                tables[name] = read_detection_table(path)
            csv_reads[name] = reader.call_count
        assert csv_reads == {"lf": 0, "crlf": 0, "cr": 1}
        for name in ("crlf", "cr"):
            assert tables[name][:2] == tables["lf"][:2] == (["a", "b"], ["Car", "Van"])
            assert_bit_equal(tables[name].boxes, tables["lf"].boxes)
            assert_bit_equal(tables[name].scores, tables["lf"].scores)

    def test_quoted_file_with_a_faulty_row_takes_one_csv_read(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(f'{HEADER}\n"a",Car,0,0,10,10,0.5\n"b",Car,0,0,10,10,nan\n')
        with mock.patch("scaledet.evaluation.read_csv_rows", wraps=read_csv_rows) as reader:
            with pytest.raises(ParseError, match="quoted.csv: line 3: detection score"):
                read_detection_table(path)
        assert reader.call_count == 1

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,class,x1,y1,x2,y2,score\ni0,Car,0,0,ten,10,0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            read_detections_csv(path)

    # Text that the one-split path reads, and text that only csv reads: \r
    # line ends, quoted fields, a blank line before the header, a BOM.
    @given(st.lists(st.one_of(st.just(""), detection_row()), max_size=6),
           st.sampled_from([HEADER, "image_id,class"]),
           st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", "\ufeff", "\n"]),
           st.booleans())
    @example([], HEADER, "\n", "", False)
    @example(["a,Car,0,0,10,10,0.5", ""], HEADER, "\r\n", "", True)
    @example(['"g""h",Car,0,0,10,10,0.5'], HEADER, "\n", "\ufeff", True)
    @example(["i\rj,Car,0,0,10,10,0.5"], HEADER, "\n", "", True)
    @example([LONG_IDS[1] + ",Car,0,0,10,10,0.5"], HEADER, "\n", "", True)
    @example(["a,Car,0,0,10,10", "0.5,a,Car,0,0,10,10,0.5"], HEADER, "\n", "", True)
    @settings(max_examples=400, deadline=None)
    def test_table_equals_per_row_reader(self, tmp_path_factory, rows, header, newline, before,
                                         last_newline):
        root = tmp_path_factory.mktemp("dets")
        path = root / "dets.csv"
        text = before + newline.join([header, *rows]) + (newline if last_newline else "")
        path.write_bytes(text.encode("utf-8"))
        try:
            want = per_row_reader(path)
        except ParseError as exc:
            for read in (read_detection_table, read_detections_csv):
                with pytest.raises(ParseError) as info:
                    read(path)
                assert str(info.value) == str(exc)
            (root / "labels").mkdir()
            (root / "labels" / "a.txt").write_text(kitti_label_line(gt(0, 0, 10, 10, "a")))
            assert main(["eval", str(root / "labels"), str(path), "--out", str(root / "o")]) == 2
            return
        table = read_detection_table(path)
        assert read_detections_csv(path) == want
        assert table.image_ids == [d.image_id for d in want]
        assert table.classes == [d.class_name for d in want]
        assert table.boxes.tobytes() == boxes_to_array([d.box for d in want]).tobytes()
        assert table.scores.tobytes() == np.array([d.score for d in want], dtype=float).tobytes()
