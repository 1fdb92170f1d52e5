"""Detection evaluation: NMS, matching, PR curves, AP, and fold aggregation.

Matching follows the greedy highest-score-first convention: a detection is a
true positive when its best-IoU unmatched ground-truth box clears the IoU
threshold (claiming that box), otherwise a false positive, except that
detections whose only sufficient overlap is with an ignore region (DontCare
ground truth, or out-of-bucket ground truth during scale-bucketed runs) are
dropped from the tally entirely.

Equal-score detections are ordered by content (image id, then coordinates),
never by input position, so shuffling the input cannot change any label.

One matching object, the list ``match_detections`` returns, holds the labels
and the arrays of every scope: detections are sorted once and their IoU with
each ground-truth box of their image is computed once (``iou_matrix``
arithmetic), keeping the pairs at or above the threshold. A width bucket only
changes which ground truth is ignored, so bucketed AP re-runs the greedy
assignment over those pairs alone; a fold masks the overall labels to its
images. One routine scores the labels of any scope: PR points, AP, TP, FP.

The default IoU threshold is 0.7 for the "Car" class and 0.5 otherwise;
both AP interpolation schemes ("all-point" area under the enveloped PR
curve and the legacy "11-point" average) are available.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import compress, groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .datasets import Annotation, check_edges, read_csv_rows, write_output
from .errors import ConfigError, ParseError
from .geometry import Box, boxes_to_array, iou, iou_matrix, paired_iou

__all__ = [
    "Detection",
    "EvalReport",
    "FoldAggregate",
    "TP",
    "FP",
    "IGNORED",
    "default_iou_threshold",
    "nms",
    "match_detections",
    "pr_curve",
    "average_precision",
    "scale_bucketed_ap",
    "evaluate_detections",
    "aggregate_folds",
    "read_detections_csv",
    "write_detections_csv",
]

TP = "tp"
FP = "fp"
IGNORED = "ignored"
_LABELS = (TP, FP, IGNORED)  # indexed by the label codes below
_TP, _FP, _IGNORED = range(3)
# Detections per batch when pairing them with ground truth, and IoU cells
# per block of the NMS overlap matrix: both bound the temporary arrays.
_PAIR_BATCH = 1024
_NMS_CELLS = 1 << 20

DETECTIONS_CSV_HEADER = ["image_id", "class", "x1", "y1", "x2", "y2", "score"]


@dataclass(frozen=True)
class Detection:
    """One scored detection."""

    image_id: str
    class_name: str
    box: Box
    score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")

    def sort_key(self):
        """Content-based ordering: score desc, then stable identity."""
        b = self.box
        return (-self.score, self.image_id, b.x1, b.y1, b.x2, b.y2, self.class_name)


def default_iou_threshold(class_name: str) -> float:
    return 0.7 if class_name == "Car" else 0.5


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression for one image and one class.

    Repeatedly keeps the highest-scoring remaining detection and discards
    every remaining one with IoU strictly above the threshold against it.
    Ties break by (score desc, input index asc); output is score-sorted.
    """
    if not 0 < iou_threshold < 1:
        raise ConfigError(f"NMS IoU threshold must lie in (0, 1), got {iou_threshold}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    boxes = boxes_to_array([dets[i].box for i in order])
    alive = np.ones(len(order), dtype=bool)
    rows = max(1, _NMS_CELLS // max(len(order), 1))  # rows of the overlap matrix held at once
    kept: list[Detection] = []
    for start in range(0, len(order), rows):
        suppresses = iou_matrix(boxes[start : start + rows], boxes) > iou_threshold
        for pos in range(start, min(start + rows, len(order))):
            if alive[pos]:
                kept.append(dets[order[pos]])
                alive &= ~suppresses[pos - start]
    return kept


class _Matching(list):
    """``match_detections`` output: ``(detection, label)`` in score order.

    It keeps the arrays that every scope scores from: the image code of each
    detection and ground-truth box, the DontCare flags, the ground-truth
    boxes and the label ``code`` of each detection. The candidates are the
    same-image (detection, ground truth) pairs with IoU at or above the
    threshold, as flat arrays ordered by detection, then ground-truth index.
    The threshold is above 0, so a detection can only claim, or be absorbed
    by, a candidate; a strict-``>`` scan of its untaken candidates in index
    order picks the box that a scan of all its image's boxes would.
    """

    def __init__(self, dets: list[Detection], gts: list[Annotation], iou_threshold: float,
                 ignore_mask: list[bool] | None = None):
        if not 0 < iou_threshold <= 1:
            raise ConfigError(f"matching IoU threshold must lie in (0, 1], got {iou_threshold}")
        if ignore_mask is not None and len(ignore_mask) != len(gts):
            raise ValueError("ignore_mask length must equal the number of ground-truth boxes")
        dets = sorted(dets, key=Detection.sort_key)
        ids: dict[str, int] = {}
        self.gt_image, self.det_image = (
            np.array([ids.setdefault(image, len(ids)) for image in column], dtype=np.intp)
            for column in ([g.source_image for g in gts], [d.image_id for d in dets]))
        self.images = list(ids)  # image id of each code
        self.dontcare = np.array([g.is_dontcare for g in gts], dtype=bool)
        by_image = np.argsort(self.gt_image, kind="stable")
        per_image = np.bincount(self.gt_image, minlength=len(ids))
        first = np.cumsum(per_image) - per_image  # of each image's run in by_image
        det_boxes = boxes_to_array([d.box for d in dets])
        self.gt_boxes = boxes_to_array([g.box for g in gts])
        parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        for lo in range(0, len(dets), _PAIR_BATCH):
            image = self.det_image[lo : lo + _PAIR_BATCH]
            n = per_image[image]
            det = np.repeat(np.arange(lo, lo + len(image)), n)
            gt = by_image[np.repeat(first[image] - (np.cumsum(n) - n), n) + np.arange(len(det))]
            value = paired_iou(det_boxes[det], self.gt_boxes[gt])
            keep = value >= iou_threshold
            parts.append((det[keep], gt[keep], value[keep]))
        self.det, self.gt, self.iou = (np.concatenate(column) for column in zip(*parts))
        # The scalar ``iou`` defines matching; a candidate whose vectorized IoU
        # differs from it in any bit would mean the arithmetic has drifted.
        if len(self.det) and iou(dets[self.det[0]].box, gts[self.gt[0]].box) != self.iou[0]:
            raise AssertionError("paired_iou disagrees with geometry.iou")
        ignore = self.dontcare if ignore_mask is None else np.array(ignore_mask, dtype=bool)
        self.code = self.labels(ignore)
        super().__init__(zip(dets, [_LABELS[c] for c in self.code.tolist()]))

    def labels(self, ignore: np.ndarray) -> np.ndarray:
        """Label codes, in score order, when the ground truth flagged in ``ignore`` is ignored."""
        absorbs = ignore[self.gt]
        fallback = np.full(len(self.det_image), _FP, dtype=np.int8)
        fallback[self.det[absorbs]] = _IGNORED
        code = fallback.copy()
        det, gt, value = self.det[~absorbs], self.gt[~absorbs], self.iou[~absorbs]
        code[det] = _TP
        # A box that is the candidate of one detection only is free on its
        # turn: only detections with a shared box need the greedy scan.
        shared = np.zeros(len(self.det_image), dtype=bool)
        shared[det[np.bincount(gt, minlength=len(self.gt_image))[gt] > 1]] = True
        pick = shared[det]
        taken: set[int] = set()
        pairs = zip(det[pick].tolist(), gt[pick].tolist(), value[pick].tolist())
        for d, candidates in groupby(pairs, key=itemgetter(0)):
            best_iou, best = 0.0, -1
            for _, g, v in candidates:
                if v > best_iou and g not in taken:
                    best_iou, best = v, g
            if best < 0:
                code[d] = fallback[d]
            else:
                taken.add(best)
        return code


def match_detections(
    dets: list[Detection],
    gts: list[Annotation],
    iou_threshold: float,
    ignore_mask: list[bool] | None = None,
) -> list[tuple[Detection, str]]:
    """Label every detection TP, FP, or IGNORED.

    Detections are processed in descending score order (sorted defensively
    by content). ``ignore_mask`` marks ground truth that can absorb
    detections without reward or penalty; it defaults to the DontCare flags.
    Ground truth and detections are paired within the same image only.
    """
    return _Matching(dets, gts, iou_threshold, ignore_mask)


def pr_curve(tp_flags: list[bool], total_gt: int) -> list[tuple[float, float]]:
    """(recall, precision) after each detection, ordered by ascending recall."""
    points: list[tuple[float, float]] = []
    tp = fp = 0
    for flag in tp_flags:
        if flag:
            tp += 1
        else:
            fp += 1
        recall = tp / total_gt if total_gt > 0 else 0.0
        points.append((recall, tp / (tp + fp)))
    return points


def average_precision(tp_flags: list[bool], total_gt: int, mode: str = "all-point") -> float:
    """AP of a score-ordered TP/FP sequence.

    "all-point" integrates the monotone precision envelope over recall;
    "11-point" averages the interpolated precision at recall 0, 0.1, .., 1.
    With ``total_gt == 0`` the AP is defined as 0 (callers flag the
    degenerate denominator).
    """
    return _ap_of_curve(pr_curve(tp_flags, total_gt), total_gt, mode)


def _ap_of_curve(points: list[tuple[float, float]], total_gt: int, mode: str) -> float:
    if mode not in ("all-point", "11-point"):
        raise ConfigError(f"unknown AP mode {mode!r}")
    if total_gt < 0:
        raise ValueError(f"total_gt must be >= 0, got {total_gt}")
    if total_gt == 0 or not points:
        return 0.0
    if mode == "11-point":
        total = 0.0
        for t in range(11):
            threshold = t / 10
            best = max((p for r, p in points if r >= threshold), default=0.0)
            total += best
        return total / 11

    recalls = [0.0] + [r for r, _ in points]
    precisions = [0.0] + [p for _, p in points]
    recalls.append(1.0)
    precisions.append(0.0)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    for i in range(1, len(recalls)):
        if recalls[i] != recalls[i - 1]:
            ap += (recalls[i] - recalls[i - 1]) * precisions[i]
    return ap


def _score(code: np.ndarray, total_gt: int, mode: str):
    """PR points, AP, TP and FP of score-ordered label codes; ignored ones are dropped."""
    flags = (code[code != _IGNORED] == _TP).tolist()
    points, tp = pr_curve(flags, total_gt), sum(flags)
    return points, _ap_of_curve(points, total_gt, mode), tp, len(flags) - tp


@dataclass(frozen=True)
class BucketAP:
    """Per-bucket result; ``ap`` is None when the bucket holds no ground truth."""

    bucket_lo: float
    bucket_hi: float
    ap: float | None
    tp: int
    fp: int
    total_gt: int


@dataclass(frozen=True)
class EvalReport:
    class_name: str
    iou_threshold: float
    mode: str
    pr_points: tuple[tuple[float, float], ...]
    ap: float
    per_bucket: tuple[BucketAP, ...]
    tp: int
    fp: int
    total_gt: int
    zero_gt: bool
    matches: tuple[tuple[Detection, str], ...]  # every detection with its label, in score order
    per_fold: tuple[tuple[str, EvalReport], ...] = ()  # (fold id, report), by fold id


def scale_bucketed_ap(
    dets: list[Detection],
    gts: list[Annotation],
    bucket_edges,
    iou_threshold: float,
    mode: str = "all-point",
) -> list[BucketAP]:
    """AP restricted to ground truth whose width falls in each bucket.

    Out-of-bucket ground truth turns into ignore regions so detections on it
    are neither rewarded nor penalized, keeping buckets independent. Buckets
    without ground truth report ``ap=None`` rather than 0.
    """
    return _bucket_aps(_Matching(dets, gts, iou_threshold), bucket_edges, mode)


def _bucket_aps(matching: _Matching, bucket_edges, mode: str) -> list[BucketAP]:
    edges = check_edges(bucket_edges)
    widths = matching.gt_boxes[:, 2] - matching.gt_boxes[:, 0]
    results: list[BucketAP] = []
    for lo, hi in zip(edges, edges[1:]):
        ignore = matching.dontcare | (widths < lo) | (widths >= hi)
        total_gt = len(ignore) - int(ignore.sum())
        if total_gt == 0:
            results.append(BucketAP(lo, hi, None, 0, 0, 0))
            continue
        ap, tp, fp = _score(matching.labels(ignore), total_gt, mode)[1:]
        results.append(BucketAP(lo, hi, ap, tp, fp, total_gt))
    return results


def evaluate_detections(
    dets: list[Detection],
    gts: list[Annotation],
    class_name: str = "Car",
    iou_threshold: float | None = None,
    mode: str = "all-point",
    bucket_edges=None,
    folds: dict[str, str] | None = None,
) -> EvalReport:
    """Full single-class evaluation: PR curve, AP, and optional bucket and fold APs.

    Detections and counted ground truth are restricted to ``class_name``;
    DontCare regions of any class stay in play as ignore regions. The
    buckets reuse the candidate pairs of the overall matching. ``folds``
    maps image ids to fold ids; matching is per image, so each fold's
    report, equal to this evaluation without buckets on the fold's images,
    masks the overall labels to the fold's detections and ground truth.
    """
    if iou_threshold is None:
        iou_threshold = default_iou_threshold(class_name)
    class_dets = [d for d in dets if d.class_name == class_name]
    class_gts = [g for g in gts if g.class_name == class_name or g.is_dontcare]
    matching = match_detections(class_dets, class_gts, iou_threshold)
    counted = ~matching.dontcare

    def report(det_mask, gt_mask, per_bucket=(), per_fold=()) -> EvalReport:
        total_gt = int(np.count_nonzero(gt_mask & counted))
        points, ap, tp, fp = _score(matching.code[det_mask], total_gt, mode)
        return EvalReport(class_name, iou_threshold, mode, tuple(points), ap, per_bucket, tp, fp,
                          total_gt, total_gt == 0, tuple(compress(matching, det_mask)), per_fold)

    per_bucket = () if bucket_edges is None else tuple(_bucket_aps(matching, bucket_edges, mode))
    per_fold = ()
    if folds:
        names = sorted(set(folds.values()))
        index = {name: k for k, name in enumerate(names)}
        fold = np.array([index[folds[image]] if image in folds else -1  # -1: in no fold
                         for image in matching.images], dtype=np.intp)
        det_fold, gt_fold = fold[matching.det_image], fold[matching.gt_image]
        per_fold = tuple((name, report(det_fold == k, gt_fold == k))
                         for k, name in enumerate(names))
    return report(np.ones(len(matching), bool), np.ones(len(counted), bool), per_bucket, per_fold)


@dataclass(frozen=True)
class FoldAggregate:
    mean: float
    minimum: float
    maximum: float
    stddev: float
    n_folds: int


def aggregate_folds(per_fold_ap: list[float]) -> FoldAggregate:
    """Arithmetic mean of per-fold APs plus min/max/stddev."""
    values = [float(v) for v in per_fold_ap]
    if not values:
        raise ValueError("need at least one fold AP")
    if any(not 0 <= v <= 1 for v in values):
        raise ValueError(f"fold APs must lie in [0, 1], got {values}")
    return FoldAggregate(
        mean=sum(values) / len(values),
        minimum=min(values),
        maximum=max(values),
        stddev=statistics.stdev(values) if len(values) > 1 else 0.0,
        n_folds=len(values),
    )


def write_detections_csv(path, dets: list[Detection]) -> None:
    """Write detections in canonical order (image asc, score desc, box)."""
    ordered = sorted(dets, key=lambda d: (d.image_id,) + d.sort_key())
    rows = ([d.image_id, d.class_name, *map(float, d.box.as_tuple()), float(d.score)]
            for d in ordered)
    write_output(path, rows, DETECTIONS_CSV_HEADER)


def read_detections_csv(path) -> list[Detection]:
    """Read a detections CSV (header image_id,class,x1,y1,x2,y2,score)."""
    dets: list[Detection] = []
    for lineno, row in read_csv_rows(path, DETECTIONS_CSV_HEADER):
        try:
            box = Box(float(row[2]), float(row[3]), float(row[4]), float(row[5]))
            dets.append(Detection(row[0], row[1], box, float(row[6])))
        except ValueError as exc:
            raise ParseError(f"{Path(path).name}: line {lineno}: {exc}") from None
    return dets
