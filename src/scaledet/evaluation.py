"""Detection evaluation: NMS, matching, PR curves, AP, and fold aggregation.

Matching follows the greedy highest-score-first convention: a detection is a
true positive when its best-IoU unmatched ground-truth box clears the IoU
threshold (claiming that box), otherwise a false positive, except that
detections whose only sufficient overlap is with an ignore region (DontCare
ground truth, or out-of-bucket ground truth during scale-bucketed runs) are
dropped from the tally entirely.

Equal-score detections are ordered by content (image id, then coordinates),
never by input position, so shuffling the input cannot change any label.

One matching object, built from two tables (the detections, and the
``LabelTable`` of the ground truth in play, whose DontCare rows are the
ignore regions), holds the labels and the arrays of every scope. Detections
are sorted once by ``_order`` (shared with ``simulate``: a sort by score,
then a re-sort of each run of tied scores), and their IoU with each
ground-truth box of their image is computed once (``geometry.paired_iou``),
keeping the pairs at or above the threshold. A width bucket only changes
which ground truth is ignored, so bucketed AP re-runs the greedy assignment
over those pairs alone; a fold masks the overall labels to its images. One
routine scores the labels of any scope: PR points, AP, TP, FP.

One entry, ``evaluate_detections``, scores a ``DetectionTable`` or a
``Detection`` list against a ``LabelTable`` or anything ``as_label_table``
takes. ``scaledet eval`` runs it on columns end to end, on the tables of its
labels and of ``read_detection_table``. ``read_detections_csv`` and
``match_detections`` are the object edge over the same core: they turn
``Detection`` lists into columns, ``Annotation`` lists into a ``LabelTable``
by ``as_label_table``, or columns into objects.

The default IoU threshold is 0.7 for the "Car" class and 0.5 otherwise;
both AP interpolation schemes ("all-point" area under the enveloped PR
curve and the legacy "11-point" average) are available.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from itertools import groupby, starmap
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datasets import (DONTCARE_CLASS, Annotation, LabelTable, as_label_table, bin_index,
                       check_edges, read_csv_rows, read_input, write_output)
from .errors import ConfigError, ParseError
from .geometry import (Box, Record, boxes_to_array, iou, iou_matrix, paired_iou, record,
                       valid_boxes)

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
    "DetectionTable",
    "read_detection_table",
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


@record
class Detection(Record):
    """One scored detection."""

    image_id: str
    class_name: str
    box: Box
    score: float

    def __init__(self, image_id: str, class_name: str, box: Box, score: float) -> None:
        if not (isinstance(image_id, str) and isinstance(class_name, str)):
            name, value = (("class_name", class_name) if isinstance(image_id, str)
                           else ("image_id", image_id))
            raise TypeError(f"detection {name} must be a str, got {value!r}")
        if not isinstance(box, Box):
            raise TypeError(f"detection box must be a Box, got {box!r}")
        try:
            finite = math.isfinite(score)
        except TypeError:
            raise TypeError(f"detection score must be a real number, got {score!r}") from None
        if not finite:
            raise ValueError(f"detection score must be finite, got {score}")
        set_image_id, set_class_name, set_box, set_score = self._setters
        set_image_id(self, image_id)
        set_class_name(self, class_name)
        set_box(self, box)
        set_score(self, score)

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
    scores = [d.score for d in dets]
    # A stable reverse sort compares scores exactly: the order of (-score, index).
    order = sorted(range(len(dets)), key=scores.__getitem__, reverse=True)
    boxes = boxes_to_array([dets[i].box for i in order])
    alive = [True] * len(order)
    rows = max(1, _NMS_CELLS // max(len(order), 1))  # rows of the overlap matrix held at once
    for start in range(0, len(order), rows):
        # Pairs above the threshold in row order: rows before i are settled when i comes up.
        over = np.nonzero(iou_matrix(boxes[start : start + rows], boxes) > iou_threshold)
        for i, j in zip((over[0] + start).tolist(), over[1].tolist()):
            if i < j and alive[i]:
                alive[j] = False
    return [dets[i] for i, keep in zip(order, alive) if keep]


class DetectionTable(NamedTuple):
    """Detections as columns, one row per detection."""

    image_ids: list[str]
    classes: list[str]
    boxes: np.ndarray  # float64 [n, 4]: x1, y1, x2, y2
    scores: np.ndarray  # float64


def _order(t: DetectionTable, by_image: bool = False) -> np.ndarray:
    """The rows of ``t`` in ``Detection.sort_key`` order, or with ``by_image`` in
    ``(image_id,) + sort_key`` order. Rows are sorted by score (after the image
    with ``by_image``), then each run of rows tied on that is re-sorted by the
    rest of the key. ``lexsort`` is stable, and ties -0.0 with 0.0 as Python does."""
    def rank(values: list[str]) -> np.ndarray:  # in Python's order: numpy strings drop NULs
        code = {value: k for k, value in enumerate(sorted(set(values)))}
        return np.array([code[value] for value in values], dtype=np.intp)

    lead = (-t.scores, rank(t.image_ids)) if by_image else (-t.scores,)
    order = np.lexsort(lead)
    same = np.logical_and.reduce([k[1:] == k[:-1] for k in (key[order] for key in lead)])
    if not same.any():  # no ties: the common case
        return order
    tied = np.flatnonzero(np.r_[False, same] | np.r_[same, False])
    run = np.cumsum(~np.r_[False, same][tied])  # of each tied position
    rows = order[tied]
    image, cls = (rank([column[i] for i in rows.tolist()]) for column in (t.image_ids, t.classes))
    order[tied] = rows[np.lexsort((cls, *t.boxes[rows].T[::-1], image, run))]
    return order


def _detection_table(dets: list[Detection]) -> DetectionTable:
    """Detection objects as columns."""
    return DetectionTable([d.image_id for d in dets], [d.class_name for d in dets],
                          boxes_to_array([d.box for d in dets]),
                          np.array([d.score for d in dets], dtype=np.float64))


def _detections(t: DetectionTable) -> list[Detection]:
    """The rows of ``t`` as Detection objects; a list per column, not per row,
    keeps the temporaries small."""
    return list(map(Detection, t.image_ids, t.classes, starmap(Box, zip(*t.boxes.T.tolist())),
                    t.scores.tolist()))


class _Matching(list):
    """One matching of two tables; ``match_detections`` fills the list with ``(detection, label)``.

    It keeps the arrays that every scope scores from: the image code of each
    detection and ground-truth box, the DontCare flags, the ground-truth
    boxes, and the input row (``order``) and label ``code`` of each detection
    in score order. The candidates are the same-image (detection, ground
    truth) pairs with IoU at or above the threshold, as flat arrays ordered
    by detection, then ground-truth index. The threshold is above 0, so a
    detection can only claim, or be absorbed by, a candidate; a strict-``>``
    scan of its untaken candidates in index order picks the box that a scan
    of all its image's boxes would.
    """

    def __init__(self, dets: DetectionTable, gts: LabelTable, iou_threshold: float):
        """``gts`` holds the ground truth in play; its DontCare rows are ignore regions."""
        _check_iou(iou_threshold)
        ids: dict[str, int] = {}
        gt_code, det_code = (np.array([ids.setdefault(image, len(ids)) for image in column],
                                      dtype=np.intp) for column in (gts.image_ids, dets.image_ids))
        self.images = list(ids)  # image id of each code
        self.order = _order(dets)
        self.gt_image, self.det_image = gt_code[gts.image], det_code[self.order]
        self.dontcare = np.array([c == DONTCARE_CLASS for c in gts.classes], dtype=bool)
        by_image = np.argsort(self.gt_image, kind="stable")
        per_image = np.bincount(self.gt_image, minlength=len(ids))
        first = np.cumsum(per_image) - per_image  # of each image's run in by_image
        det_boxes, self.gt_boxes = dets.boxes[self.order], gts.boxes
        parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        for lo in range(0, len(self.det_image), _PAIR_BATCH):
            image = self.det_image[lo : lo + _PAIR_BATCH]
            n = per_image[image]
            det = np.repeat(np.arange(lo, lo + len(image)), n)
            gt = by_image[np.repeat(first[image] - (np.cumsum(n) - n), n) + np.arange(len(det))]
            value = paired_iou(det_boxes[det], gts.boxes[gt])
            keep = value >= iou_threshold
            parts.append((det[keep], gt[keep], value[keep]))
        self.det, self.gt, self.iou = (np.concatenate(column) for column in zip(*parts))
        # The scalar ``iou`` defines matching; a candidate whose vectorized IoU
        # differs from it in any bit would mean the arithmetic has drifted.
        if len(self.det) and iou(Box(*det_boxes[self.det[0]].tolist()),
                                 Box(*gts.boxes[self.gt[0]].tolist())) != self.iou[0]:
            raise AssertionError("paired_iou disagrees with geometry.iou")
        self.code = self.labels(self.dontcare)

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


def _check_iou(iou_threshold: float) -> None:
    if not 0 < iou_threshold <= 1:
        raise ConfigError(f"matching IoU threshold must lie in (0, 1], got {iou_threshold}")


def match_detections(
    dets: list[Detection], gts: list[Annotation], iou_threshold: float
) -> list[tuple[Detection, str]]:
    """Label every detection TP, FP, or IGNORED.

    Detections are processed in descending score order (sorted defensively
    by content). DontCare ground truth absorbs detections without reward or
    penalty; the returned matching's ``labels`` relabels against any other
    ignore set. Ground truth and detections are paired within the same
    image only.
    """
    matching = _Matching(_detection_table(dets), as_label_table(gts), iou_threshold)
    matching.extend(zip([dets[i] for i in matching.order.tolist()],
                        [_LABELS[c] for c in matching.code.tolist()]))
    return matching


def pr_curve(tp_flags: list[bool], total_gt: int) -> list[tuple[float, float]]:
    """(recall, precision) after each detection, ordered by ascending recall."""
    recall, precision = _score(np.where(tp_flags, _TP, _FP), total_gt, "all-point")[:2]
    return list(zip(recall.tolist(), precision.tolist()))


def average_precision(tp_flags: list[bool], total_gt: int, mode: str = "all-point") -> float:
    """AP of a score-ordered TP/FP sequence.

    "all-point" integrates the monotone precision envelope over recall;
    "11-point" averages the interpolated precision at recall 0, 0.1, .., 1.
    With ``total_gt == 0`` the AP is defined as 0 (callers flag the
    degenerate denominator).
    """
    _check_mode(mode)
    return _score(np.where(tp_flags, _TP, _FP), total_gt, mode)[2]


def _check_mode(mode: str) -> None:
    if mode not in ("all-point", "11-point"):
        raise ConfigError(f"unknown AP mode {mode!r}")


def _score(code: np.ndarray, total_gt: int, mode: str):
    """Recall and precision arrays, AP, TP and FP of score-ordered codes; ignored ones drop.

    Recall and precision come from one running TP count. The precision
    envelope is a right-to-left running max over the points framed by
    (0, 0) and (1, 0). The AP sums are running (``cumsum``) sums, left to
    right, so they round as a plain loop does.
    """
    if total_gt < 0:
        raise ValueError(f"total_gt must be >= 0, got {total_gt}")
    running_tp = np.cumsum(code[code != _IGNORED] == _TP)
    n = len(running_tp)
    recall = running_tp / total_gt if total_gt > 0 else np.zeros(n)
    precision = running_tp / np.arange(1, n + 1)
    tp = int(running_tp[-1]) if n else 0
    if total_gt == 0 or n == 0:
        return recall, precision, 0.0, tp, n - tp
    envelope = np.maximum.accumulate(np.concatenate((precision, [0.0]))[::-1])[::-1]
    if mode == "11-point":
        terms = envelope[np.searchsorted(recall, np.arange(11) / 10)]
        return recall, precision, float(np.cumsum(terms)[-1]) / 11, tp, n - tp
    steps = np.diff(np.concatenate(([0.0], recall, [1.0])))
    return recall, precision, float(np.cumsum(steps * envelope)[-1]), tp, n - tp


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
    """What one class's evaluation found, at ``iou_threshold`` (the class default when the
    caller gave None); the class and AP mode are the caller's own arguments."""

    iou_threshold: float
    pr_points: tuple[tuple[float, float], ...]
    ap: float
    per_bucket: tuple[BucketAP, ...]
    tp: int
    fp: int
    total_gt: int  # 0 makes the AP 0 by definition
    per_fold: tuple[tuple[str, EvalReport], ...] = ()  # (fold id, report), by fold id


def scale_bucketed_ap(
    dets: list[Detection],
    gts: list[Annotation],
    bucket_edges,
    iou_threshold: float,
    mode: str = "all-point",
) -> list[BucketAP]:
    """AP restricted to ground truth whose width falls in each bucket.

    Widths are binned by ``datasets.bin_index``, as in ``coverage``: those
    outside the edges fall into the end buckets, so the buckets' ``total_gt``
    add up to the overall count for any edges.
    Out-of-bucket ground truth turns into ignore regions so detections on it
    are neither rewarded nor penalized, keeping buckets independent. Buckets
    without ground truth report ``ap=None`` rather than 0.
    """
    _check_mode(mode)
    return _bucket_aps(match_detections(dets, gts, iou_threshold), bucket_edges, mode)


def _bucket_aps(matching: _Matching, bucket_edges, mode: str) -> list[BucketAP]:
    """The AP of each width bucket's ground truth (by ``bin_index``), all other boxes ignored."""
    edges = check_edges(bucket_edges)
    bucket = bin_index(matching.gt_boxes[:, 2] - matching.gt_boxes[:, 0], edges)
    results: list[BucketAP] = []
    for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
        ignore = matching.dontcare | (bucket != b)
        total_gt = len(ignore) - int(ignore.sum())
        ap, tp, fp = (_score(matching.labels(ignore), total_gt, mode)[2:] if total_gt
                      else (None, 0, 0))
        results.append(BucketAP(lo, hi, ap, tp, fp, total_gt))
    return results


def evaluate_detections(dets, gts, class_name: str = "Car", iou_threshold: float | None = None,
                        mode: str = "all-point", bucket_edges=None,
                        folds: dict[str, str] | None = None) -> EvalReport:
    """Full single-class evaluation: PR curve, AP, and optional bucket and fold APs.

    ``dets`` is a DetectionTable or a Detection list; ``gts`` is a LabelTable
    or anything ``as_label_table`` takes. Every form gives the same report.
    Detections and counted ground truth are restricted to ``class_name``;
    DontCare regions of any class stay in play as ignore regions. The
    buckets reuse the candidate pairs of the overall matching. ``folds``
    maps image ids to fold ids; matching is per image, so each fold's
    report, equal to this evaluation without buckets on the fold's images,
    masks the overall labels to the fold's detections and ground truth.
    """
    _check_mode(mode)
    iou_threshold = default_iou_threshold(class_name) if iou_threshold is None else iou_threshold
    if (not isinstance(dets, DetectionTable) and isinstance(gts, list)
            and all(isinstance(g, Annotation) for g in gts)):
        # Objects go through match_detections, called positionally: scalebench's
        # tracer counts det-gt pairs from its first two arguments, and its test
        # pins this path until the tracer wraps the table functions.
        class_dets = [d for d in dets if d.class_name == class_name]
        class_gts = [g for g in gts if g.class_name == class_name or g.is_dontcare]
        matching = match_detections(class_dets, class_gts, iou_threshold)
    else:
        dets = dets if isinstance(dets, DetectionTable) else _detection_table(dets)
        labels = as_label_table(gts)
        rows = np.flatnonzero([c == class_name for c in dets.classes])
        class_dets = DetectionTable([dets.image_ids[i] for i in rows.tolist()],
                                    [class_name] * len(rows), dets.boxes[rows], dets.scores[rows])
        gt_rows = np.flatnonzero([c in (class_name, DONTCARE_CLASS) for c in labels.classes])
        class_gts = labels._replace(image=labels.image[gt_rows], boxes=labels.boxes[gt_rows],
                                    classes=[labels.classes[i] for i in gt_rows.tolist()])
        matching = _Matching(class_dets, class_gts, iou_threshold)
    return _report(matching, iou_threshold, mode, bucket_edges, folds)


def _report(matching: _Matching, iou_threshold, mode, bucket_edges, folds):
    """The EvalReport of every scope of one class's matching."""
    counted = ~matching.dontcare

    def report(det_mask, gt_mask, per_bucket=(), per_fold=()) -> EvalReport:
        total_gt = int(np.count_nonzero(gt_mask & counted))
        recall, precision, ap, tp, fp = _score(matching.code[det_mask], total_gt, mode)
        points = tuple(zip(recall.tolist(), precision.tolist()))
        return EvalReport(iou_threshold, points, ap, per_bucket, tp, fp, total_gt, per_fold)

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
    return report(np.ones(len(matching.code), bool), np.ones(len(counted), bool),
                  per_bucket, per_fold)


@dataclass(frozen=True)
class FoldAggregate:
    mean: float
    minimum: float
    maximum: float
    stddev: float


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
    )


def write_detections_csv(path, dets) -> None:
    """Write a Detection list in canonical order (image asc, score desc, box),
    or a DetectionTable in its row order."""
    if not isinstance(dets, DetectionTable):
        dets = _detection_table(sorted(dets, key=lambda d: (d.image_id,) + d.sort_key()))
    write_output(path, zip(dets.image_ids, dets.classes, *dets.boxes.T.tolist(),
                           dets.scores.tolist()), DETECTIONS_CSV_HEADER)


def read_detection_table(path) -> DetectionTable:
    """Read a detections CSV (header image_id,class,x1,y1,x2,y2,score) into columns.

    With ``\\r\\n`` read as ``\\n``, text with no ``"``, ``\\r`` or NUL (which ``csv``
    rejects before Python 3.11), whose first line is the header and whose other
    lines are blank or hold 7 fields no longer than ``csv`` allows, is split in
    one go and its values are checked as columns. Any other text (quoted fields,
    lone ``\\r`` line ends), or split text with a fault, is read by ``csv`` one
    ``Detection`` per row, so the first faulty line raises ParseError.
    """
    text = read_input(path).replace("\r\n", "\n")
    lines = [] if '"' in text or "\r" in text or "\0" in text else text.split("\n")
    del text  # keep the temporaries below the caller's peak
    rows = [line for line in lines[1:] if line]
    flat = (lines[:1] == [",".join(DETECTIONS_CSV_HEADER)]
            and max(map(len, rows), default=0) <= csv.field_size_limit()
            and all(line.count(",") == 6 for line in rows))
    del lines
    cells = ",".join(rows).split(",") if flat and rows else []
    del rows
    if flat:
        try:
            cells = np.array(cells, object).reshape(-1, 7)
            values = cells[:, 2:].astype(np.float64)
            if (valid_boxes(values[:, :4]) & np.isfinite(values[:, 4])).all():
                return DetectionTable(cells[:, 0].tolist(), cells[:, 1].tolist(),
                                      values[:, :4], values[:, 4])
        except ValueError:
            pass
    dets = []
    for lineno, row in read_csv_rows(path, DETECTIONS_CSV_HEADER):
        try:
            dets.append(Detection(row[0], row[1], Box(*map(float, row[2:6])), float(row[6])))
        except ValueError as exc:
            raise ParseError(f"{Path(path).name}: line {lineno}: {exc}") from None
    return _detection_table(dets)


def read_detections_csv(path) -> list[Detection]:
    """Read a detections CSV (header image_id,class,x1,y1,x2,y2,score)."""
    return _detections(read_detection_table(path))
