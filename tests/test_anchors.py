import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_vehicle_dataset
from scaledet.anchors import (
    RATIOS_DEFAULT,
    SCALES_BASELINE,
    SCALES_EXTENDED,
    AnchorConfig,
    CoverageReport,
    CoverageRow,
    GtAttribution,
    anchor_shapes,
    coverage,
    match_gt,
    tile_anchors,
)
from scaledet.datasets import DEFAULT_WIDTH_BIN_EDGES, Annotation, ImageAnnotations
from scaledet.errors import ConfigError
from scaledet.geometry import Box, boxes_to_array, iou, iou_matrix


def exhaustive_match(anchors, gt_boxes):
    """Oracle: O(|A|*|G|) scan with scalar IoU, lowest-index tie-break.

    The all-zero-IoU case still yields index 0: every anchor ties and the
    lowest index wins.
    """
    out = []
    for gt in gt_boxes:
        if not anchors:
            out.append((-1, 0.0))
            continue
        best_idx, best_iou = 0, iou(anchors[0], gt)
        for idx, anchor in enumerate(anchors[1:], start=1):
            value = iou(anchor, gt)
            if value > best_iou:
                best_idx, best_iou = idx, value
        out.append((best_idx, float(best_iou)))
    return out


def dense_best_anchors(config, image_w, image_h, gt_boxes):
    """Oracle for coverage's search: the IoU of every tiled anchor, then argmax.

    Tiles the unclipped grid (border-filtered when ``allow_border`` is off)
    in row-major cell order with the family per cell, so ``np.argmax``
    breaks ties toward the lowest tiling index. Returns the anchor count and
    one ``(best_iou, best_scale, best_ratio)`` per box; None instead of the
    list when no anchor is kept.
    """
    stride = config.stride
    nx = max(1, math.ceil(image_w / stride))
    ny = max(1, math.ceil(image_h / stride))
    shapes = np.asarray(anchor_shapes(config))
    cx = (np.arange(nx) + 0.5) * stride
    cy = (np.arange(ny) + 0.5) * stride
    gx, gy = np.meshgrid(cx, cy)
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    anchors = np.empty((centers.shape[0], shapes.shape[0], 4))
    anchors[:, :, 0] = centers[:, None, 0] - 0.5 * shapes[None, :, 0]
    anchors[:, :, 1] = centers[:, None, 1] - 0.5 * shapes[None, :, 1]
    anchors[:, :, 2] = centers[:, None, 0] + 0.5 * shapes[None, :, 0]
    anchors[:, :, 3] = centers[:, None, 1] + 0.5 * shapes[None, :, 1]
    anchors = anchors.reshape(-1, 4)
    shape_idx = np.tile(np.arange(shapes.shape[0]), centers.shape[0])
    if not config.allow_border:
        inside = ((anchors[:, 0] >= 0) & (anchors[:, 1] >= 0)
                  & (anchors[:, 2] <= image_w) & (anchors[:, 3] <= image_h))
        anchors, shape_idx = anchors[inside], shape_idx[inside]
    if not len(anchors):
        return 0, None
    if not gt_boxes:
        return len(anchors), []
    ious = iou_matrix(anchors, boxes_to_array(gt_boxes))
    best = np.argmax(ious, axis=0)
    n_ratios = len(config.ratios)
    out = []
    for col, a_idx in enumerate(best):
        s_idx = int(shape_idx[a_idx])
        out.append((float(ious[a_idx, col]), config.scales[s_idx // n_ratios],
                    config.ratios[s_idx % n_ratios]))
    return len(anchors), out


def dense_coverage(config, dataset, thresholds, buckets=DEFAULT_WIDTH_BIN_EDGES):
    """Oracle for ``coverage``: the whole report, built from the dense search."""
    attribution, counts = [], []
    for image in dataset:
        gts = [a.box for a in image.annotations if not a.is_dontcare]
        count, best = dense_best_anchors(config, image.image_w, image.image_h, gts)
        counts.append(count)
        for box, (value, scale, ratio) in zip(gts, best):
            attribution.append(GtAttribution(image.image_id, box.width, scale, ratio, value))
    rows = []
    for t in thresholds:
        hits = [a.best_iou >= t for a in attribution]
        rows.append(CoverageRow(t, None, None, sum(hits), len(hits)))
        for i, (lo, hi) in enumerate(zip(buckets, buckets[1:])):
            last = i == len(buckets) - 2
            inside = [(lo <= a.gt_width < hi) or (last and a.gt_width >= hi) or
                      (i == 0 and a.gt_width < lo) for a in attribution]
            rows.append(CoverageRow(t, lo, hi, sum(h and n for h, n in zip(hits, inside)),
                                    sum(inside)))
    return CoverageReport(config, tuple(thresholds), tuple(buckets), tuple(rows),
                          tuple(attribution), sum(counts) / len(counts), len(dataset),
                          len(attribution))


class TestShapes:
    def test_three_by_three_yields_nine(self):
        cfg = AnchorConfig(scales=SCALES_BASELINE, ratios=RATIOS_DEFAULT)
        assert cfg.k == 9
        assert len(anchor_shapes(cfg)) == 9

    def test_five_by_three_yields_fifteen(self):
        cfg = AnchorConfig(scales=SCALES_EXTENDED, ratios=RATIOS_DEFAULT)
        assert cfg.k == 15
        assert len(anchor_shapes(cfg)) == 15

    def test_closed_form_values(self):
        cfg = AnchorConfig(scales=(128.0,), ratios=(1.0, 2.0))
        shapes = anchor_shapes(cfg)
        assert shapes[0] == (128.0, 128.0)
        w, h = shapes[1]
        assert w == pytest.approx(128.0 / math.sqrt(2), abs=1e-9)
        assert h == pytest.approx(128.0 * math.sqrt(2), abs=1e-9)
        assert w * h == pytest.approx(128.0**2, abs=1e-6 * 128.0**2)

    def test_scales_major_ordering(self):
        cfg = AnchorConfig(scales=(32.0, 64.0), ratios=(0.5, 1.0))
        areas = [w * h for w, h in anchor_shapes(cfg)]
        assert areas == pytest.approx([32**2, 32**2, 64**2, 64**2])

    @given(
        st.lists(st.floats(min_value=1, max_value=1024, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.floats(min_value=0.05, max_value=20, allow_nan=False), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_area_and_ratio_identities(self, scales, ratios):
        cfg = AnchorConfig(scales=tuple(scales), ratios=tuple(ratios))
        shapes = anchor_shapes(cfg)
        assert len(shapes) == cfg.k
        for (s, r), (w, h) in zip(
            ((s, r) for s in cfg.scales for r in cfg.ratios), shapes
        ):
            assert abs(w * h - s * s) <= 1e-6 * s * s
            assert abs(h / w - r) <= 1e-9 * max(1.0, r)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scales": ()},
            {"scales": (0.0,)},
            {"scales": (-128.0, 256.0)},
            {"ratios": ()},
            {"ratios": (0.0, -1.0)},
            {"stride": 0},
            {"scales": (math.inf,)},
            {"ratios": (math.nan,)},
            {"stride": math.nan},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AnchorConfig(**kwargs)


class TestTiling:
    def test_single_cell(self):
        cfg = AnchorConfig(scales=(16.0,), ratios=(1.0,), stride=16.0)
        out = tile_anchors(cfg, 16, 16)
        assert out == [Box(0.0, 0.0, 16.0, 16.0)]
        assert (out[0].cx, out[0].cy) == (8.0, 8.0)

    def test_kitti_frame_count(self):
        cfg = AnchorConfig(scales=SCALES_EXTENDED, ratios=RATIOS_DEFAULT, stride=16.0)
        out = tile_anchors(cfg, 1392, 512)
        assert len(out) == 87 * 32 * 15

    def test_grid_cells_times_k(self):
        cfg = AnchorConfig(scales=(32.0, 64.0), ratios=RATIOS_DEFAULT, stride=16.0)
        out = tile_anchors(cfg, 100, 60)  # 7 x 4 cells
        assert len(out) == 7 * 4 * cfg.k

    def test_border_drop_matches_brute_force(self):
        cfg_keep = AnchorConfig(scales=(32.0, 96.0), ratios=RATIOS_DEFAULT, stride=16.0,
                                allow_border=True)
        cfg_drop = AnchorConfig(scales=(32.0, 96.0), ratios=RATIOS_DEFAULT, stride=16.0,
                                allow_border=False)
        w, h = 160, 96
        kept = tile_anchors(cfg_drop, w, h)
        # Oracle: regenerate the unclipped tiling by hand and filter.
        shapes = anchor_shapes(cfg_keep)
        survivors = []
        for j in range(math.ceil(h / 16)):
            for i in range(math.ceil(w / 16)):
                cx, cy = (i + 0.5) * 16, (j + 0.5) * 16
                for sw, sh in shapes:
                    box = Box.from_center(cx, cy, sw, sh)
                    if box.x1 >= 0 and box.y1 >= 0 and box.x2 <= w and box.y2 <= h:
                        survivors.append(box)
        assert kept == survivors
        assert 0 < len(kept) < len(tile_anchors(cfg_keep, w, h))

    def test_clipping_keeps_border_anchors_inside_image(self):
        cfg = AnchorConfig(scales=(256.0,), ratios=(1.0,), stride=16.0)
        for box in tile_anchors(cfg, 64, 64):
            assert 0 <= box.x1 < box.x2 <= 64
            assert 0 <= box.y1 < box.y2 <= 64


class TestMatching:
    def test_exact_anchor_hit(self):
        anchors = tile_anchors(AnchorConfig(scales=(32.0,), ratios=(1.0,)), 128, 128)
        gt = anchors[5]
        [(idx, value)] = match_gt(anchors, [gt])
        assert idx == 5
        assert value == 1.0

    def test_empty_anchor_list(self):
        assert match_gt([], [Box(0, 0, 10, 10)]) == [(-1, 0.0)]

    def test_empty_gt_list(self):
        assert match_gt([Box(0, 0, 10, 10)], []) == []

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        cfg = AnchorConfig(scales=(32.0, 64.0, 128.0), ratios=RATIOS_DEFAULT, stride=16.0)
        anchors = tile_anchors(cfg, 320, 256)
        gts = []
        for _ in range(200):
            w = rng.uniform(8, 200)
            h = rng.uniform(8, 200)
            x1 = rng.uniform(-20, 320 - w)
            y1 = rng.uniform(-20, 256 - h)
            gts.append(Box(x1, y1, x1 + w, y1 + h))
        assert match_gt(anchors, gts) == exhaustive_match(anchors, gts)


def _image_of_boxes(boxes, image_id="000000", dims=(1392.0, 512.0)):
    anns = tuple(
        Annotation(class_name="Car", box=b, source_image=image_id)
        for b in boxes
    )
    return ImageAnnotations(image_id, dims[0], dims[1], anns)


class TestCoverage:
    def test_perfect_dataset_full_recall(self):
        # GT constructed to coincide with the unclipped anchor geometry:
        # family shapes centered on grid cell centers.
        cfg = AnchorConfig(scales=(32.0, 64.0), ratios=(1.0,), stride=16.0)
        boxes = [
            Box.from_center((i + 0.5) * 16, (j + 0.5) * 16, size, size)
            for i, j, size in [(3, 2, 32.0), (5, 4, 64.0), (7, 1, 32.0), (2, 3, 64.0)]
        ]
        dataset = [_image_of_boxes(boxes, dims=(160.0, 96.0))]
        report = coverage(cfg, dataset, thresholds=(0.5, 0.7, 1.0), buckets=(0, 64, math.inf))
        for t in (0.5, 0.7, 1.0):
            assert report.overall_recall(t) == 1.0

    def test_forty_px_objects_need_small_scales(self):
        # Square 40-px objects centered on grid cells: no anchor of the
        # 3-scale family can reach IoU 0.5 (best is 40^2/128^2 < 0.1).
        boxes = [Box.from_center((i + 0.5) * 16, 200.0, 40.0, 40.0) for i in range(10, 30)]
        dataset = [_image_of_boxes(boxes)]
        base = coverage(AnchorConfig(scales=SCALES_BASELINE), dataset, thresholds=(0.5,))
        ext = coverage(AnchorConfig(scales=SCALES_EXTENDED), dataset, thresholds=(0.5,))
        assert base.overall_recall(0.5) == 0.0
        assert ext.overall_recall(0.5) > base.overall_recall(0.5)

    def test_attribution_points_at_matching_scale(self):
        center = (12 + 0.5) * 16.0  # a grid cell center
        boxes = [Box.from_center(center, center, 32.0, 32.0)]
        dataset = [_image_of_boxes(boxes)]
        report = coverage(AnchorConfig(scales=SCALES_EXTENDED), dataset, thresholds=(0.5,))
        [att] = report.attribution
        assert att.best_scale == 32.0
        assert att.best_ratio == 1.0
        assert att.best_iou == 1.0

    def test_recall_monotone_in_threshold(self, vehicle_dataset):
        report = coverage(
            AnchorConfig(scales=SCALES_EXTENDED),
            vehicle_dataset[:12],
            thresholds=(0.3, 0.5, 0.7, 0.9),
        )
        recalls = [report.overall_recall(t) for t in (0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_adding_scales_never_reduces_recall(self, vehicle_dataset):
        thresholds = (0.3, 0.5, 0.7)
        subset = vehicle_dataset[:12]
        base = coverage(AnchorConfig(scales=SCALES_BASELINE), subset, thresholds=thresholds)
        ext = coverage(AnchorConfig(scales=SCALES_EXTENDED), subset, thresholds=thresholds)
        for t in thresholds:
            assert ext.overall_recall(t) >= base.overall_recall(t)

    def test_per_bucket_rows_sum_to_overall(self, vehicle_dataset):
        report = coverage(AnchorConfig(scales=SCALES_EXTENDED), vehicle_dataset[:8],
                          thresholds=(0.5,))
        overall = [r for r in report.rows if r.bucket_lo is None]
        buckets = [r for r in report.rows if r.bucket_lo is not None]
        assert sum(r.total for r in buckets) == overall[0].total == report.total_gt
        assert sum(r.matched for r in buckets) == overall[0].matched

    def test_empty_dataset_flagged_not_nan(self):
        report = coverage(AnchorConfig(scales=SCALES_BASELINE), [], thresholds=(0.5,))
        assert report.total_gt == 0
        assert report.overall_recall(0.5) is None

    def test_dontcare_excluded(self):
        ann = Annotation(class_name="DontCare", box=Box(0, 0, 50, 50), source_image="i")
        dataset = [ImageAnnotations("i", 160.0, 96.0, (ann,))]
        report = coverage(AnchorConfig(scales=(32.0,)), dataset, thresholds=(0.5,))
        assert report.total_gt == 0

    def test_bad_thresholds_rejected(self, vehicle_dataset):
        with pytest.raises(ConfigError):
            coverage(AnchorConfig(), vehicle_dataset[:1], thresholds=(0.0,))
        with pytest.raises(ConfigError):
            coverage(AnchorConfig(), vehicle_dataset[:1], thresholds=(1.5,))


@st.composite
def search_cases(draw):
    """An anchor family, an image size and boxes that stress the window search."""
    stride = draw(st.sampled_from([7.5, 10.0, 13.0, 16.0, 23.3, 32.0])
                  | st.floats(min_value=6.0, max_value=40.0))
    config = AnchorConfig(
        scales=tuple(draw(st.lists(st.sampled_from([16.0, 32.0, 45.0, 64.0, 128.0, 256.0]),
                                   min_size=1, max_size=4, unique=True))),
        ratios=tuple(draw(st.lists(st.sampled_from([0.45, 0.5, 1.0, 2.0, 3.1]),
                                   min_size=1, max_size=3, unique=True))),
        stride=stride,
        allow_border=draw(st.booleans()),
    )
    image_w = float(draw(st.integers(min_value=20, max_value=600)))
    image_h = float(draw(st.integers(min_value=20, max_value=400)))
    shapes = anchor_shapes(config)
    boxes = []
    for kind in draw(st.lists(st.sampled_from(["snapped", "free", "far"]),
                              min_size=1, max_size=12)):
        if kind == "snapped":
            # Centers on cell centers or cell edges; sizes of an anchor shape
            # or of whole half-strides, so IoU ties are exact.
            i = draw(st.integers(min_value=-2, max_value=int(image_w / stride) + 2))
            j = draw(st.integers(min_value=-2, max_value=int(image_h / stride) + 2))
            cx = (i + 0.5 * draw(st.integers(0, 2))) * stride
            cy = (j + 0.5 * draw(st.integers(0, 2))) * stride
            if draw(st.booleans()):
                w, h = draw(st.sampled_from(shapes))
            else:
                w = draw(st.integers(1, 24)) * stride / 2
                h = draw(st.integers(1, 24)) * stride / 2
            boxes.append(Box.from_center(cx, cy, w, h))
        elif kind == "free":
            # Inside, partly outside, or wider than the image.
            w = draw(st.floats(min_value=1.0, max_value=1.5 * image_w))
            h = draw(st.floats(min_value=1.0, max_value=1.5 * image_h))
            x1 = draw(st.floats(min_value=-w, max_value=image_w))
            y1 = draw(st.floats(min_value=-h, max_value=image_h))
            boxes.append(Box(x1, y1, x1 + w, y1 + h))
        else:
            # Far outside the image: no anchor overlaps it.
            x1 = draw(st.sampled_from([-5000.0, image_w + 3000.0]))
            y1 = draw(st.sampled_from([-4000.0, 0.0, image_h + 2000.0]))
            boxes.append(Box(x1, y1, x1 + 40.0, y1 + 30.0))
    return config, image_w, image_h, boxes


class TestBestAnchorSearch:
    """The windowed search in ``coverage`` against the dense oracle, bit for bit."""

    @given(search_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle(self, case):
        config, image_w, image_h, boxes = case
        dataset = [_image_of_boxes(boxes, dims=(image_w, image_h))]
        count, expected = dense_best_anchors(config, image_w, image_h, boxes)
        if expected is None:
            with pytest.raises(ConfigError):
                coverage(config, dataset, thresholds=(0.5,))
            return
        report = coverage(config, dataset, thresholds=(0.5,))
        got = [(a.best_iou, a.best_scale, a.best_ratio) for a in report.attribution]
        assert got == expected
        assert report.anchors_per_image == count

    @pytest.mark.parametrize("allow_border", [True, False])
    @pytest.mark.parametrize("scales", [SCALES_BASELINE, SCALES_EXTENDED])
    def test_vehicle_dataset_report_equals_dense(self, vehicle_dataset, scales, allow_border):
        config = AnchorConfig(scales=scales, allow_border=allow_border)
        thresholds = (0.3, 0.5, 0.7)
        assert coverage(config, vehicle_dataset, thresholds=thresholds) == dense_coverage(
            config, vehicle_dataset, thresholds
        )

    def test_zero_overlap_takes_first_kept_shape(self):
        # Far from every anchor; with the border kept the first anchor is
        # shape 0, without it the first anchor that fits the 100x60 image.
        far = [Box(5000.0, 5000.0, 5040.0, 5030.0)]
        dataset = [_image_of_boxes(far, dims=(100.0, 60.0))]
        family = {"scales": (64.0, 32.0), "ratios": (1.0, 0.5)}
        [kept] = coverage(AnchorConfig(**family), dataset, thresholds=(0.5,)).attribution
        assert (kept.best_scale, kept.best_ratio, kept.best_iou) == (64.0, 1.0, 0.0)
        [dropped] = coverage(AnchorConfig(**family, allow_border=False), dataset,
                             thresholds=(0.5,)).attribution
        _, [expected] = dense_best_anchors(AnchorConfig(**family, allow_border=False),
                                           100.0, 60.0, far)
        assert (dropped.best_iou, dropped.best_scale, dropped.best_ratio) == expected
        assert dropped.best_scale == 32.0

    def test_no_kept_anchor_is_a_config_error(self):
        dataset = [_image_of_boxes([Box(10, 10, 50, 40)], dims=(100.0, 60.0))]
        with pytest.raises(ConfigError, match="100x60"):
            coverage(AnchorConfig(allow_border=False), dataset, thresholds=(0.5,))


class TestCoverageDirection:
    """The headline comparison: 5-scale anchors on a small-object dataset."""

    def test_extended_scales_beat_baseline_on_small_objects(self):
        dataset = synthetic_vehicle_dataset(seed=1234, n_images=25)
        thresholds = (0.3, 0.5, 0.7)
        base = coverage(AnchorConfig(scales=SCALES_BASELINE), dataset, thresholds=thresholds)
        ext = coverage(AnchorConfig(scales=SCALES_EXTENDED), dataset, thresholds=thresholds)
        assert ext.overall_recall(0.5) > base.overall_recall(0.5)
        for t in thresholds:
            assert ext.overall_recall(t) >= base.overall_recall(t)
