import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import box_from_center, scale_box, synthetic_vehicle_dataset
from scaledet.anchors import (
    RATIOS_DEFAULT,
    SCALES_BASELINE,
    SCALES_EXTENDED,
    AnchorConfig,
    CoverageReport,
    CoverageRow,
    GtAttribution,
    _coverage,
    anchor_shapes,
    coverage,
)
from scaledet.datasets import DEFAULT_WIDTH_BIN_EDGES, Annotation, ImageAnnotations
from scaledet.errors import ConfigError
from scaledet.geometry import Box, boxes_to_array, iou_matrix


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
    return CoverageReport(tuple(rows), tuple(attribution), sum(counts) / len(counts))


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
            {"scales": (1e200,), "ratios": (1e300,)},  # finite scale, infinite anchor height
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AnchorConfig(**kwargs)


class TestTiling:
    def test_kitti_frame_count(self):
        cfg = AnchorConfig(scales=SCALES_EXTENDED, ratios=RATIOS_DEFAULT, stride=16.0)
        report = coverage(cfg, [ImageAnnotations("000000", 1392.0, 512.0)])
        assert report.anchors_per_image == 87 * 32 * 15

    def test_grid_cells_times_k(self):
        cfg = AnchorConfig(scales=(32.0, 64.0), ratios=RATIOS_DEFAULT, stride=16.0)
        report = coverage(cfg, [ImageAnnotations("000000", 100.0, 60.0)])  # 7 x 4 cells
        assert report.anchors_per_image == 7 * 4 * cfg.k


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
            box_from_center((i + 0.5) * 16, (j + 0.5) * 16, size, size)
            for i, j, size in [(3, 2, 32.0), (5, 4, 64.0), (7, 1, 32.0), (2, 3, 64.0)]
        ]
        dataset = [_image_of_boxes(boxes, dims=(160.0, 96.0))]
        report = coverage(cfg, dataset, thresholds=(0.5, 0.7, 1.0), buckets=(0, 64, math.inf))
        for t in (0.5, 0.7, 1.0):
            assert report.overall_recall(t) == 1.0

    def test_forty_px_objects_need_small_scales(self):
        # Square 40-px objects centered on grid cells: no anchor of the
        # 3-scale family can reach IoU 0.5 (best is 40^2/128^2 < 0.1).
        boxes = [box_from_center((i + 0.5) * 16, 200.0, 40.0, 40.0) for i in range(10, 30)]
        dataset = [_image_of_boxes(boxes)]
        base = coverage(AnchorConfig(scales=SCALES_BASELINE), dataset, thresholds=(0.5,))
        ext = coverage(AnchorConfig(scales=SCALES_EXTENDED), dataset, thresholds=(0.5,))
        assert base.overall_recall(0.5) == 0.0
        assert ext.overall_recall(0.5) > base.overall_recall(0.5)

    def test_attribution_points_at_matching_scale(self):
        center = (12 + 0.5) * 16.0  # a grid cell center
        boxes = [box_from_center(center, center, 32.0, 32.0)]
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
        assert sum(r.total for r in buckets) == overall[0].total == len(report.attribution)
        assert sum(r.matched for r in buckets) == overall[0].matched

    def test_empty_dataset_flagged_not_nan(self):
        report = coverage(AnchorConfig(scales=SCALES_BASELINE), [], thresholds=(0.5,))
        assert report.attribution == ()
        assert report.overall_recall(0.5) is None

    def test_dontcare_excluded(self):
        ann = Annotation(class_name="DontCare", box=Box(0, 0, 50, 50), source_image="i")
        dataset = [ImageAnnotations("i", 160.0, 96.0, (ann,))]
        report = coverage(AnchorConfig(scales=(32.0,)), dataset, thresholds=(0.5,))
        assert report.attribution == ()

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
            boxes.append(box_from_center(cx, cy, w, h))
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
    # The box's right edge is one ulp right of the 60x60 anchor edge at
    # x = 38 (cell 0), so that slope cell has one ulp less overlap than the
    # plateau cell 1, yet rounds to the same IoU and must win the tie: the
    # 48x75 shape, listed first, reaches that IoU only from cell 1 on.
    @example((AnchorConfig(scales=(60.0,), ratios=(1.5625, 1.0)), 200.0, 160.0,
              [Box(0.0, 22.625, math.nextafter(38.0, math.inf), 70.0)]))
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

    @given(search_cases(), st.lists(st.lists(st.sampled_from([16.0, 45.0, 64.0, 128.0, 512.0]),
                                             min_size=1, max_size=3, unique=True),
                                    min_size=1, max_size=2))
    @example((AnchorConfig(scales=(512.0, 128.0)), 600.0, 400.0,
              [Box(10.0, 20.0, 200.0, 150.0), box_from_center(264.0, 200.0, 128.0, 128.0)]),
             [[128.0, 512.0, 64.0]])
    @example((AnchorConfig(scales=(128.0, 64.0), ratios=(0.5, 2.0), allow_border=False),
              300.0, 200.0, [Box(40.0, 30.0, 90.0, 100.0), Box(5000.0, 5000.0, 5040.0, 5030.0)]),
             [[64.0, 16.0, 128.0], [45.0]])
    @settings(max_examples=150, deadline=None)
    def test_shared_search_equals_separate_calls(self, case, scale_lists):
        # One search over the distinct shapes of several families, on two
        # image sizes, reduced per family in its own shape order.
        config, image_w, image_h, boxes = case
        families = [config] + [AnchorConfig(scales=tuple(scales), ratios=config.ratios,
                                            stride=config.stride,
                                            allow_border=config.allow_border)
                               for scales in scale_lists]
        dataset = [_image_of_boxes(boxes, "a", dims=(image_w, image_h)),
                   _image_of_boxes(boxes, "b", dims=(image_h, image_w))]
        thresholds = (0.3, 0.5)
        try:
            want = [coverage(family, dataset, thresholds=thresholds) for family in families]
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                _coverage(families, dataset, thresholds, DEFAULT_WIDTH_BIN_EDGES, None)
            return
        assert _coverage(families, dataset, thresholds, DEFAULT_WIDTH_BIN_EDGES, None) == want

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

    @given(search_cases(), st.just(0) | st.integers(0, 600))
    # Anchors and boxes of area near 10**4 reach [2**1023, 2**1024) at e = 505.
    @example((AnchorConfig(scales=(100.0,), ratios=(1.0,)), 160.0, 96.0,
              [box_from_center(56.0, 56.0, 100.0, 100.0)]), 0)
    @example((AnchorConfig(scales=(100.0, 45.0), ratios=(0.5, 2.0), allow_border=False),
              320.0, 200.0, [box_from_center(88.0, 72.0, 100.0 / math.sqrt(0.5),
                                             100.0 * math.sqrt(0.5)),
                             box_from_center(96.0, 80.0, 90.0, 120.0),
                             Box(5000.0, 5000.0, 5040.0, 5030.0)]), 0)
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scale_leaves_best_anchors_unchanged(self, case, slack):
        # Boxes, image size, stride and scales all scaled by 2**e: every edge,
        # overlap and area scales exactly, so each best IoU and shape must be
        # bit-equal. With no slack, e is the largest exponent at which every
        # box and anchor area stays finite; then two areas can sum past it.
        config, image_w, image_h, boxes = case
        areas = [box.area for box in boxes] + [w * h for w, h in anchor_shapes(config)]
        e = max((1024 - math.frexp(max(areas))[1]) // 2 - slack, 0)
        scaled = AnchorConfig(scales=tuple(math.ldexp(s, e) for s in config.scales),
                              ratios=config.ratios, stride=math.ldexp(config.stride, e),
                              allow_border=config.allow_border)
        big_boxes = [scale_box(box, e) for box in boxes]
        dims = (math.ldexp(image_w, e), math.ldexp(image_h, e))
        try:
            want = coverage(config, [_image_of_boxes(boxes, dims=(image_w, image_h))])
        except ConfigError:
            with pytest.raises(ConfigError):
                coverage(scaled, [_image_of_boxes(big_boxes, dims=dims)])
            return
        got = coverage(scaled, [_image_of_boxes(big_boxes, dims=dims)])
        assert [(a.best_iou, math.ldexp(a.best_scale, -e), a.best_ratio)
                for a in got.attribution] == [(a.best_iou, a.best_scale, a.best_ratio)
                                              for a in want.attribution]
        assert got.anchors_per_image == want.anchors_per_image

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
