import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaledet.errors import InvalidBoxError
from scaledet.geometry import (
    Box,
    boxes_to_array,
    iou,
    iou_matrix,
    paired_iou,
)


def rasterized_iou(a: Box, b: Box, resolution: float = 1.0) -> float:
    """Oracle: count grid cells whose centers fall inside each box.

    Exact for boxes whose coordinates are multiples of ``resolution``.
    """
    x_lo = min(a.x1, b.x1)
    y_lo = min(a.y1, b.y1)
    nx = int(round((max(a.x2, b.x2) - x_lo) / resolution))
    ny = int(round((max(a.y2, b.y2) - y_lo) / resolution))
    xs = x_lo + (np.arange(nx) + 0.5) * resolution
    ys = y_lo + (np.arange(ny) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys)

    def mask(box: Box) -> np.ndarray:
        return (gx >= box.x1) & (gx < box.x2) & (gy >= box.y1) & (gy < box.y2)

    in_a = mask(a)
    in_b = mask(b)
    union = np.logical_or(in_a, in_b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(in_a, in_b).sum() / union)


def int_boxes(max_coord=128):
    lo = st.integers(min_value=0, max_value=max_coord - 1)
    size = st.integers(min_value=1, max_value=max_coord)
    return st.builds(
        lambda x, y, w, h: Box(x, y, x + w, y + h), lo, lo, size, size
    )


def float_boxes():
    coord = st.floats(min_value=-500, max_value=500, allow_nan=False, width=32)
    size = st.floats(min_value=0.5, max_value=800, allow_nan=False, width=32)
    return st.builds(
        lambda x, y, w, h: Box(float(x), float(y), float(x) + float(w), float(y) + float(h)),
        coord, coord, size, size,
    )


def grid_boxes(step=1 / 32):
    # Dyadic 1/32-px grid: IoU arithmetic on these boxes is exact in float64,
    # so equality properties hold mathematically rather than up to rounding.
    lo = st.integers(min_value=-4000, max_value=4000)
    size = st.integers(min_value=1, max_value=8000)
    return st.builds(
        lambda x, y, w, h: Box(x * step, y * step, (x + w) * step, (y + h) * step),
        lo, lo, size, size,
    )


class TestBox:
    def test_properties(self):
        b = Box(1.0, 2.0, 4.0, 8.0)
        assert b.width == 3.0
        assert b.height == 6.0
        assert b.area == 18.0
        assert (b.cx, b.cy) == (2.5, 5.0)

    @pytest.mark.parametrize(
        "coords",
        [(0, 0, 0, 10), (0, 0, 10, 0), (5, 5, 5, 5), (10, 0, 0, 10), (0, 0, -1, 10)],
    )
    def test_degenerate_rejected(self, coords):
        with pytest.raises(InvalidBoxError):
            Box(*coords)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidBoxError):
            Box(0, 0, math.inf, 10)
        with pytest.raises(InvalidBoxError):
            Box(math.nan, 0, 10, 10)

    @pytest.mark.parametrize("coords", [(-1e308, 0, 1e308, 10), (0, -1e308, 10, 1e308),
                                        (0, 0, 1e200, 1e200)])
    def test_infinite_extent_rejected(self, coords):
        # Finite corners whose width, height or area overflows to inf.
        with pytest.raises(InvalidBoxError, match="extent"):
            Box(*coords)


class TestIoU:
    def test_identity(self):
        b = Box(3.5, -2.0, 17.25, 9.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_half_overlap_matches_rasterization(self):
        # Analytically 50 / 150 = 1/3; cross-checked on a 0.01-px grid.
        a = Box(0, 0, 10, 10)
        b = Box(5, 0, 15, 10)
        value = iou(a, b)
        assert value == pytest.approx(1 / 3, abs=1e-12)
        assert value == pytest.approx(rasterized_iou(a, b, resolution=0.01), abs=1e-3)

    @given(int_boxes(), int_boxes())
    @settings(max_examples=150, deadline=None)
    def test_matches_rasterization_on_integer_boxes(self, a, b):
        assert iou(a, b) == pytest.approx(rasterized_iou(a, b), abs=1e-3)

    @given(float_boxes(), float_boxes())
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0

    @given(grid_boxes(), grid_boxes())
    @settings(max_examples=250, deadline=None)
    def test_one_iff_identical(self, a, b):
        if a == b:
            assert iou(a, b) == 1.0
        else:
            assert iou(a, b) < 1.0

    def test_matrix_agrees_with_scalar_exactly(self):
        rng = np.random.default_rng(7)
        boxes_a = [
            Box(x, y, x + w, y + h)
            for x, y, w, h in zip(
                rng.uniform(0, 200, 40),
                rng.uniform(0, 200, 40),
                rng.uniform(1, 120, 40),
                rng.uniform(1, 120, 40),
            )
        ]
        boxes_b = boxes_a[:25][::-1]
        matrix = iou_matrix(boxes_to_array(boxes_a), boxes_to_array(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == iou(a, b)

    @given(st.lists(st.tuples(float_boxes(), float_boxes()), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_paired_agrees_with_scalar_exactly(self, pairs):
        values = paired_iou(boxes_to_array([a for a, _ in pairs]),
                            boxes_to_array([b for _, b in pairs]))
        assert values.shape == (len(pairs),)
        assert values.tolist() == [iou(a, b) for a, b in pairs]
