import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import box_from_center, scale_box
from scaledet.errors import InvalidBoxError
from scaledet.geometry import (
    Box,
    boxes_to_array,
    iou,
    iou_matrix,
    paired_iou,
    valid_boxes,
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


def grid_boxes(step=1 / 32, exponent=0):
    # Dyadic 1/32-px grid, scaled by 2**exponent: IoU arithmetic on these
    # boxes is exact in float64, so equality properties hold mathematically
    # rather than up to rounding. Sides reach 250 px, so every area stays
    # finite up to exponent 504 (250**2 * 4**504 < 2**1024).
    lo = st.integers(min_value=-4000, max_value=4000)
    size = st.integers(min_value=1, max_value=8000) | st.integers(min_value=6000, max_value=8000)
    step = math.ldexp(step, exponent)
    return st.builds(
        lambda x, y, w, h: Box(x * step, y * step, (x + w) * step, (y + h) * step),
        lo, lo, size, size,
    )


def scaled_grid_boxes():
    """(e, boxes): grid boxes scaled by 2**e, for e up to 504.

    At the top exponents two large areas sum past the float64 range, so the
    IoU kernel takes its overflow path.
    """
    exponents = st.integers(0, 504) | st.integers(490, 504)
    return exponents.flatmap(
        lambda e: st.tuples(st.just(e), st.lists(grid_boxes(exponent=e), min_size=1, max_size=6)))


# A valid box on the cell-0 anchor of scale 1.3e154 (the anchor's 8 px
# offset is below the box's ulp): its area is finite but twice it is not.
HUGE_BOX = Box(-6.5e153, -6.5e153, 6.5e153, 6.5e153)


class TestBox:
    def test_properties(self):
        b = Box(1.0, 2.0, 4.0, 8.0)
        assert b.width == 3.0
        assert b.height == 6.0
        assert b.area == 18.0
        assert box_from_center(2.5, 5.0, 3.0, 6.0) == b

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

    @given(st.lists(st.one_of(
        st.floats(), st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 1e200]),
        st.integers(-3, 3), st.just(10**400), st.booleans(),
        st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(width=32)),
        st.builds(np.int64, st.integers(-3, 3)), st.sampled_from(["1", None]),
    ), min_size=4, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_checks_equal_the_generator_form(self, coords):
        # The checks, their order and their messages are those of the
        # all(...) form they replace; valid_boxes agrees on float rows.
        assert _outcome(Box, coords) == _outcome(_generator_box_check, coords)
        if all(type(c) is float for c in coords):
            accepted = _outcome(Box, coords) is None
            assert bool(valid_boxes(np.array([coords]))[0]) == accepted

    @given(st.lists(st.one_of(
        st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 1e200]),
    ), min_size=4, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_float_corners_equal_the_generator_form(self, coords):
        # Four exact floats take the one-test path: NaN, infinities, subnormals
        # and extents past the float range get the same verdict and message.
        outcome = _outcome(Box, coords)
        assert outcome == _outcome(_generator_box_check, coords)
        assert bool(valid_boxes(np.array([coords]))[0]) == (outcome is None)


def _generator_box_check(x1, y1, x2, y2):
    """The box check as written before, with the generator inside all(...)."""
    coords = (x1, y1, x2, y2)
    if not all(isinstance(c, (int, float)) and math.isfinite(c) for c in coords):
        raise InvalidBoxError(f"box coordinates must be finite numbers, got {coords}")
    if x2 <= x1 or y2 <= y1:
        raise InvalidBoxError(f"degenerate box: need x2 > x1 and y2 > y1, got {coords}")
    if not math.isfinite((x2 - x1) * (y2 - y1)):
        raise InvalidBoxError(f"box extent must be finite, got {coords}")


def _outcome(check, coords):
    """None when ``check`` accepts ``coords``, else the type and text of what it raised."""
    try:
        check(*coords)
    except Exception as exc:  # OverflowError and TypeError included
        return type(exc), str(exc)
    return None


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


class TestOverflow:
    """IoU stays exact where a sum of two finite areas, or a far gap, overflows."""

    def test_huge_box_with_itself(self):
        rows = boxes_to_array([HUGE_BOX, HUGE_BOX])
        assert iou(HUGE_BOX, HUGE_BOX) == 1.0
        assert paired_iou(rows, rows).tolist() == [1.0, 1.0]
        assert iou_matrix(rows, rows).tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_subnormal_areas_keep_their_iou(self):
        # Areas of 3 and 5 times the smallest subnormal: halving them would
        # round, so only a union that overflows may be halved.
        u = math.ldexp(1.0, -537)
        a, b = Box(0.0, 0.0, 3 * u, u), Box(0.0, 0.0, 5 * u, u)
        assert iou(a, b) == 3 / 5
        assert paired_iou(boxes_to_array([a]), boxes_to_array([b])).tolist() == [3 / 5]

    def test_far_apart_boxes(self):
        # The gap between the boxes, 2.8e308, is not a finite float.
        a, b = Box(-1.5e308, 0.0, -1.4e308, 1.0), Box(1.4e308, 0.0, 1.5e308, 1.0)
        assert iou(a, b) == 0.0
        assert paired_iou(boxes_to_array([a]), boxes_to_array([b])).tolist() == [0.0]
        assert iou_matrix(boxes_to_array([a, b]), boxes_to_array([b, a])).tolist() == [
            [0.0, 1.0], [1.0, 0.0]]

    @given(scaled_grid_boxes())
    @example((504, [Box(0.0, 0.0, math.ldexp(250.0, 504), math.ldexp(250.0, 504)),
                    Box(math.ldexp(50.0, 504), 0.0, math.ldexp(300.0, 504),
                        math.ldexp(250.0, 504))]))
    @settings(max_examples=300, deadline=None)
    def test_power_of_two_scale_leaves_iou_unchanged(self, case):
        # Scaling by 2**e is exact, so bit for bit IoU(2^e a, 2^e b) == IoU(a, b).
        e, big = case
        small = [scale_box(box, -e) for box in big]
        pairs = [(i, j) for i in range(len(big)) for j in range(len(big))]
        assert [iou(big[i], big[j]) for i, j in pairs] == [iou(small[i], small[j])
                                                            for i, j in pairs]
        big_rows, small_rows = boxes_to_array(big), boxes_to_array(small)
        assert (paired_iou(big_rows, big_rows[::-1]).tobytes()
                == paired_iou(small_rows, small_rows[::-1]).tobytes())
        assert iou_matrix(big_rows, big_rows).tobytes() == iou_matrix(small_rows,
                                                                      small_rows).tobytes()
