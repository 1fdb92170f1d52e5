"""Axis-aligned box geometry.

Boxes live in continuous pixel coordinates with corners ``(x1, y1)`` top-left
and ``(x2, y2)`` bottom-right, requiring ``x2 > x1`` and ``y2 > y1``. Widths
and heights are plain coordinate differences; there is no legacy "+1" pixel
convention anywhere in the toolkit. Parsers normalize other conventions into
this one at the boundary.

All values are immutable and all operations are pure, so everything here is
safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoxError

__all__ = [
    "Box",
    "iou",
    "iou_matrix",
    "paired_iou",
    "boxes_to_array",
    "valid_boxes",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with strictly positive, finite width and height."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = coords = (self.x1, self.y1, self.x2, self.y2)
        for c in coords:
            if not (isinstance(c, (int, float)) and math.isfinite(c)):
                raise InvalidBoxError(f"box coordinates must be finite numbers, got {coords}")
        if x2 <= x1 or y2 <= y1:
            raise InvalidBoxError(f"degenerate box: need x2 > x1 and y2 > y1, got {coords}")
        # Finite corners can still span an infinite width, height or area.
        if not math.isfinite((x2 - x1) * (y2 - y1)):
            raise InvalidBoxError(f"box extent must be finite, got {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def cx(self) -> float:
        return self.x1 + 0.5 * self.width

    @property
    def cy(self) -> float:
        return self.y1 + 0.5 * self.height

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "Box":
        return cls(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0.0 when they are disjoint.

    Symmetric, bounded to [0, 1], and equal to 1 exactly when the boxes are
    identical.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a.area + b.area) - inter
    return inter / union


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two box arrays.

    Args:
        boxes_a: float array shaped (N, 4), rows as (x1, y1, x2, y2).
        boxes_b: float array shaped (M, 4).

    Returns:
        (N, M) float64 array. Arithmetic matches :func:`iou` exactly so that
        vectorized matching agrees bitwise with the scalar reference.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    return paired_iou(a[:, None, :], b[None, :, :])


def paired_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """IoU of each row of ``boxes_a`` with the matching row of ``boxes_b``.

    The arrays broadcast against each other over their leading axes (last
    axis: x1, y1, x2, y2). Arithmetic matches :func:`iou` exactly.
    """
    a = np.asarray(boxes_a, dtype=np.float64)
    b = np.asarray(boxes_b, dtype=np.float64)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    areas_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    areas_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = (areas_a + areas_b) - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=inter > 0.0)
    return out


def boxes_to_array(boxes) -> np.ndarray:
    """Stack Box objects into an (N, 4) float64 array."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64)


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Whether ``Box`` accepts each row of an (N, 4) float array, as a bool array."""
    x1, y1, x2, y2 = boxes.T
    with np.errstate(invalid="ignore", over="ignore"):
        return (np.isfinite(boxes).all(axis=1) & (x2 > x1) & (y2 > y1)
                & np.isfinite((x2 - x1) * (y2 - y1)))
