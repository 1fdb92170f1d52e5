"""Axis-aligned box geometry.

Boxes live in continuous pixel coordinates with corners ``(x1, y1)`` top-left
and ``(x2, y2)`` bottom-right, requiring ``x2 > x1`` and ``y2 > y1``. Widths
and heights are plain coordinate differences; there is no legacy "+1" pixel
convention anywhere in the toolkit. Parsers normalize other conventions into
this one at the boundary.

``Box``, like ``Detection`` and ``Annotation``, is an immutable :func:`record`
and all operations are pure, so everything here is safe to use concurrently.
The one exception is :func:`_gc_paused`, which touches the process-wide
garbage collector and so does nothing while another thread runs.
"""

from __future__ import annotations

import gc
import math
import numbers
import threading
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .errors import InvalidBoxError

__all__ = [
    "Record",
    "record",
    "Box",
    "iou",
    "iou_matrix",
    "paired_iou",
    "boxes_to_array",
    "valid_boxes",
]


def _alone() -> bool:
    """Whether no other thread runs: the condition for the process-wide tricks
    (forking, pausing the garbage collector), which another thread could see half done."""
    return threading.active_count() == 1


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector around a bulk build of acyclic objects.

    Reference counting alone frees such objects, at the same moment, so the
    collector's passes over them find nothing. Nothing happens when the
    collector is already off (a caller's own ``gc.disable()`` stays as it
    was, and a nested pause is free) or when another thread runs.
    """
    paused = gc.isenabled() and _alone()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


class Record:
    """Base of the per-box records: assigning or deleting an attribute raises
    ``FrozenInstanceError``, and pickling and ``copy`` rebuild a record through its
    ``__init__``, which checks the fields, then fills the slots through ``_setters``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(map(self.__getattribute__, self.__match_args__))


def record(cls):
    """``cls``, a ``Record`` subclass with its own ``__init__``, as a slotted dataclass
    with ``==`` and ``hash`` by field; ``_setters`` are its slot descriptors' ``__set__``."""
    cls = dataclass(init=False, slots=True, unsafe_hash=True)(cls)
    cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__match_args__)
    return cls


@record
class Box(Record):
    """Axis-aligned rectangle with strictly positive, finite width and height.
    Four exact ``float`` corners pass with one test; anything else takes the full checks,
    which take any real number and keep a numpy scalar as the Python number it holds."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        # Float corners need one test: a NaN fails a comparison, an infinite corner the area.
        if not (type(x1) is type(y1) is type(x2) is type(y2) is float and x2 > x1 and y2 > y1
                and math.isfinite((x2 - x1) * (y2 - y1))):
            coords = (x1, y1, x2, y2)
            for c in coords:
                if not (isinstance(c, numbers.Real) and math.isfinite(c)):
                    raise InvalidBoxError(f"box coordinates must be finite numbers, got {coords}")
            # Python arithmetic from here on: numpy integers wrap and float32 overflows early.
            x1, y1, x2, y2 = (int(c) if isinstance(c, np.integer) else float(c)
                              if isinstance(c, np.floating) else c for c in coords)
            if x2 <= x1 or y2 <= y1:
                raise InvalidBoxError(f"degenerate box: need x2 > x1 and y2 > y1, got {coords}")
            # Finite corners can still span an infinite width, height or area.
            if not math.isfinite((x2 - x1) * (y2 - y1)):
                raise InvalidBoxError(f"box extent must be finite, got {coords}")
        set_x1, set_y1, set_x2, set_y2 = self._setters
        set_x1(self, x1)
        set_y1(self, y1)
        set_x2(self, x2)
        set_y2(self, y2)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0.0 when they are disjoint.

    Symmetric, bounded to [0, 1], and equal to 1 exactly when the boxes are
    identical. Bit-equal to :func:`paired_iou` of the pair.
    """
    # Plain floats up to the kernel: reference loops call this once per pair.
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return float(_iou_kernel(float(iw * ih), float(a.area), float(b.area)))


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two box arrays.

    Args:
        boxes_a: float array shaped (N, 4), rows as (x1, y1, x2, y2).
        boxes_b: float array shaped (M, 4).

    Returns:
        (N, M) float64 array, each value bit-equal to :func:`iou` of the pair.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    return paired_iou(a[:, None, :], b[None, :, :])


def paired_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """IoU of each row of ``boxes_a`` with the matching row of ``boxes_b``.

    The arrays broadcast against each other over their leading axes (last
    axis: x1, y1, x2, y2). The overlap along each axis is the lower far edge
    minus the higher near edge, clamped to 0 before the subtraction, so far
    apart boxes cannot overflow it; :func:`_iou_kernel` does the rest.
    """
    a = np.asarray(boxes_a, dtype=np.float64)
    b = np.asarray(boxes_b, dtype=np.float64)
    x2 = np.minimum(a[..., 2], b[..., 2])
    y2 = np.minimum(a[..., 3], b[..., 3])
    iw = x2 - np.minimum(np.maximum(a[..., 0], b[..., 0]), x2)
    ih = y2 - np.minimum(np.maximum(a[..., 1], b[..., 1]), y2)
    areas_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    areas_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return _iou_kernel(iw * ih, areas_a, areas_b)


def _iou_kernel(inter: np.ndarray, area_a: np.ndarray, area_b: np.ndarray) -> np.ndarray:
    """``inter / ((area_a + area_b) - inter)``, and 0 where ``inter`` is 0.

    Every IoU of the toolkit comes from here. The arguments broadcast; the
    areas are finite and ``inter`` is at most the smaller. Where two areas
    sum past the float64 range, every term is halved: that is exact above
    the subnormal range, so IoU is exact for any finite boxes and unchanged
    by scaling them by a power of two.
    """
    with np.errstate(over="ignore"):
        union = (area_a + area_b) - inter
    huge = np.isinf(union)
    if huge.any():
        scale = np.where(huge, 0.5, 1.0)
        inter = scale * inter
        union = (scale * area_a + scale * area_b) - inter
    return np.divide(inter, union, out=np.zeros(np.shape(union)), where=inter > 0.0)


_corners = attrgetter("x1", "y1", "x2", "y2")


def boxes_to_array(boxes) -> np.ndarray:
    """Stack Box objects into an (N, 4) float64 array."""
    return np.fromiter(chain.from_iterable(map(_corners, boxes)), np.float64,
                       4 * len(boxes)).reshape(-1, 4)


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Whether ``Box`` accepts each row of an (N, 4) float array, as a bool array."""
    x1, y1, x2, y2 = boxes.T
    with np.errstate(invalid="ignore", over="ignore"):
        return (np.isfinite(boxes).all(axis=1) & (x2 > x1) & (y2 > y1)
                & np.isfinite((x2 - x1) * (y2 - y1)))
