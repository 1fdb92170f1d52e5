"""Anchor families: generation, tiling, ground-truth matching, and coverage.

An anchor family is the cross product of scales and aspect ratios. "Scale"
means the square root of the anchor area (a scale-128 anchor covers 128^2
pixels regardless of ratio) and ratios are h/w values, so the classic
"1:2, 1:1, 2:1" trio is (0.5, 1, 2). Shapes are enumerated scales-major,
ratios-minor.

Anchors tile the image on a regular grid with one family instance centered
at ``((i + 0.5) * stride, (j + 0.5) * stride)`` per cell. Matching and
coverage run on the unclipped geometry by default so border effects do not
silently distort IoU; ``allow_border=False`` instead discards every anchor
whose extent leaves the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import DEFAULT_WIDTH_BIN_EDGES, ImageAnnotations, bin_index, check_edges
from .errors import ConfigError
from .geometry import Box, boxes_to_array, iou_matrix

__all__ = [
    "AnchorConfig",
    "CoverageRow",
    "GtAttribution",
    "CoverageReport",
    "anchor_shapes",
    "tile_anchors",
    "match_gt",
    "coverage",
    "SCALES_BASELINE",
    "SCALES_EXTENDED",
    "RATIOS_DEFAULT",
]

# The widely used three-scale family and its five-scale extension that adds
# 32/64 to reach small objects; ratios follow the h/w convention.
SCALES_BASELINE = (128.0, 256.0, 512.0)
SCALES_EXTENDED = (32.0, 64.0, 128.0, 256.0, 512.0)
RATIOS_DEFAULT = (0.5, 1.0, 2.0)


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class AnchorConfig:
    """Defines an anchor family; ``k = len(scales) * len(ratios)``."""

    scales: tuple[float, ...] = SCALES_BASELINE
    ratios: tuple[float, ...] = RATIOS_DEFAULT
    stride: float = 16.0
    allow_border: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if not self.scales or not all(_positive(s) for s in self.scales):
            raise ConfigError(f"scales must be non-empty, finite and positive, got {self.scales}")
        if not self.ratios or not all(_positive(r) for r in self.ratios):
            raise ConfigError(f"ratios must be non-empty, finite and positive, got {self.ratios}")
        if not _positive(self.stride):
            raise ConfigError(f"stride must be finite and positive, got {self.stride}")

    @property
    def k(self) -> int:
        return len(self.scales) * len(self.ratios)


def anchor_shapes(config: AnchorConfig) -> list[tuple[float, float]]:
    """(w, h) for every (scale, ratio) pair, scales-major.

    w = s / sqrt(r) and h = s * sqrt(r), so the area is exactly s^2 and
    h/w is exactly r.
    """
    shapes = []
    for s in config.scales:
        for r in config.ratios:
            root = math.sqrt(r)
            shapes.append((s / root, s * root))
    return shapes


class _Axis:
    """Anchor edges along one image axis, per shape ``s`` and grid cell ``i``.

    ``lo[s, i]`` and ``hi[s, i]`` are ``(i + 0.5) * stride -/+ half[s]``.
    Cells ``first[s]..last[s]`` are kept: all of them with ``allow_border``,
    otherwise those whose extent stays inside ``[0, limit]``, a contiguous
    run because both edges grow with ``i``. ``first > last`` means none is.
    """

    def __init__(self, stride: float, half: np.ndarray, limit: float, allow_border: bool):
        self.cells = cells = max(1, math.ceil(limit / stride))
        centers = (np.arange(cells, dtype=np.float64) + 0.5) * stride
        self.stride = stride
        self.half = half
        self.lo = centers[None, :] - half[:, None]
        self.hi = centers[None, :] + half[:, None]
        if allow_border:
            self.first = np.zeros(half.size, dtype=np.int64)
            count = np.full(half.size, cells, dtype=np.int64)
        else:
            inside = (self.lo >= 0.0) & (self.hi <= limit)
            self.first = inside.argmax(axis=1)
            count = inside.sum(axis=1)
        self.last = self.first + count - 1

    @property
    def kept_count(self) -> np.ndarray:
        return np.maximum(self.last - self.first + 1, 0)

    def kept_mask(self) -> np.ndarray:
        """(cells, k): is cell ``i`` kept for shape ``s``?"""
        cells = np.arange(self.cells)[:, None]
        return (cells >= self.first) & (cells <= self.last)

    def windows(self, g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per (box, shape), the first cell and the cell count of its window.

        For anchor extent ``2 * half`` and box ``[g1, g2]`` the overlap is a
        trapezoid in the cell center whose plateau runs between
        ``g1 + half`` and ``g2 - half``. The window is that plateau plus one
        cell on each side, clamped to the kept cells.
        """
        edge_a = g1[:, None] + self.half[None, :]
        edge_b = g2[:, None] - self.half[None, :]
        lo = np.minimum(edge_a, edge_b) / self.stride - 0.5
        hi = np.maximum(edge_a, edge_b) / self.stride - 0.5
        start = np.clip(np.ceil(lo) - 1.0, self.first, self.last).astype(np.int64)
        stop = np.clip(np.floor(hi) + 1.0, self.first, self.last).astype(np.int64)
        return start, stop - start + 1

    def overlaps(self, s: int, start, size, g1, g2):
        """Overlap with each box, anchor extent and cell, over the windows of shape ``s``.

        One row per box, computed with the arithmetic of ``iou_matrix``. Two
        cells with equal (overlap, extent) give bit-equal IoU against any
        row, and the tie-break prefers the lower cell, so each row keeps one
        column per distinct pair, at its lowest cell; rows are padded with
        overlap 0.
        """
        offset = np.arange(size.max())
        cell = np.minimum(start[:, None] + offset, self.last[s])
        lo = self.lo[s, cell]
        hi = self.hi[s, cell]
        overlap = np.minimum(hi, g2[:, None]) - np.maximum(lo, g1[:, None])
        np.maximum(overlap, 0.0, out=overlap)
        overlap[offset >= size[:, None]] = 0.0
        extent = hi - lo
        order = np.lexsort((cell, extent, overlap), axis=-1)
        overlap, extent, cell = (np.take_along_axis(a, order, axis=1)
                                 for a in (overlap, extent, cell))
        first = np.ones(overlap.shape, dtype=bool)
        first[:, 1:] = (overlap[:, 1:] != overlap[:, :-1]) | (extent[:, 1:] != extent[:, :-1])
        rows, cols = np.nonzero(first)
        slot = (rows, (np.cumsum(first, axis=1) - 1)[rows, cols])
        shape = (overlap.shape[0], slot[1].max() + 1)
        out = np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=np.int64)
        for dst, src in zip(out, (overlap, extent, cell)):
            dst[slot] = src[rows, cols]
        return out


class _AnchorGrid:
    """The anchor tiling of one image size, as per-axis edges."""

    def __init__(self, config: AnchorConfig, image_w: float, image_h: float):
        if image_w <= 0 or image_h <= 0:
            raise ConfigError(f"image dimensions must be positive, got {(image_w, image_h)}")
        shapes = np.asarray(anchor_shapes(config), dtype=np.float64)  # (k, 2)
        self.x = _Axis(config.stride, 0.5 * shapes[:, 0], image_w, config.allow_border)
        self.y = _Axis(config.stride, 0.5 * shapes[:, 1], image_h, config.allow_border)

    @property
    def kept(self) -> np.ndarray:
        """Per shape: does any anchor of this shape survive?"""
        return (self.x.kept_count > 0) & (self.y.kept_count > 0)

    @property
    def anchor_count(self) -> int:
        return int((self.x.kept_count * self.y.kept_count).sum())


def tile_anchors(config: AnchorConfig, image_w: float, image_h: float) -> list[Box]:
    """Tile the anchor family over an image.

    Grid cells are row-major (y outer, x inner) with the full family per
    cell. With ``allow_border=True`` out-of-image anchors are clipped to the
    image (and dropped only if clipping empties them); with
    ``allow_border=False`` any anchor extending beyond the image is
    discarded. The kept-all count is grid cells x k.
    """
    grid = _AnchorGrid(config, float(image_w), float(image_h))
    x, y = grid.x, grid.y
    boxes = np.empty((y.cells, x.cells, config.k, 4), dtype=np.float64)
    boxes[..., 0] = x.lo.T[None, :, :]
    boxes[..., 1] = y.lo.T[:, None, :]
    boxes[..., 2] = x.hi.T[None, :, :]
    boxes[..., 3] = y.hi.T[:, None, :]
    if not config.allow_border:
        boxes = boxes[y.kept_mask()[:, None, :] & x.kept_mask()[None, :, :]]
    else:
        boxes = boxes.reshape(-1, 4)
        boxes[:, 0] = np.maximum(boxes[:, 0], 0.0)
        boxes[:, 1] = np.maximum(boxes[:, 1], 0.0)
        boxes[:, 2] = np.minimum(boxes[:, 2], float(image_w))
        boxes[:, 3] = np.minimum(boxes[:, 3], float(image_h))
        boxes = boxes[(boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])]
    return [Box(*row) for row in boxes]


# Ground-truth boxes per batch of the best-anchor search. Each step holds
# arrays of batch x window cells of one shape on one axis, so this bounds
# the working set (under 1 MB per array on a KITTI-size image).
_SEARCH_BATCH = 1024


def _best_anchors(grid: _AnchorGrid, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best IoU and best shape index per ground-truth row of ``gt`` (G, 4).

    Equals ``argmax`` over the IoU of every kept anchor in tiling order.
    Along each axis the overlap peaks on its plateau and is lower by at
    least one stride per cell beyond the window, so no cell outside the
    windows can reach the maximum. Ties go to the lowest tiling index
    ``(j * nx + i) * k + s``; a box that no kept anchor overlaps gets the
    shape of the first kept anchor.
    """
    n = gt.shape[0]
    k = grid.kept.size
    nx = grid.x.cells
    gx1, gy1, gx2, gy2 = gt[:, 0], gt[:, 1], gt[:, 2], gt[:, 3]
    gt_area = (gx2 - gx1) * (gy2 - gy1)
    x_start, x_size = grid.x.windows(gx1, gx2)
    y_start, y_size = grid.y.windows(gy1, gy2)
    best = np.full((n, k), -1.0)
    flat = np.zeros((n, k), dtype=np.int64)
    kept = np.flatnonzero(grid.kept)
    for s in kept:
        x_overlap, x_extent, x_cell = grid.x.overlaps(s, x_start[:, s], x_size[:, s], gx1, gx2)
        y_overlap, y_extent, y_cell = grid.y.overlaps(s, y_start[:, s], y_size[:, s], gy1, gy2)
        inter = y_overlap[:, :, None] * x_overlap[:, None, :]
        union = (y_extent[:, :, None] * x_extent[:, None, :] + gt_area[:, None, None]) - inter
        ious = np.zeros_like(inter)
        np.divide(inter, union, out=ious, where=inter > 0.0)
        ious = ious.reshape(n, -1)
        best[:, s] = ious.max(axis=1)
        cells = (y_cell[:, :, None] * nx + x_cell[:, None, :]).reshape(n, -1)
        cells[ious < best[:, s, None]] = np.iinfo(np.int64).max
        flat[:, s] = cells.min(axis=1) * k + s

    best_iou = best.max(axis=1)
    flat[best < best_iou[:, None]] = np.iinfo(np.int64).max
    best_shape = flat.min(axis=1) % k
    first_kept = (grid.y.first[kept] * nx + grid.x.first[kept]) * k + kept
    best_shape[best_iou == 0.0] = kept[np.argmin(first_kept)]
    return best_iou, best_shape


def match_gt(anchors: list[Box], gts) -> list[tuple[int, float]]:
    """For each ground-truth box, the argmax-IoU anchor index and its IoU.

    Ties break toward the lowest anchor index; with no anchors every GT gets
    ``(-1, 0.0)``. ``gts`` may hold Annotations or plain Boxes.
    """
    gt_boxes = [g.box if hasattr(g, "box") else g for g in gts]
    if not gt_boxes:
        return []
    if not anchors:
        return [(-1, 0.0) for _ in gt_boxes]
    ious = iou_matrix(boxes_to_array(anchors), boxes_to_array(gt_boxes))  # (A, G)
    best_idx = np.argmax(ious, axis=0)
    best_iou = ious[best_idx, np.arange(len(gt_boxes))]
    return [(int(i), float(v)) for i, v in zip(best_idx, best_iou)]


@dataclass(frozen=True)
class CoverageRow:
    """Recall of one (threshold, bucket) cell; bucket bounds are None for the
    overall row, and recall is None when the denominator is zero."""

    threshold: float
    bucket_lo: float | None
    bucket_hi: float | None
    matched: int
    total: int

    @property
    def recall(self) -> float | None:
        if self.total == 0:
            return None
        return self.matched / self.total


@dataclass(frozen=True)
class GtAttribution:
    """Which anchor shape served one ground-truth box best."""

    image_id: str
    gt_width: float
    best_scale: float
    best_ratio: float
    best_iou: float


@dataclass(frozen=True)
class CoverageReport:
    config: AnchorConfig
    thresholds: tuple[float, ...]
    bucket_edges: tuple[float, ...]
    rows: tuple[CoverageRow, ...]
    attribution: tuple[GtAttribution, ...]
    anchors_per_image: float
    image_count: int
    total_gt: int

    def overall_recall(self, threshold: float) -> float | None:
        for row in self.rows:
            if row.bucket_lo is None and row.threshold == threshold:
                return row.recall
        raise KeyError(f"no overall row for threshold {threshold}")


def coverage(
    config: AnchorConfig,
    dataset: list[ImageAnnotations],
    thresholds=(0.5, 0.7),
    buckets=DEFAULT_WIDTH_BIN_EDGES,
    class_filter: str | None = None,
) -> CoverageReport:
    """Best-anchor recall over a dataset, overall and per width bucket.

    Matching runs against the unclipped anchor tiling (or the border-filtered
    one when the config says so). DontCare regions never count as ground
    truth. Thresholds must lie in (0, 1]; buckets follow the open-ended
    binning used by the dataset statistics.

    The best anchor of each box comes from a windowed search of the grid
    rather than an IoU matrix over every tiled anchor. For one anchor shape
    the overlap along x depends only on the grid column and along y only on
    the row, and each is a trapezoid in the cell center, so per shape and
    axis only the cells of its plateau plus one cell on each side can hold
    the maximum. The windows are evaluated with the arithmetic of
    ``iou_matrix`` on the edges the tiling uses; window cells whose overlap
    and extent along an axis are bit-equal give bit-equal IoU, so each such
    group is evaluated once, at its lowest cell. The result is exactly that
    of ``argmax`` over the dense matrix: the same best IoU, ties going to
    the lowest tiling index ``(j * nx + i) * k + s``, and a box that no
    anchor overlaps attributed to the first kept anchor's shape.
    The boxes of all images of one size are searched together, in fixed
    batches. ``match_gt``, which takes arbitrary anchor lists, stays dense.

    Raises:
        ConfigError: on bad thresholds or buckets, or when an image with
            ground truth keeps no anchor (``allow_border=False`` and no
            anchor of the family fits inside it).
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds or any(not 0 < t <= 1 for t in thresholds):
        raise ConfigError(f"IoU thresholds must lie in (0, 1], got {thresholds}")
    edges = check_edges(buckets)

    grids: dict[tuple[float, float], _AnchorGrid] = {}
    anchor_counts: list[int] = []
    gts: list[tuple[str, Box]] = []  # (image_id, box) in dataset order
    by_size: dict[tuple[float, float], list[int]] = {}
    for image in dataset:
        size = (float(image.image_w), float(image.image_h))
        if size not in grids:
            grids[size] = _AnchorGrid(config, *size)
        anchor_counts.append(grids[size].anchor_count)
        for a in image.annotations:
            if not a.is_dontcare and (class_filter is None or a.class_name == class_filter):
                by_size.setdefault(size, []).append(len(gts))
                gts.append((image.image_id, a.box))

    iou_arr = np.zeros(len(gts), dtype=np.float64)
    shape_arr = np.zeros(len(gts), dtype=np.int64)
    for size, members in by_size.items():
        grid = grids[size]
        if not grid.kept.any():
            raise ConfigError(
                f"no anchor of scales {config.scales}, ratios {config.ratios}, stride "
                f"{config.stride:g} fits inside a {size[0]:g}x{size[1]:g} image "
                "without crossing its border"
            )
        for lo in range(0, len(members), _SEARCH_BATCH):
            batch = members[lo : lo + _SEARCH_BATCH]
            iou_arr[batch], shape_arr[batch] = _best_anchors(
                grid, boxes_to_array([gts[i][1] for i in batch])
            )

    n_ratios = len(config.ratios)
    attribution = tuple(
        GtAttribution(
            image_id=image_id,
            gt_width=box.width,
            best_scale=config.scales[s_idx // n_ratios],
            best_ratio=config.ratios[s_idx % n_ratios],
            best_iou=best,
        )
        for (image_id, box), s_idx, best in zip(gts, shape_arr.tolist(), iou_arr.tolist())
    )
    bucket_idx = bin_index([box.width for _, box in gts], edges)

    rows: list[CoverageRow] = []
    for t in thresholds:
        hit = iou_arr >= t
        rows.append(
            CoverageRow(
                threshold=t,
                bucket_lo=None,
                bucket_hi=None,
                matched=int(hit.sum()),
                total=int(iou_arr.size),
            )
        )
        for b in range(len(edges) - 1):
            in_bucket = bucket_idx == b
            rows.append(
                CoverageRow(
                    threshold=t,
                    bucket_lo=edges[b],
                    bucket_hi=edges[b + 1],
                    matched=int((hit & in_bucket).sum()),
                    total=int(in_bucket.sum()),
                )
            )

    return CoverageReport(
        config=config,
        thresholds=thresholds,
        bucket_edges=edges,
        rows=tuple(rows),
        attribution=attribution,
        anchors_per_image=(sum(anchor_counts) / len(anchor_counts)) if anchor_counts else 0.0,
        image_count=len(dataset),
        total_gt=len(gts),
    )
