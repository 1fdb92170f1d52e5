"""Anchor families: generation and ground-truth coverage.

An anchor family is the cross product of scales and aspect ratios. "Scale"
means the square root of the anchor area (a scale-128 anchor covers 128^2
pixels regardless of ratio) and ratios are h/w values, so the classic
"1:2, 1:1, 2:1" trio is (0.5, 1, 2). Shapes are enumerated scales-major,
ratios-minor.

Anchors tile the image on a regular grid with one family instance centered
at ``((i + 0.5) * stride, (j + 0.5) * stride)`` per cell. Coverage runs on
the unclipped geometry by default so border effects do not silently distort
IoU; ``allow_border=False`` instead discards every anchor whose extent
leaves the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .datasets import DEFAULT_WIDTH_BIN_EDGES, as_label_table, bin_index, check_edges
from .errors import ConfigError
# Unused here; scalebench's tracer test still patches anchors.iou_matrix.
from .geometry import _iou_kernel, iou_matrix  # noqa: F401

__all__ = [
    "AnchorConfig",
    "CoverageRow",
    "GtAttribution",
    "CoverageReport",
    "anchor_shapes",
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
        for (w, h), (s, r) in zip(anchor_shapes(self), product(self.scales, self.ratios)):
            if not math.isfinite(w * h):  # as for a Box, finite sides can span an infinite area
                raise ConfigError(f"the anchor of scale {s!r} and ratio {r!r} is {w!r} x {h!r} "
                                  "px, whose area is not finite")

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
        if limit / stride > _MAX_CELLS:
            raise ConfigError(
                f"stride {stride:g} splits {limit:.15g} px into over {_MAX_CELLS} grid cells"
            )
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

        One row per box, for ``_iou_kernel`` of ``geometry``. Two cells
        with equal (overlap, extent) give bit-equal IoU against any row, and
        the tie-break prefers the lower cell, so each row keeps one column
        per distinct pair, at its lowest cell; rows are padded with overlap 0.
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
    """The anchor tiling of one image size: per-axis edges, whether each
    shape keeps an anchor (``kept``), and the kept ``anchor_count``."""

    def __init__(self, config: AnchorConfig, image_w: float, image_h: float):
        if image_w <= 0 or image_h <= 0:
            raise ConfigError(f"image dimensions must be positive, got {(image_w, image_h)}")
        shapes = np.asarray(anchor_shapes(config), dtype=np.float64)  # (k, 2)
        self.x = _Axis(config.stride, 0.5 * shapes[:, 0], image_w, config.allow_border)
        self.y = _Axis(config.stride, 0.5 * shapes[:, 1], image_h, config.allow_border)
        x_count, y_count = (np.maximum(a.last - a.first + 1, 0) for a in (self.x, self.y))
        self.kept = (x_count > 0) & (y_count > 0)
        self.anchor_count = int((x_count * y_count).sum())


# Ground-truth boxes per batch of the best-anchor search. Each step holds
# arrays of batch x window cells of one shape on one axis, so this bounds
# the working set (under 1 MB per array on a KITTI-size image).
_SEARCH_BATCH = 1024
# Grid cells per image axis: keeps a search step's batch x cells float64
# window array within 64 MB. KITTI at stride 16 uses 87 cells.
_MAX_CELLS = 8192


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
        ious = _iou_kernel(y_overlap[:, :, None] * x_overlap[:, None, :],
                           y_extent[:, :, None] * x_extent[:, None, :],
                           gt_area[:, None, None]).reshape(n, -1)
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
    thresholds: tuple[float, ...]
    rows: tuple[CoverageRow, ...]
    attribution: tuple[GtAttribution, ...]
    anchors_per_image: float
    total_gt: int

    def overall_recall(self, threshold: float) -> float | None:
        for row in self.rows:
            if row.bucket_lo is None and row.threshold == threshold:
                return row.recall
        raise KeyError(f"no overall row for threshold {threshold}")


def coverage(
    config: AnchorConfig,
    dataset,
    thresholds=(0.5, 0.7),
    buckets=DEFAULT_WIDTH_BIN_EDGES,
    class_filter: str | None = None,
) -> CoverageReport:
    """Best-anchor recall over a dataset, overall and per width bucket.

    ``dataset`` is a LabelTable or what ``as_label_table`` takes. The search
    runs on the boxes of its counted rows (never DontCare), by image size,
    against the unclipped anchor tiling (or the border-filtered one when the
    config says so); anchors per image average over every image. Thresholds
    must lie in (0, 1]; buckets follow the binning of the dataset statistics.

    The best anchor of each box comes from a windowed search of the grid
    rather than an IoU matrix over every tiled anchor. For one anchor shape
    the overlap along x depends only on the grid column and along y only on
    the row, and each is a trapezoid in the cell center, so per shape and
    axis only the cells of its plateau plus one cell on each side can hold
    the maximum. The windows are evaluated with the IoU kernel of
    ``geometry`` (``_iou_kernel``) on the edges the tiling uses; window
    cells whose overlap and extent along an axis are bit-equal give bit-equal
    IoU, so each such group is evaluated once, at its lowest cell. The
    result is exactly that of ``argmax`` over the dense matrix: the same best
    IoU, ties going to the lowest tiling index ``(j * nx + i) * k + s``, and
    a box that no anchor overlaps attributed to the first kept anchor's
    shape. The boxes of all images of one size are searched together, in
    fixed batches.

    Raises:
        ConfigError: on bad thresholds or buckets, or when an image with
            ground truth keeps no anchor (``allow_border=False`` and no
            anchor of the family fits inside it).
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds or any(not 0 < t <= 1 for t in thresholds):
        raise ConfigError(f"IoU thresholds must lie in (0, 1], got {thresholds}")
    edges = check_edges(buckets)

    table = as_label_table(dataset)
    size_code: dict[tuple[float, float], int] = {}  # image size -> its grid, in first-seen order
    image_size = np.array([size_code.setdefault((float(w), float(h)), len(size_code))
                           for w, h in table.sizes], dtype=np.intp)
    grids = [_AnchorGrid(config, *size) for size in size_code]
    images_per_grid = np.bincount(image_size, minlength=len(grids)).tolist()
    anchor_total = sum(g.anchor_count * n for g, n in zip(grids, images_per_grid))
    counted = table.counted(class_filter)
    gt, gt_image = table.boxes[counted], table.image[counted]
    gt_size = image_size[gt_image]

    iou_arr = np.zeros(len(counted), dtype=np.float64)
    shape_arr = np.zeros(len(counted), dtype=np.int64)
    for k in dict.fromkeys(gt_size.tolist()):
        grid = grids[k]
        if not grid.kept.any():
            w, h = list(size_code)[k]
            raise ConfigError(
                f"no anchor of scales {config.scales}, ratios {config.ratios}, stride "
                f"{config.stride:g} fits inside a {w:g}x{h:g} image "
                "without crossing its border"
            )
        members = np.flatnonzero(gt_size == k)
        for lo in range(0, len(members), _SEARCH_BATCH):
            batch = members[lo : lo + _SEARCH_BATCH]
            iou_arr[batch], shape_arr[batch] = _best_anchors(grid, gt[batch])

    widths = gt[:, 2] - gt[:, 0]
    n_ratios = len(config.ratios)
    attribution = tuple(
        GtAttribution(
            image_id=table.image_ids[image],
            gt_width=width,
            best_scale=config.scales[s_idx // n_ratios],
            best_ratio=config.ratios[s_idx % n_ratios],
            best_iou=best,
        )
        for image, width, s_idx, best in zip(gt_image.tolist(), widths.tolist(),
                                              shape_arr.tolist(), iou_arr.tolist())
    )
    bucket_idx = bin_index(widths, edges)

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
        thresholds=thresholds,
        rows=tuple(rows),
        attribution=attribution,
        anchors_per_image=anchor_total / len(image_size) if len(image_size) else 0.0,
        total_gt=len(counted),
    )
