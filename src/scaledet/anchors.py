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
    Rounding gives the cells of one shape a few distinct extents
    ``hi - lo`` (1-7 on a KITTI grid, differing in the last bits), its
    extent classes; ``next_in_class[s][c, i]`` is the lowest cell from ``i``
    on in class ``c``, or ``cells`` if none is.
    Cells ``first[s]..last[s]`` are kept: all of them with ``allow_border``,
    otherwise those whose extent stays inside ``[0, limit]``, a contiguous
    run because both edges grow with ``i``. ``first > last`` means none is.
    ``alike[s]`` says that every cell of shape ``s`` rounds to the same edges.
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
        with np.errstate(over="ignore"):
            self.hi = centers[None, :] + half[:, None]
            self.extent = self.hi - self.lo
        if not np.isfinite(self.extent).all():
            raise ConfigError(f"anchor edges pass the float range: a {2 * half.max():g} px anchor "
                              f"on a {limit:g} px axis at stride {stride:g}")
        # ``candidates`` needs a cell on a slope to fall short of the next one
        # after the edges, the overlap and the IoU have rounded. With edges
        # spaced u apart (their ulp), that holds while the stride exceeds 11 u.
        # A shape whose cells all round to the same edges needs only its first.
        self.alike = (self.lo[:, 0] == self.lo[:, -1]) & (self.hi[:, 0] == self.hi[:, -1])
        edge = self.hi[:, -1]  # of each shape, the largest in magnitude
        coarse = ~self.alike & (16.0 * np.spacing(edge) > stride)
        if coarse.any():
            s = coarse.argmax()
            raise ConfigError(f"stride {stride:g} is under 16 float steps ({np.spacing(edge[s]):g} "
                              f"px) of the anchor edges near {edge[s]:.6g} px")
        self.next_in_class = []
        for row in self.extent:
            classes = np.unique(row, return_inverse=True)[1]
            at = np.where(classes == np.arange(classes.max() + 1)[:, None], np.arange(cells), cells)
            self.next_in_class.append(np.minimum.accumulate(at[:, ::-1], axis=1)[:, ::-1])
        if allow_border:
            self.first = np.zeros(half.size, dtype=np.int64)
            count = np.full(half.size, cells, dtype=np.int64)
        else:
            inside = (self.lo >= 0.0) & (self.hi <= limit)
            self.first = inside.argmax(axis=1)
            count = inside.sum(axis=1)
        self.last = self.first + count - 1

    def windows(self, g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per (box, shape), the first and the last cell of its window.

        For anchor extent ``2 * half`` and box ``[g1, g2]`` the overlap is a
        trapezoid in the cell center whose plateau runs between
        ``g1 + half`` and ``g2 - half``. The window is that plateau plus one
        cell on each side, clamped to the kept cells. A plateau edge past the
        float range is infinite, beyond every cell like any edge past the
        grid, so the clamp takes it to the end cell. A shape whose cells are
        alike has its first kept cell for its window.
        """
        with np.errstate(over="ignore"):
            edge_a = g1[:, None] + self.half[None, :]
            edge_b = g2[:, None] - self.half[None, :]
            lo = np.minimum(edge_a, edge_b) / self.stride - 0.5
            hi = np.maximum(edge_a, edge_b) / self.stride - 0.5
        start = np.clip(np.ceil(lo) - 1.0, self.first, self.last).astype(np.int64)
        stop = np.clip(np.floor(hi) + 1.0, self.first, self.last).astype(np.int64)
        stop[:, self.alike] = start[:, self.alike] = self.first[self.alike]
        return start, stop

    def candidates(self, s: int, start, stop, g1, g2):
        """Overlap, extent and cell of the candidate cells of shape ``s``, a row per box,
        each row in ascending cell order.

        From the window's third cell on, the overlap is the plateau's, the
        same across an extent class (the box's width or the anchor's extent),
        then falls; within a class IoU is monotone non-decreasing in the
        overlap (rounding is monotone). So the candidates are each class's
        first cell from the third on, and the first two cells. A lower cell
        with a little less overlap can round to the same IoU and win the
        tie. Only the plateau's lower neighbour can: a cell further down the
        slope falls short by a stride or more, which, as for cells outside
        the window, no rounding makes up at the edge spacing ``__init__``
        admits; and it is one of the first two
        cells, as the window starts one cell before a plateau found to within
        a cell. A class with no cell in the window, and a window shorter than
        two cells, repeats a cell; a repeat has the same overlap and extent.
        """
        inner = self.next_in_class[s][:, np.minimum(start + 2, stop)].T
        cell = np.sort(np.column_stack([start, np.minimum(start + 1, stop),
                                        np.where(inner <= stop[:, None], inner, start[:, None])]))
        x2 = np.minimum(self.hi[s, cell], g2[:, None])  # as geometry.paired_iou: no overflow
        overlap = x2 - np.minimum(np.maximum(self.lo[s, cell], g1[:, None]), x2)
        return overlap, self.extent[s, cell], cell


class _AnchorGrid:
    """The tiling of anchor ``shapes`` (k, 2) over one image size: per-axis
    edges and the kept anchor ``count`` of each shape."""

    def __init__(self, shapes: np.ndarray, stride: float, allow_border: bool,
                 image_w: float, image_h: float):
        if not (image_w > 0 and image_h > 0):  # NaN too
            raise ConfigError(f"image dimensions must be positive, got {(image_w, image_h)}")
        self.x = _Axis(stride, 0.5 * shapes[:, 0], image_w, allow_border)
        self.y = _Axis(stride, 0.5 * shapes[:, 1], image_h, allow_border)
        x_count, y_count = (np.maximum(a.last - a.first + 1, 0) for a in (self.x, self.y))
        self.count = x_count * y_count


# Ground-truth boxes per batch of the best-anchor search; a step holds
# batch x y-candidates x x-candidates arrays of one shape. On coverage-scan's
# 1,376 boxes, both families in-process on a 2-core VM, 1,024 beat 4,096 in
# 49 of 60 alternating pairs (median 0.049 s against 0.051 s); 512 won 36.
_SEARCH_BATCH = 1024
# Grid cells per image axis, which bounds each shape's classes x cells
# table of an axis. KITTI at stride 16 uses 87 cells.
_MAX_CELLS = 8192


def _best_anchors(grid: _AnchorGrid, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per ground-truth row of ``gt`` (G, 4) and shape, the best IoU over the
    shape's kept anchors and the lowest cell ``j * nx + i`` that has it.

    Equals ``argmax`` over the IoU of the shape's kept anchors in cell
    order, so a box that none overlaps gets the first kept cell; a shape
    that keeps no anchor gets IoU -1. Along each axis the overlap peaks on
    its plateau and is lower by at least one stride per cell beyond the
    window, so no cell outside the windows can reach the maximum; the IoU of
    every pair of x and y candidates is evaluated. Both axes list their
    candidates in ascending cell order, so on the flattened ``(y, x)`` grid
    of pairs the first maximum that ``argmax`` returns is the lowest cell
    with the best IoU (a repeated candidate has the same IoU).
    """
    n, k = gt.shape[0], grid.count.size
    nx = grid.x.cells
    gx1, gy1, gx2, gy2 = gt[:, 0], gt[:, 1], gt[:, 2], gt[:, 3]
    gt_area = (gx2 - gx1) * (gy2 - gy1)
    x_start, x_stop = grid.x.windows(gx1, gx2)
    y_start, y_stop = grid.y.windows(gy1, gy2)
    best = np.full((n, k), -1.0)
    cell = np.zeros((n, k), dtype=np.int64)
    rows = np.arange(n)
    for s in np.flatnonzero(grid.count):
        x_overlap, x_extent, x_cell = grid.x.candidates(s, x_start[:, s], x_stop[:, s], gx1, gx2)
        y_overlap, y_extent, y_cell = grid.y.candidates(s, y_start[:, s], y_stop[:, s], gy1, gy2)
        ious = _iou_kernel(y_overlap[:, :, None] * x_overlap[:, None, :],
                           y_extent[:, :, None] * x_extent[:, None, :],
                           gt_area[:, None, None]).reshape(n, -1)
        at = ious.argmax(axis=1)
        y_at, x_at = np.divmod(at, x_cell.shape[1])
        best[:, s] = ious[rows, at]
        cell[:, s] = y_cell[rows, y_at] * nx + x_cell[rows, x_at]
        cell[best[:, s] == 0.0, s] = grid.y.first[s] * nx + grid.x.first[s]
    return best, cell


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


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Recall rows by threshold, then bucket; and per counted box, in row order, as columns
    (no per-box object): image id, width, and its best shape's scale, ratio and IoU."""

    rows: tuple[CoverageRow, ...]
    image_ids: list[str]
    gt_width: np.ndarray
    best_scale: np.ndarray
    best_ratio: np.ndarray
    best_iou: np.ndarray
    anchors_per_image: float

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

    The best anchor of each box comes from a search of the grid rather than
    an IoU matrix over every tiled anchor. For one anchor shape the overlap
    along x depends only on the grid column and along y only on the row,
    and each is a trapezoid in the cell center, so per shape and axis only
    its plateau plus one cell on each side (the window) can hold the
    maximum. Rounding splits a shape's cells into a few extent classes, and
    within a class IoU only grows with the overlap, so each axis keeps each
    class's first plateau cell and the window's first two cells, where a
    cell with a little less overlap that rounds to the same IoU can sit.
    Each pair of x and y candidates goes through the IoU kernel of
    ``geometry`` (``_iou_kernel``) on the edges the tiling uses. The result
    is exactly that of ``argmax`` over the dense matrix: the same best IoU,
    ties going to the lowest tiling index ``(j * nx + i) * k + s``, and a box
    that no anchor overlaps attributed to the first kept anchor's shape. The
    boxes of all images of one size are searched together, in fixed
    batches; ``scaledet coverage --compare`` searches the distinct shapes of
    both families once.

    Raises:
        ConfigError: on bad thresholds or buckets, when an image with
            ground truth keeps no anchor (``allow_border=False`` and no
            anchor of the family fits inside it), when an anchor's edges
            pass the float range, or when the float spacing of an anchor's
            edges is over 1/16 of the stride and its cells do not all round
            to the same edges.
    """
    return _coverage((config,), dataset, thresholds, buckets, class_filter)[0]


def _check_thresholds(thresholds) -> tuple[float, ...]:
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds or any(not 0 < t <= 1 for t in thresholds):
        raise ConfigError(f"IoU thresholds must lie in (0, 1], got {thresholds}")
    return thresholds


def _coverage(configs, dataset, thresholds, buckets, class_filter) -> list[CoverageReport]:
    """``coverage`` of each family in ``configs`` (which share stride and
    ``allow_border``), from one search of their distinct shapes.

    The search gives each (box, shape) its best IoU and the lowest cell with
    it. A family takes its shapes' largest IoU, ties going to the lowest
    cell and then to its lowest shape index: its lowest tiling index.
    """
    thresholds = _check_thresholds(thresholds)
    edges = check_edges(buckets)

    table = as_label_table(dataset)
    size_code: dict[tuple[float, float], int] = {}  # image size -> its grid, in first-seen order
    image_size = np.array([size_code.setdefault((float(w), float(h)), len(size_code))
                           for w, h in table.sizes], dtype=np.intp)
    shapes = list(dict.fromkeys(shape for config in configs for shape in anchor_shapes(config)))
    families = [np.array([shapes.index(shape) for shape in anchor_shapes(config)])
                for config in configs]
    grids = [_AnchorGrid(np.asarray(shapes), configs[0].stride, configs[0].allow_border, *size)
             for size in size_code]
    images_per_grid = np.bincount(image_size, minlength=len(grids)).tolist()
    counted = table.counted(class_filter)
    gt, gt_image = table.boxes[counted], table.image[counted]
    gt_size = image_size[gt_image]
    best = np.zeros((len(counted), len(shapes)))
    cell = np.zeros((len(counted), len(shapes)), dtype=np.int64)
    for code in dict.fromkeys(gt_size.tolist()):
        members = np.flatnonzero(gt_size == code)
        for lo in range(0, len(members), _SEARCH_BATCH):
            batch = members[lo : lo + _SEARCH_BATCH]
            best[batch], cell[batch] = _best_anchors(grids[code], gt[batch])

    image_ids = np.array(table.image_ids, dtype=object)[gt_image].tolist()
    widths = gt[:, 2] - gt[:, 0]
    bucket = bin_index(widths, edges)
    scopes = [(None, None, np.ones(len(counted), dtype=bool))]  # overall, then each bucket
    scopes += [(lo, hi, bucket == b) for b, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    reports = []
    for config, family in zip(configs, families):
        k, n_ratios = family.size, len(config.ratios)
        iou_arr = best[:, family].max(axis=1)
        if (iou_arr < 0).any():  # a box whose image keeps no anchor of the family
            w, h = list(size_code)[gt_size[np.argmax(iou_arr < 0)]]
            raise ConfigError(f"no anchor of scales {config.scales}, ratios {config.ratios}, "
                              f"stride {config.stride:g} fits inside a {w:g}x{h:g} image "
                              "without crossing its border")
        order = np.where(best[:, family] == iou_arr[:, None], cell[:, family] * k + np.arange(k),
                         np.iinfo(np.int64).max)
        shape = order.min(axis=1) % k
        rows = [CoverageRow(t, lo, hi, int(((iou_arr >= t) & inside).sum()), int(inside.sum()))
                for t in thresholds for lo, hi, inside in scopes]
        anchor_total = sum(int(g.count[family].sum()) * n for g, n in zip(grids, images_per_grid))
        per_image = anchor_total / len(image_size) if len(image_size) else 0.0
        reports.append(CoverageReport(
            tuple(rows), image_ids, widths, np.array(config.scales)[shape // n_ratios],
            np.array(config.ratios)[shape % n_ratios], iou_arr, per_image))
    return reports
