"""Seeded road-scene inputs for the benchmark.

The scene model is the one the test suite uses for its synthetic vehicle
dataset: 1392x512 frames, 3-8 Cars per frame (5.5 on average), lognormal
widths with the mode near 45 px and two aspect modes (flat side views,
boxier rear views). It is reproduced here rather than imported so that the
benchmark inputs stay fixed when the tests change. The first n images of a
seed are the same for any scene size.

Everything is returned as KITTI label text with ``repr`` floats; parsing it
back gives the generated boxes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IMAGE_W = 1392.0
IMAGE_H = 512.0
KITTI_IMAGES = 7481

# Trailing KITTI fields (dimensions, location, rotation_y) carry no meaning
# for any benchmarked stage; fixed values keep label files small and stable.
_TAIL = "1.5 1.6 3.5 0.0 1.7 20.0 0.0"


@dataclass(frozen=True)
class Scene:
    """Generated label files as ``(image_id, text)`` plus the Car count."""

    labels: tuple[tuple[str, str], ...]
    n_gt: int

    @property
    def n_images(self) -> int:
        return len(self.labels)


def _label_line(x1: float, y1: float, x2: float, y2: float) -> str:
    return f"Car 0.0 0 0.0 {x1!r} {y1!r} {x2!r} {y2!r} {_TAIL}"


def road_scene(seed: int, n_images: int) -> Scene:
    """KITTI label text for ``n_images`` synthetic road frames.

    Each quantity comes from its own stream, drawn for up to 8 boxes per
    image in image order, so a longer scene only appends images. Box counts
    run through 3..8 in a seeded order within each block of six images, so
    the number of boxes, and with it the work of an op, hardly moves with
    the seed.
    """
    count, width, aspect, jitter, x, y = (
        np.random.default_rng(s) for s in np.random.SeedSequence(int(seed)).spawn(6)
    )
    slots = (n_images, 8)
    blocks = -(-n_images // 6)
    counts = (3 + count.permuted(np.tile(np.arange(6), (blocks, 1)), axis=1)).ravel()
    counts = counts[:n_images].tolist()
    widths = np.clip(np.exp(width.normal(math.log(45.0), 0.35, slots)), 16.0, 420.0)
    aspects = np.where(aspect.random(slots) < 0.5, 0.45, 0.85) + jitter.normal(0.0, 0.04, slots)
    heights = np.minimum(np.maximum(widths * aspects, 8.0), IMAGE_H - 2.0)
    xs = x.random(slots) * (IMAGE_W - widths)
    ys = y.random(slots) * (IMAGE_H - heights)
    rows = zip(xs.tolist(), ys.tolist(), widths.tolist(), heights.tolist())
    labels = []
    for i, (k, (x1s, y1s, ws, hs)) in enumerate(zip(counts, rows)):
        lines = [_label_line(x1, y1, x1 + w, y1 + h) for x1, y1, w, h in zip(x1s, y1s, ws, hs)][:k]
        labels.append((f"{i:06d}", "\n".join(lines) + "\n"))
    return Scene(labels=tuple(labels), n_gt=sum(counts))


def fold_manifest(seed: int, image_ids, n_folds: int = 6) -> str:
    """``image_id,fold_id`` CSV that partitions the images into ``n_folds``."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 6]))
    order = rng.permutation(len(image_ids))
    fold_of = {image_ids[j]: pos % n_folds for pos, j in enumerate(order)}
    rows = ["image_id,fold_id"] + [f"{i},fold{fold_of[i]}" for i in image_ids]
    return "\n".join(rows) + "\n"
