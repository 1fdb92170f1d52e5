"""Shared fixtures: synthetic vehicle-style datasets and tiny label dirs."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest

from scaledet.datasets import Annotation, ImageAnnotations
from scaledet.geometry import Box


def synthetic_vehicle_dataset(
    seed: int,
    n_images: int = 40,
    image_w: float = 1392.0,
    image_h: float = 512.0,
    width_sampler=None,
) -> list[ImageAnnotations]:
    """Road-scene-like ground truth: many small objects, two aspect modes.

    Default widths are lognormal with the mode just under 40 px, so the
    modal width bin of the default [.., 30, 60, ..] edges is [30, 60).
    Aspects split between flat side views (~0.45 h/w) and boxier rear
    views (~0.85 h/w).
    """
    rng = np.random.default_rng(seed)
    images = []
    for i in range(n_images):
        image_id = f"{i:06d}"
        annotations = []
        for _ in range(int(rng.integers(3, 9))):
            if width_sampler is not None:
                width = float(width_sampler(rng))
            else:
                width = float(np.exp(rng.normal(math.log(45.0), 0.35)))
            width = min(max(width, 16.0), 420.0)
            aspect = float(rng.choice([0.45, 0.85]) + rng.normal(0.0, 0.04))
            height = min(max(width * aspect, 8.0), image_h - 2.0)
            x1 = float(rng.uniform(0.0, image_w - width))
            y1 = float(rng.uniform(0.0, image_h - height))
            annotations.append(
                Annotation(
                    class_name="Car",
                    box=Box(x1, y1, x1 + width, y1 + height),
                    source_image=image_id,
                )
            )
        images.append(ImageAnnotations(image_id, image_w, image_h, tuple(annotations)))
    return images


def box_from_center(cx: float, cy: float, w: float, h: float) -> Box:
    """The box of width ``w`` and height ``h`` centered on ``(cx, cy)``."""
    return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def scale_box(box: Box, e: int) -> Box:
    """``box`` with every coordinate times 2**e, which is exact."""
    return Box(*(math.ldexp(c, e) for c in astuple(box)))


def kitti_label_line(annotation: Annotation) -> str:
    """Serialize an annotation to a 15-field label line.

    Floats are written with ``repr`` so reparsing the line reproduces an
    identical Annotation; truncation, occlusion, alpha and the 3D fields,
    which are not kept, are 0.
    """
    b = annotation.box
    fields = [
        annotation.class_name,
        "0.0",
        "0",
        "0",
        repr(float(b.x1)),
        repr(float(b.y1)),
        repr(float(b.x2)),
        repr(float(b.y2)),
    ]
    fields.extend(["0"] * 7)
    return " ".join(fields)


# The float64 columns of a CoverageReport, besides its image ids.
COVERAGE_COLUMNS = ("gt_width", "best_scale", "best_ratio", "best_iou")


def assert_bit_equal(got, want) -> None:
    """Arrays ``got`` and ``want`` agree in dtype, shape and every bit."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), (got.dtype, got.shape,
                                                                 want.dtype, want.shape)
    assert got.tobytes() == want.tobytes(), (got.tolist(), want.tolist())


def assert_same_coverage(got, want) -> None:
    """Two coverage reports agree: rows, anchors per image, image ids, and
    every float64 column bit for bit."""
    assert got.rows == want.rows
    assert got.anchors_per_image == want.anchors_per_image
    assert got.image_ids == want.image_ids
    for name in COVERAGE_COLUMNS:
        assert getattr(got, name).dtype == np.float64, name
        assert_bit_equal(getattr(got, name), getattr(want, name))


@pytest.fixture
def vehicle_dataset() -> list[ImageAnnotations]:
    return synthetic_vehicle_dataset(seed=20240817)


KITTI_LINE = (
    "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
)

KITTI_FILE_MIXED = "\n".join(
    [
        KITTI_LINE,
        "Pedestrian 0.10 1 0.5 100.0 120.0 130.0 200.0 1.8 0.6 0.9 2.0 1.7 12.0 0.4",
        "DontCare -1 -1 -10 700.0 160.0 760.0 190.0 -1 -1 -1 -1000 -1000 -1000 -10",
    ]
)

VOC_XML = """<annotation>
  <filename>000123.jpg</filename>
  <size><width>500</width><height>375</height><depth>3</depth></size>
  <object>
    <name>car</name>
    <truncated>0</truncated>
    <difficult>0</difficult>
    <bndbox><xmin>100</xmin><ymin>100</ymin><xmax>200</xmax><ymax>200</ymax></bndbox>
  </object>
</annotation>
"""


@pytest.fixture
def kitti_dir(tmp_path):
    """Three small KITTI label files."""
    d = tmp_path / "kitti_labels"
    d.mkdir()
    (d / "000000.txt").write_text(KITTI_FILE_MIXED + "\n")
    (d / "000001.txt").write_text(KITTI_LINE + "\n")
    (d / "000002.txt").write_text(
        "Car 0.00 0 0.0 30.0 40.0 75.0 60.0 1.5 1.6 3.5 0.0 1.7 20.0 0.0\n"
    )
    return d
