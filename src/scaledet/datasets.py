"""Annotation parsing and scale-distribution statistics.

Two input formats are supported:

* KITTI object labels: one ``.txt`` per image, each non-empty line carrying
  15+ whitespace-separated fields
  (type, truncated, occluded, alpha, bbox x1/y1/x2/y2, 3 dimensions,
  3 location, rotation_y, optional score).
* VOC annotations: one XML per image with ``size/width``, ``size/height``
  and ``object/name`` + ``object/bndbox`` children. VOC's 1-based inclusive
  corners are normalized into the continuous convention by subtracting 1
  from xmin/ymin, so a bndbox (100,100,200,200) becomes [99,99,200,200].

"DontCare" regions are parsed and kept (flagged through ``class_name``) but
excluded from statistics; evaluation treats them as ignore regions.

Parsers are pure functions on input text, so per-file parsing can run
concurrently and statistics merge associatively. Every input file of the
toolkit is read by ``read_input``: UTF-8, with any failure to read (missing,
a directory, not UTF-8) raised as one error naming the file.
``read_csv_rows`` adds the header and column checks of the CSV inputs.
Every output file is written by ``write_output``: UTF-8 with ``\n`` line
ends, and a file that cannot be written is a ConfigError naming it.
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidBoxError, ParseError
from .geometry import Box

__all__ = [
    "Annotation",
    "ImageAnnotations",
    "Histogram",
    "DatasetStats",
    "Fold",
    "DONTCARE_CLASS",
    "DEFAULT_WIDTH_BIN_EDGES",
    "DEFAULT_ASPECT_BIN_EDGES",
    "KITTI_IMAGE_W",
    "KITTI_IMAGE_H",
    "read_input",
    "read_csv_rows",
    "write_output",
    "parse_kitti_label",
    "parse_voc_xml",
    "check_edges",
    "bin_index",
    "make_histogram",
    "compute_stats",
    "stats_csv_rows",
    "load_dataset",
    "split_folds",
]

DONTCARE_CLASS = "DontCare"

# Width bins give the 30-60 px interval its own bin and stay open-ended at
# both extremes; aspect bins bracket the usual h/w range for vehicles.
DEFAULT_WIDTH_BIN_EDGES = (0.0, 30.0, 60.0, 90.0, 120.0, 180.0, 256.0, 384.0, 512.0, math.inf)
DEFAULT_ASPECT_BIN_EDGES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, math.inf)

# Default camera frame for KITTI label files, which do not carry image size.
KITTI_IMAGE_W = 1392.0
KITTI_IMAGE_H = 512.0


@dataclass(frozen=True)
class Annotation:
    """One labeled object.

    ``truncated`` is a ratio in [0,1] for KITTI and a 0/1 flag for VOC;
    ``occluded`` is KITTI's small-integer level and doubles as VOC's
    ``difficult`` flag. ``extras`` carries KITTI's remaining numeric fields
    (alpha, 3 dimensions, 3 location, rotation_y, optional score) untouched
    so a parsed line can be serialized back verbatim.
    """

    class_name: str
    box: Box
    truncated: float = 0.0
    occluded: int = 0
    source_image: str = ""
    extras: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.class_name:
            raise ValueError("class_name must be non-empty")

    @property
    def is_dontcare(self) -> bool:
        return self.class_name == DONTCARE_CLASS


@dataclass(frozen=True)
class ImageAnnotations:
    """All annotations of one image plus the image dimensions."""

    image_id: str
    image_w: float
    image_h: float
    annotations: tuple[Annotation, ...] = ()


def read_input(path, error=ParseError) -> str:
    """Text of the input file ``path``, decoded as UTF-8 with newlines kept as written.

    A leading byte-order mark is dropped. A file that cannot be read
    (missing, a directory, a NUL byte in the path) or is not UTF-8 raises
    ``error`` naming the file. The CLI passes ConfigError for the inputs
    that configure a run.
    """
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (OSError, ValueError) as exc:
        raise error(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from None


def read_csv_rows(path, header, error=ParseError):
    """Yield the data rows of the CSV input ``path`` as ``(line number, fields)``.

    The first row must equal ``header`` and every other non-blank row must
    have as many fields; otherwise ParseError names the file. A file that
    cannot be read raises ``error``, as in ``read_input``.
    """
    name = Path(path).name
    rows = csv.reader(io.StringIO(read_input(path, error), newline=""))
    try:
        first = next(rows, None)
        if first != list(header):
            got = ",".join(first) if first else "empty file"
            raise ParseError(f"{name}: expected header {','.join(header)}, got {got}")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{name}: line {lineno}: expected {len(header)} columns, got {len(row)}"
                )
            yield lineno, row
    except csv.Error as exc:
        raise ParseError(f"{name}: {exc}") from None


def write_output(path, content, header=None) -> None:
    """Write the output file ``path`` as UTF-8 with ``\n`` line ends.

    ``content`` is text, or with ``header`` the CSV rows to stream under it;
    ``csv.writer`` formats each cell (None as empty, a float as its repr).
    A file that cannot be written (a directory in its place, no permission,
    a NUL byte in the path) raises ConfigError naming the file.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if header is None:
                fh.write(content)
            else:
                csv.writer(fh, lineterminator="\n").writerows(chain([header], content))
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot write ({reason})") from None


def _num(fields: list[str], idx: int, lineno: int) -> float:
    try:
        return float(fields[idx])
    except ValueError:
        raise ParseError(
            f"line {lineno}: field {idx + 1} ({fields[idx]!r}) is not numeric"
        ) from None


def parse_kitti_label(text: str, image_id: str) -> list[Annotation]:
    """Parse the contents of one KITTI label file.

    Every non-empty line must carry at least 15 whitespace-separated fields;
    "DontCare" lines are kept and flagged via ``class_name``. Raises
    :class:`ParseError` with the offending line number on malformed input,
    including degenerate bounding boxes.
    """
    annotations: list[Annotation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 15:
            raise ParseError(f"line {lineno}: expected at least 15 fields, got {len(fields)}")
        class_name = fields[0]
        truncated = _num(fields, 1, lineno)
        occluded = _num(fields, 2, lineno)
        if not math.isfinite(occluded):
            raise ParseError(f"line {lineno}: field 3 ({fields[2]!r}) is not finite")
        coords = tuple(_num(fields, i, lineno) for i in (4, 5, 6, 7))
        try:
            box = Box(*coords)
        except InvalidBoxError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        extras = (_num(fields, 3, lineno),) + tuple(
            _num(fields, i, lineno) for i in range(8, len(fields))
        )
        annotations.append(
            Annotation(
                class_name=class_name,
                box=box,
                truncated=truncated,
                occluded=int(occluded),
                source_image=image_id,
                extras=extras,
            )
        )
    return annotations


def _xml_float(parent: ET.Element, tag: str, context: str) -> float:
    node = parent.find(tag)
    if node is None or node.text is None:
        raise ParseError(f"{context}: missing <{tag}>")
    try:
        return float(node.text)
    except ValueError:
        raise ParseError(f"{context}: <{tag}> value {node.text!r} is not numeric") from None


def parse_voc_xml(text: str, image_id: str | None = None) -> tuple[float, float, list[Annotation]]:
    """Parse one VOC annotation XML.

    Returns ``(image_w, image_h, annotations)``. Corner coordinates are
    normalized from the 1-based inclusive convention (subtract 1 from
    xmin/ymin), so the parsed width equals the pixel count xmax - xmin + 1.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"invalid XML: {exc}") from None
    size = root.find("size")
    if size is None:
        raise ParseError("missing <size> element")
    image_w = _xml_float(size, "width", "size")
    image_h = _xml_float(size, "height", "size")
    for tag, value in (("width", image_w), ("height", image_h)):
        if not 0 < value < math.inf:
            raise ParseError(f"size: <{tag}> must be positive and finite, got {value!r}")
    if image_id is None:
        fname = root.findtext("filename") or ""
        image_id = Path(fname).stem if fname else ""

    annotations: list[Annotation] = []
    for index, obj in enumerate(root.findall("object")):
        context = f"object {index}"
        name = (obj.findtext("name") or "").strip()
        if not name:
            raise ParseError(f"{context}: missing or empty <name>")
        bndbox = obj.find("bndbox")
        if bndbox is None:
            raise ParseError(f"{context}: missing bndbox")
        xmin = _xml_float(bndbox, "xmin", context)
        ymin = _xml_float(bndbox, "ymin", context)
        xmax = _xml_float(bndbox, "xmax", context)
        ymax = _xml_float(bndbox, "ymax", context)
        try:
            box = Box(xmin - 1.0, ymin - 1.0, xmax, ymax)
        except InvalidBoxError as exc:
            raise ParseError(f"{context}: {exc}") from None
        try:
            truncated = float(int(obj.findtext("truncated") or 0))
            difficult = int(obj.findtext("difficult") or 0)
        except ValueError:
            raise ParseError(f"{context}: <truncated> and <difficult> must be integers") from None
        annotations.append(
            Annotation(
                class_name=name,
                box=box,
                truncated=truncated,
                occluded=difficult,
                source_image=image_id,
            )
        )
    return image_w, image_h, annotations


@dataclass(frozen=True)
class Histogram:
    """Binned counts with explicit edges; end bins absorb out-of-range values."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def bin_bounds(self, index: int) -> tuple[float, float]:
        return (self.bin_edges[index], self.bin_edges[index + 1])

    def modal_bin(self) -> tuple[float, float]:
        """Bounds of the most populated bin (first one on ties)."""
        index = max(range(len(self.counts)), key=lambda i: (self.counts[i], -i))
        return self.bin_bounds(index)


def check_edges(edges) -> tuple[float, ...]:
    """``edges`` as floats; raises ConfigError unless there are 2+ and they strictly increase."""
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2 or not np.all(np.diff(edges) > 0):
        raise ConfigError(f"need 2 or more strictly increasing bin edges, got {list(edges)}")
    return edges


def bin_index(values, edges) -> np.ndarray:
    """Bin of each value over checked ``edges``; out-of-range values go to the end bins."""
    idx = np.searchsorted(edges, np.asarray(values, dtype=np.float64), side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def make_histogram(values, bin_edges) -> Histogram:
    """Histogram ``values`` over ``bin_edges``; out-of-range values fall into
    the first/last bin so no mass is ever dropped."""
    edges = check_edges(bin_edges)
    counts = np.bincount(bin_index(list(values), edges), minlength=len(edges) - 1)
    return Histogram(bin_edges=edges, counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class DatasetStats:
    """Scale/aspect distribution of a set of annotations.

    Histograms cover the annotations that pass the class filter and are not
    DontCare; ``per_class`` counts every input annotation.
    """

    width_histogram: Histogram
    height_histogram: Histogram
    sqrt_area_histogram: Histogram
    aspect_histogram: Histogram
    per_class: dict[str, int] = field(default_factory=dict)
    image_count: int = 0
    annotation_count: int = 0


def compute_stats(
    annotations,
    class_filter: str | None = None,
    bin_edges=DEFAULT_WIDTH_BIN_EDGES,
    image_count: int | None = None,
) -> DatasetStats:
    """Histogram widths, heights, sqrt-areas, and h/w aspects.

    ``bin_edges`` applies to the three pixel-valued histograms; aspect uses
    ``DEFAULT_ASPECT_BIN_EDGES``. When ``image_count`` is None it falls back
    to the number of distinct source images among the annotations.
    """
    annotations = list(annotations)
    per_class = Counter(a.class_name for a in annotations)
    kept = [
        a
        for a in annotations
        if not a.is_dontcare and (class_filter is None or a.class_name == class_filter)
    ]
    if image_count is None:
        image_count = len({a.source_image for a in annotations})
    widths = [a.box.width for a in kept]
    heights = [a.box.height for a in kept]
    sqrt_areas = [math.sqrt(a.box.area) for a in kept]
    aspects = [a.box.height / a.box.width for a in kept]
    return DatasetStats(
        width_histogram=make_histogram(widths, bin_edges),
        height_histogram=make_histogram(heights, bin_edges),
        sqrt_area_histogram=make_histogram(sqrt_areas, bin_edges),
        aspect_histogram=make_histogram(aspects, DEFAULT_ASPECT_BIN_EDGES),
        per_class=dict(sorted(per_class.items())),
        image_count=image_count,
        annotation_count=len(kept),
    )


def stats_csv_rows(stats: DatasetStats) -> list[tuple[str, float, float, int]]:
    """Flatten all histograms into (histogram_name, bin_lo, bin_hi, count) rows."""
    rows: list[tuple[str, float, float, int]] = []
    for name, hist in (
        ("width", stats.width_histogram),
        ("height", stats.height_histogram),
        ("sqrt_area", stats.sqrt_area_histogram),
        ("aspect", stats.aspect_histogram),
    ):
        for i, count in enumerate(hist.counts):
            lo, hi = hist.bin_bounds(i)
            rows.append((name, lo, hi, count))
    return rows


def _load_image(file: Path, fmt: str, image_w: float, image_h: float) -> ImageAnnotations:
    text = read_input(file)
    try:
        if fmt == "voc":
            image_w, image_h, anns = parse_voc_xml(text, file.stem)
        else:
            anns = parse_kitti_label(text, file.stem)
    except ParseError as exc:
        raise ParseError(f"{file.name}: {exc}") from None
    return ImageAnnotations(file.stem, image_w, image_h, tuple(anns))


def load_dataset(
    path,
    fmt: str,
    image_w: float = KITTI_IMAGE_W,
    image_h: float = KITTI_IMAGE_H,
    skip_bad: bool = False,
) -> tuple[list[ImageAnnotations], list[str]]:
    """Load every annotation file of format ``fmt`` under ``path``, sorted by name.

    ``fmt`` is ``"kitti"`` (``*.txt`` label files, all of size ``image_w`` x
    ``image_h``) or ``"voc"`` (``*.xml`` files, which carry their size).
    Returns ``(images, skipped)``. A file that cannot be read or parsed
    raises ParseError naming it, unless ``skip_bad`` is set, in which case
    its message goes to ``skipped`` and loading goes on.
    """
    if fmt not in ("kitti", "voc"):
        raise ConfigError(f"unknown dataset format {fmt!r} (expected 'kitti' or 'voc')")
    directory = Path(path)
    if not directory.is_dir():
        raise ParseError(f"not a directory: {directory}")
    images: list[ImageAnnotations] = []
    skipped: list[str] = []
    for file in sorted(directory.glob("*.txt" if fmt == "kitti" else "*.xml")):
        try:
            images.append(_load_image(file, fmt, image_w, image_h))
        except ParseError as exc:
            if not skip_bad:
                raise
            skipped.append(str(exc))
    return images, skipped


@dataclass(frozen=True)
class Fold:
    """One random train/test division of a list of image ids."""

    fold_id: int
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def split_folds(image_ids, n_folds: int = 6, test_size: int = 1000, seed: int = 0) -> list[Fold]:
    """Draw ``n_folds`` independent random train/test divisions.

    Each fold samples ``test_size`` test images without replacement and
    trains on the rest, the scheme used for repeated cross-validation over
    a single pool of images.
    """
    ids = [str(i) for i in image_ids]
    if n_folds < 1:
        raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
    if not 0 < test_size < len(ids):
        raise ConfigError(
            f"test_size must be in (0, {len(ids)}), got {test_size}"
        )
    folds = []
    for fold_id in range(n_folds):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), fold_id]))
        order = rng.permutation(len(ids))
        test = tuple(ids[i] for i in sorted(order[:test_size]))
        train = tuple(ids[i] for i in sorted(order[test_size:]))
        folds.append(Fold(fold_id=fold_id, train_ids=train, test_ids=test))
    return folds
