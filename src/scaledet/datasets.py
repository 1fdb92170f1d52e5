"""Annotation parsing and scale-distribution statistics.

Two input formats are supported:

* KITTI object labels: one ``.txt`` per image, each non-empty line carrying
  15+ whitespace-separated fields
  (type, truncated, occluded, alpha, bbox x1/y1/x2/y2, 3 dimensions,
  3 location, rotation_y, optional score). Every field after the type must
  be numeric and the occlusion finite; only the type and the box are kept.
* VOC annotations: one XML per image with ``size/width``, ``size/height``
  and ``object/name`` + ``object/bndbox`` children. VOC's 1-based inclusive
  corners are normalized into the continuous convention by subtracting 1
  from xmin/ymin, so a bndbox (100,100,200,200) becomes [99,99,200,200].

"DontCare" regions are parsed and kept (flagged through ``class_name``) but
excluded from statistics; evaluation treats them as ignore regions. VOC's
``<truncated>`` and ``<difficult>`` must be integers but are not kept.

A directory loads as one ``LabelTable`` (``load_label_table``): columns
with one row per object. KITTI lines are split and converted in one pass
and checked as arrays; a file that fails a check is parsed again by
``parse_kitti_label``, which raises the per-line message. Every subcommand,
``simulate`` included, runs on the table and builds no per-box objects.
Objects are the library's edge: ``load_dataset`` loads the table as one
``ImageAnnotations`` per file, and ``as_label_table`` turns object lists
into a table.

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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidBoxError, ParseError
from .geometry import Box, boxes_to_array, valid_boxes

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
    "load_label_table",
    "LabelTable",
    "as_label_table",
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
    """One labeled object; a label's other fields are checked at parse time but not kept."""

    class_name: str
    box: Box
    source_image: str = ""

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
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
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


def parse_kitti_label(text: str, image_id: str) -> list[Annotation]:
    """Parse the contents of one KITTI label file.

    Every non-empty line must carry at least 15 whitespace-separated fields,
    all numeric after the class name; "DontCare" lines are kept and flagged
    via ``class_name``. Raises :class:`ParseError` with the offending line
    number on malformed input, including degenerate bounding boxes; of
    several non-numeric fields, the first is named.
    """
    annotations: list[Annotation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) < 15:
            raise ParseError(f"line {lineno}: expected at least 15 fields, got {len(fields)}")
        try:
            _, occluded, _, x1, y1, x2, y2, *_ = map(float, fields[1:])
        except ValueError:
            for k, token in enumerate(fields[1:], start=2):
                try:
                    float(token)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: field {k} ({token!r}) is not numeric"
                    ) from None
            raise
        if not math.isfinite(occluded):
            raise ParseError(f"line {lineno}: field 3 ({fields[2]!r}) is not finite")
        try:
            box = Box(x1, y1, x2, y2)
        except InvalidBoxError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        annotations.append(Annotation(class_name=fields[0], box=box, source_image=image_id))
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
            int(obj.findtext("truncated") or 0)
            int(obj.findtext("difficult") or 0)
        except ValueError:
            raise ParseError(f"{context}: <truncated> and <difficult> must be integers") from None
        annotations.append(Annotation(class_name=name, box=box, source_image=image_id))
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
    counts = np.bincount(bin_index(values, edges), minlength=len(edges) - 1)
    return Histogram(bin_edges=edges, counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class DatasetStats:
    """Scale/aspect distribution of a set of annotations.

    Histograms cover the annotations that pass the class filter and are not
    DontCare, so ``width_histogram.total`` is their count; ``per_class``
    counts every input annotation.
    """

    width_histogram: Histogram
    height_histogram: Histogram
    sqrt_area_histogram: Histogram
    aspect_histogram: Histogram
    per_class: dict[str, int] = field(default_factory=dict)
    image_count: int = 0


def compute_stats(labels, class_filter: str | None = None,
                  bin_edges=DEFAULT_WIDTH_BIN_EDGES) -> DatasetStats:
    """Histogram widths, heights, sqrt-areas, and h/w aspects of ``labels``.

    ``labels`` is a LabelTable or what ``as_label_table`` takes; ``image_count``
    is its number of images. ``bin_edges`` applies to the three pixel-valued
    histograms; aspect uses ``DEFAULT_ASPECT_BIN_EDGES``.
    """
    table = as_label_table(labels)
    kept = table.boxes[table.counted(class_filter)]
    widths, heights = kept[:, 2] - kept[:, 0], kept[:, 3] - kept[:, 1]
    with np.errstate(over="ignore"):  # a thin box's h/w can overflow: inf is in the last bin
        aspects = heights / widths
    return DatasetStats(
        width_histogram=make_histogram(widths, bin_edges),
        height_histogram=make_histogram(heights, bin_edges),
        sqrt_area_histogram=make_histogram(np.sqrt(widths * heights), bin_edges),
        aspect_histogram=make_histogram(aspects, DEFAULT_ASPECT_BIN_EDGES),
        per_class=dict(sorted(Counter(table.classes).items())),
        image_count=len(table.image_ids),
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


class LabelTable(NamedTuple):
    """The labels of one directory as columns, one row per object, in file and line order."""

    image_ids: list[str]  # of each loaded file, in name order
    sizes: list[tuple[float, float]]  # (image_w, image_h) of each loaded file
    image: np.ndarray  # index into image_ids of each row
    classes: list[str]
    boxes: np.ndarray  # float64 [n, 4]: x1, y1, x2, y2

    def counted(self, class_filter: str | None = None) -> np.ndarray:
        """Indices of the rows that count as ground truth: not DontCare, and of
        ``class_filter`` when it is given."""
        return np.flatnonzero([c != DONTCARE_CLASS and (class_filter is None or c == class_filter)
                               for c in self.classes])


def _kitti_columns(texts: list[str]):
    """File index, class and box of each label line of ``texts``, and whether
    the line passes the checks of ``parse_kitti_label``.

    Raises ValueError when a field after the class is not numeric.
    """
    owner, classes, first, chunks, tokens = [], [], [], [], []
    done = 0  # tokens converted into chunks; first: of each line's fields among all tokens
    for k, text in enumerate(texts):
        for fields in map(str.split, text.splitlines()):
            if fields:
                owner.append(k)
                classes.append(fields[0])
                first.append(done + len(tokens))
                # A line of fewer than 15 fields reads as NaNs, which fail the occlusion check.
                tokens += fields[1:] if len(fields) >= 15 else ("nan",) * 14
        if len(tokens) >= 1 << 16:  # convert in chunks: the strings take far more memory
            chunks.append(np.array(tokens, dtype=np.float64))
            done, tokens = done + len(tokens), []
    values = np.concatenate([*chunks, np.array(tokens, dtype=np.float64)])
    columns = values[np.array(first, dtype=np.intp)[:, None] + np.arange(7)]
    occluded, boxes = columns[:, 1], columns[:, 3:]
    return owner, classes, boxes, np.isfinite(occluded) & valid_boxes(boxes)


def load_label_table(path, fmt: str, image_w: float = KITTI_IMAGE_W, image_h: float = KITTI_IMAGE_H,
                     skip_bad: bool = False) -> tuple[LabelTable, list[str]]:
    """Load every annotation file of format ``fmt`` under ``path``, by name, as one LabelTable.

    ``fmt`` is ``"kitti"`` (``*.txt`` label files, all of size ``image_w`` x
    ``image_h``) or ``"voc"`` (``*.xml`` files, which carry their size).
    Returns ``(table, skipped)``. A file that cannot be read or parsed
    raises ParseError naming it (the first such file by name), unless
    ``skip_bad`` is set, in which case its message goes to ``skipped`` and
    the file is left out. KITTI lines are checked as columns; a file that
    fails a check is parsed again by ``parse_kitti_label`` for its message.
    """
    if fmt not in ("kitti", "voc"):
        raise ConfigError(f"unknown dataset format {fmt!r} (expected 'kitti' or 'voc')")
    directory = Path(path)
    if not directory.is_dir():
        raise ParseError(f"not a directory: {directory}")
    files = sorted((p.name, str(p)) for p in directory.glob("*.txt" if fmt == "kitti" else "*.xml"))
    ids = [name[:-4] or name for name, _ in files]  # Path.stem: a bare ".txt" keeps its name
    sizes = [(image_w, image_h)] * len(files)
    texts, errors = [], {}  # errors: file index -> message
    for k, (_, file) in enumerate(files):
        try:
            texts.append(read_input(file))
        except ParseError as exc:
            texts.append("")
            errors[k] = str(exc)
    if fmt == "voc":
        anns = []  # (file index, annotation)
        for k in [k for k in range(len(files)) if k not in errors]:
            try:
                w, h, parsed = parse_voc_xml(texts[k], ids[k])
            except ParseError as exc:
                errors[k] = f"{files[k][0]}: {exc}"
                continue
            sizes[k] = (w, h)
            anns += [(k, a) for a in parsed]
        owner = [k for k, _ in anns]
        columns = ([a.class_name for _, a in anns], boxes_to_array([a.box for _, a in anns]))
    else:
        try:
            owner, *columns, ok = _kitti_columns(texts)
            suspects = sorted({owner[i] for i in np.flatnonzero(~ok)})
        except ValueError:
            suspects = range(len(texts))
        for k in suspects:
            try:
                parse_kitti_label(texts[k], ids[k])
            except ParseError as exc:
                errors[k] = f"{files[k][0]}: {exc}"
        if suspects:
            texts = ["" if k in errors else text for k, text in enumerate(texts)]
            owner, *columns, ok = _kitti_columns(texts)
            if not ok.all():
                raise AssertionError("a label line fails the column checks but parses")
    if errors and not skip_bad:
        raise ParseError(errors[min(errors)])
    kept = [k for k in range(len(files)) if k not in errors]
    table = LabelTable([ids[k] for k in kept], [sizes[k] for k in kept],
                       np.searchsorted(kept, owner), *columns)
    return table, [errors[k] for k in sorted(errors)]


def load_dataset(path, fmt: str, image_w: float = KITTI_IMAGE_W, image_h: float = KITTI_IMAGE_H,
                 skip_bad: bool = False) -> tuple[list[ImageAnnotations], list[str]]:
    """``load_label_table`` as objects: ``(images, skipped)``, one ImageAnnotations per file."""
    table, skipped = load_label_table(path, fmt, image_w, image_h, skip_bad)
    sources = [table.image_ids[i] for i in table.image.tolist()]
    anns = [Annotation(cls, Box(*box), source)
            for cls, box, source in zip(table.classes, table.boxes.tolist(), sources)]
    ends = np.cumsum(np.bincount(table.image, minlength=len(table.image_ids))).tolist()
    return [ImageAnnotations(image_id, w, h, tuple(anns[lo:hi])) for image_id, (w, h), lo, hi
            in zip(table.image_ids, table.sizes, [0] + ends, ends)], skipped


def as_label_table(labels) -> LabelTable:
    """``labels`` as a LabelTable; a LabelTable passes through unchanged.

    An ImageAnnotations list gives one image per item. An Annotation list
    gives one image of the KITTI frame size per distinct ``source_image``.
    """
    if isinstance(labels, LabelTable):
        return labels
    labels = list(labels)
    if all(isinstance(item, ImageAnnotations) for item in labels):
        ids = [image.image_id for image in labels]
        sizes = [(image.image_w, image.image_h) for image in labels]
        image = np.repeat(np.arange(len(labels)), [len(image.annotations) for image in labels])
        anns = [a for image in labels for a in image.annotations]
    else:
        codes: dict[str, int] = {}
        image = [codes.setdefault(a.source_image, len(codes)) for a in labels]
        anns, ids, sizes = labels, list(codes), [(KITTI_IMAGE_W, KITTI_IMAGE_H)] * len(codes)
    return LabelTable(ids, sizes, np.asarray(image, dtype=np.intp), [a.class_name for a in anns],
                      boxes_to_array([a.box for a in anns]))


@dataclass(frozen=True)
class Fold:
    """One random train/test division of a list of image ids; its id is its
    index in ``split_folds``' list."""

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
        folds.append(Fold(train_ids=train, test_ids=test))
    return folds
