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
``parse_kitti_label``, which raises the per-line message. Only VOC loads
through per-box objects: ``parse_voc_xml`` builds the ``Annotation`` objects
of one file, and ``as_label_table`` turns them into the table. Every
subcommand, ``simulate`` included, then runs on the table. Objects are the
library's edge: ``load_dataset`` loads the table as one ``ImageAnnotations``
per file, and ``as_label_table`` turns object lists into a table.

Parsers are pure functions on input text, so files can be parsed
concurrently. A KITTI directory is parsed in
``min(usable CPUs, files // 1024)`` contiguous chunks of its files by name
(at least one), every chunk after the first in a forked child that sends
its columns back through a pipe. A chunk whose child fails is parsed again
in the loading process, which also parses every chunk itself when it has
other threads or no ``os.fork``; so the table, the skipped files and every
error are the same for any number of chunks. Every input file of the
toolkit is read by ``read_input``: UTF-8, with any failure to read
(missing, a directory, not UTF-8) raised as one error naming the file.
``read_csv_rows`` adds the header and column checks of the CSV inputs.
Every output file is written by ``write_output``: UTF-8 with ``\n`` line
ends, and a file that cannot be written is a ConfigError naming it. It
formats CSV rows with ``csv.writer``, or takes text already formatted, as
``eval``'s ``pr.csv`` is.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pickle
import signal
import threading
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidBoxError, ParseError
from .geometry import Box, Record, boxes_to_array, record, valid_boxes

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


@record
class Annotation(Record):
    """One labeled object; a label's other fields are checked at parse time but not kept."""

    class_name: str
    box: Box
    source_image: str

    def __init__(self, class_name: str, box: Box, source_image: str = "") -> None:
        if not (isinstance(class_name, str) and isinstance(source_image, str)):
            name, value = (("source_image", source_image) if isinstance(class_name, str)
                           else ("class_name", class_name))
            raise TypeError(f"annotation {name} must be a str, got {value!r}")
        if not class_name:
            raise ValueError("class_name must be non-empty")
        if not isinstance(box, Box):
            raise TypeError(f"annotation box must be a Box, got {box!r}")
        set_class_name, set_box, set_source_image = self._setters
        set_class_name(self, class_name)
        set_box(self, box)
        set_source_image(self, source_image)

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
    Callers may pass CSV they formatted as text: ``eval`` writes ``pr.csv``
    with one ``%r`` format call, the same bytes as ``csv.writer``.
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
    # Neighbours are compared, not subtracted: a gap can overflow, inf - inf is NaN.
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
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


# Label fields converted to floats per batch: their strings take far more memory.
_TOKENS_PER_CONVERSION = 1 << 16


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
        if len(tokens) >= _TOKENS_PER_CONVERSION:
            chunks.append(np.array(tokens, dtype=np.float64))
            done, tokens = done + len(tokens), []
    values = np.concatenate([*chunks, np.array(tokens, dtype=np.float64)])
    columns = values[np.array(first, dtype=np.intp)[:, None] + np.arange(7)]
    occluded, boxes = columns[:, 1], columns[:, 3:]
    return owner, classes, boxes, np.isfinite(occluded) & valid_boxes(boxes)


def _read_files(files) -> tuple[list[str], dict[int, str]]:
    """Text of each (name, path) of ``files``, "" where it cannot be read,
    and the message of each such file by index."""
    texts, errors = [], {}
    for k, (_, path) in enumerate(files):
        try:
            texts.append(read_input(path))
        except ParseError as exc:
            texts.append("")
            errors[k] = str(exc)
    return texts, errors


def _kitti_chunk(files, ids):
    """Owner index, class and box of each label line of the KITTI ``files``
    ((name, path) pairs, of images ``ids``) that parse, and the message of
    each file that does not, by index.

    Lines are checked as columns; a file that fails a check is parsed again
    by ``parse_kitti_label`` for its message, and the columns are rebuilt
    without the files that fail.
    """
    texts, errors = _read_files(files)
    try:
        owner, classes, boxes, ok = _kitti_columns(texts)
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
        owner, classes, boxes, ok = _kitti_columns(texts)
        if not ok.all():
            raise AssertionError("a label line fails the column checks but parses")
    return np.array(owner, dtype=np.intp), classes, boxes, errors


# Label files per chunk of a forked parse, at least. On a 2-core VM (15
# alternating runs per size) two chunks lost to one at 250 files, drew at
# 1,000 and won at 2,000.
_FILES_PER_CHUNK = 1024


def _fork(run, args):
    """(pid, reading end of a pipe) of a child that writes ``run(*args)``,
    pickled, into the pipe; None when no child starts."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(run(*args), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)  # never unwind into the parent's code, flush or atexit
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _run_chunks(run, chunks) -> list:
    """``[run(*args) for args in chunks]``, each chunk after the first in a
    forked child when this process can fork: ``os.fork`` exists and no
    other thread runs.

    A chunk whose child does not start, exits nonzero or sends what does not
    unpickle runs again here, so every result and exception is the one this
    process gives alone. Every child is reaped before this returns or
    raises, and killed first when an exception unwinds.
    """
    forks = hasattr(os, "fork") and threading.active_count() == 1
    children = []  # (pid, pipe) of each chunk after the first; None: no child
    try:
        for args in chunks[1:]:
            children.append(_fork(run, args) if forks else None)
        results = [run(*chunks[0])]
        sent = [child[1].read() if child else b"" for child in children]
    except BaseException:
        for child in filter(None, children):
            os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        for child in filter(None, children):
            child[1].close()
        status = [os.waitpid(child[0], 0)[1] if child else 1 for child in children]
    for args, data, code in zip(chunks[1:], sent, status):
        result = None
        if code == 0:
            with contextlib.suppress(pickle.UnpicklingError, EOFError):
                result = pickle.loads(data)
        results.append(run(*args) if result is None else result)
    return results


def load_label_table(path, fmt: str, image_w: float = KITTI_IMAGE_W, image_h: float = KITTI_IMAGE_H,
                     skip_bad: bool = False) -> tuple[LabelTable, list[str]]:
    """Load every annotation file of format ``fmt`` under ``path``, by name, as one LabelTable.

    ``fmt`` is ``"kitti"`` (``*.txt`` label files, all of size ``image_w`` x
    ``image_h``) or ``"voc"`` (``*.xml`` files, which carry their size).
    Returns ``(table, skipped)``. A file that cannot be read or parsed
    raises ParseError naming it (the first such file by name), unless
    ``skip_bad`` is set, in which case its message goes to ``skipped`` and
    the file is left out. KITTI files are parsed in contiguous chunks, one
    per usable CPU and at most one per 1,024 files; every chunk after the
    first is parsed in a forked child (``_kitti_chunk``). The result is the
    same for any number of chunks.
    """
    if fmt not in ("kitti", "voc"):
        raise ConfigError(f"unknown dataset format {fmt!r} (expected 'kitti' or 'voc')")
    directory = Path(path)
    if not directory.is_dir():
        raise ParseError(f"not a directory: {directory}")
    suffix = ".txt" if fmt == "kitti" else ".xml"
    try:
        with os.scandir(directory) as entries:
            names = sorted(entry.name for entry in entries if entry.name.endswith(suffix))
    except OSError as exc:
        raise ParseError(f"{directory}: cannot read ({exc.strerror or exc})") from None
    base = "" if str(directory) == "." else str(directory)  # as Path: "a.txt", not "./a.txt"
    files = [(name, os.path.join(base, name)) for name in names]
    ids = [name[:-4] or name for name in names]  # Path.stem: a bare ".txt" keeps its name
    if fmt == "voc":
        texts, errors = _read_files(files)
        images = []
        for k in [k for k in range(len(files)) if k not in errors]:
            try:
                w, h, parsed = parse_voc_xml(texts[k], ids[k])
            except ParseError as exc:
                errors[k] = f"{files[k][0]}: {exc}"
                continue
            images.append(ImageAnnotations(ids[k], w, h, tuple(parsed)))
        table = as_label_table(images)
    else:
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        n = max(1, min(cpus, len(files) // _FILES_PER_CHUNK))
        bounds = [len(files) * i // n for i in range(n + 1)]
        parts = _run_chunks(_kitti_chunk, [(files[lo:hi], ids[lo:hi])
                                           for lo, hi in zip(bounds, bounds[1:])])
        owner = np.concatenate([part[0] + lo for part, lo in zip(parts, bounds)])
        errors = {lo + k: message for part, lo in zip(parts, bounds)
                  for k, message in part[3].items()}
        kept = [k for k in range(len(files)) if k not in errors]
        table = LabelTable([ids[k] for k in kept], [(image_w, image_h)] * len(kept),
                           np.searchsorted(kept, owner), [c for part in parts for c in part[1]],
                           np.concatenate([part[2] for part in parts]))
    if errors and not skip_bad:
        raise ParseError(errors[min(errors)])
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
