import ast
import contextlib
import errno
import importlib
import math
import os
import pkgutil
import re
import signal
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scaledet
from conftest import (KITTI_FILE_MIXED, KITTI_LINE, VOC_XML, assert_same_coverage, kitti_label_line,
                      synthetic_vehicle_dataset)
from scaledet.anchors import AnchorConfig, coverage
from scaledet import datasets
from scaledet.cli import main, read_key_values
from scaledet.datasets import (
    DEFAULT_WIDTH_BIN_EDGES,
    Annotation,
    ImageAnnotations,
    as_label_table,
    check_edges,
    compute_stats,
    load_dataset,
    load_label_table,
    make_histogram,
    parse_kitti_label,
    parse_voc_xml,
    read_csv_rows,
    read_input,
    split_folds,
    write_output,
)
from scaledet.errors import ConfigError, ParseError
from scaledet.evaluation import read_detections_csv
from scaledet.geometry import Box, boxes_to_array


def _not_numeric(token):
    try:
        float(token)
    except ValueError:
        return True
    return False


class TestKittiParsing:
    def test_single_line(self):
        anns = parse_kitti_label(KITTI_LINE, "000000")
        assert len(anns) == 1
        a = anns[0]
        assert a.class_name == "Car"
        assert a.box == Box(587.01, 173.33, 614.12, 200.12)
        assert a.source_image == "000000"

    def test_empty_class_name_rejected(self):
        with pytest.raises(ValueError) as info:
            Annotation(class_name="", box=Box(0, 0, 10, 10))
        assert str(info.value) == "class_name must be non-empty"

    def test_empty_file(self):
        assert parse_kitti_label("", "x") == []
        assert parse_kitti_label("\n  \n", "x") == []

    def test_short_line_rejected(self):
        bad = " ".join(KITTI_LINE.split()[:14])
        with pytest.raises(ParseError, match="line 1"):
            parse_kitti_label(bad, "x")

    def test_non_numeric_bbox_rejected(self):
        fields = KITTI_LINE.split()
        fields[4] = "left"
        with pytest.raises(ParseError, match="field 5"):
            parse_kitti_label(" ".join(fields), "x")

    def test_error_names_later_line(self):
        text = KITTI_LINE + "\n" + "Car 0 0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_kitti_label(text, "x")

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_non_finite_occlusion_rejected(self, level):
        fields = KITTI_LINE.split()
        fields[2] = level
        with pytest.raises(ParseError, match="line 1: field 3"):
            parse_kitti_label(" ".join(fields), "x")

    def test_degenerate_box_rejected(self):
        fields = KITTI_LINE.split()
        fields[6] = fields[4]  # x2 == x1
        with pytest.raises(ParseError, match="line 1"):
            parse_kitti_label(" ".join(fields), "x")

    def test_infinite_extent_rejected(self):
        fields = KITTI_LINE.split()
        fields[4], fields[6] = "-1e308", "1e308"
        with pytest.raises(ParseError, match="line 1: .*extent"):
            parse_kitti_label(" ".join(fields), "x")

    def test_dontcare_kept_and_flagged(self):
        anns = parse_kitti_label(KITTI_FILE_MIXED, "img")
        assert [a.class_name for a in anns] == ["Car", "Pedestrian", "DontCare"]
        assert anns[2].is_dontcare

    def test_detection_style_16th_field(self):
        assert parse_kitti_label(KITTI_LINE + " 0.87", "x") == parse_kitti_label(KITTI_LINE, "x")

    @given(st.integers(1, 15), st.text(st.characters(blacklist_categories=("Z", "C")),
                                       min_size=1, max_size=8).filter(_not_numeric),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_non_numeric_field_named(self, index, token, scored):
        # Column ``index + 1`` of a 15-field line, or of a 16-field one
        # (always when the fault is in the 16th field).
        fields = (KITTI_LINE + " 0.87").split()[: max(15 + scored, index + 1)]
        fields[index] = token
        with pytest.raises(ParseError) as info:
            parse_kitti_label("\n" + " ".join(fields), "x")
        assert str(info.value) == f"line 2: field {index + 1} ({token!r}) is not numeric"

    def test_first_non_numeric_field_named(self):
        # Alpha (field 4) precedes the box; the box coordinate is not named.
        fields = KITTI_LINE.split()
        fields[3], fields[4], fields[9] = "alpha", "left", "h"
        with pytest.raises(ParseError, match=r"^line 1: field 4 \('alpha'\) is not numeric$"):
            parse_kitti_label(" ".join(fields), "x")

    def test_round_trip(self):
        for ann in parse_kitti_label(KITTI_FILE_MIXED, "img"):
            again = parse_kitti_label(kitti_label_line(ann), "img")
            assert again == [ann]

    @given(
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
        st.floats(min_value=1e-3, max_value=500, allow_nan=False),
        st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_floats(self, x1, w, truncated):
        line = f"Car {truncated!r} 1 -0.5 {x1!r} 10.0 {(x1 + w)!r} 20.5 1.0 2.0 3.0 4.0 5.0 6.0 7.0"
        parsed = parse_kitti_label(line, "img")
        assert parse_kitti_label(kitti_label_line(parsed[0]), "img") == parsed


class TestVocParsing:
    def test_minimal_file(self):
        w, h, anns = parse_voc_xml(VOC_XML)
        assert (w, h) == (500.0, 375.0)
        assert len(anns) == 1
        a = anns[0]
        assert a.class_name == "car"
        # 1-based inclusive corners normalized: subtract 1 from xmin/ymin.
        assert a.box == Box(99.0, 99.0, 200.0, 200.0)
        assert a.source_image == "000123"

    def test_width_is_pixel_count(self):
        _, _, anns = parse_voc_xml(VOC_XML)
        # bndbox 100..200 inclusive covers 101 pixel columns.
        assert anns[0].box.width == 200 - 100 + 1

    def test_no_objects_still_returns_size(self):
        xml = "<annotation><size><width>10</width><height>20</height></size></annotation>"
        w, h, anns = parse_voc_xml(xml)
        assert (w, h, anns) == (10.0, 20.0, [])

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    @pytest.mark.parametrize("tag", ["width", "height"])
    def test_size_not_positive_and_finite_rejected(self, tag, value):
        old = {"width": "<width>500<", "height": "<height>375<"}[tag]
        xml = VOC_XML.replace(old, f"<{tag}>{value}<")
        with pytest.raises(ParseError) as info:
            parse_voc_xml(xml)
        assert str(info.value) == (
            f"size: <{tag}> must be positive and finite, got {float(value)!r}")

    @pytest.mark.parametrize("old, new, message", [
        ("<size><width>500</width><height>375</height><depth>3</depth></size>", "",
         "missing <size> element"),
        ("<xmin>100</xmin>", "", "object 0: missing <xmin>"),
        ("<ymax>200</ymax>", "<ymax>2OO</ymax>", "object 0: <ymax> value '2OO' is not numeric"),
        ("<name>car</name>", "<name> </name>", "object 0: missing or empty <name>"),
    ])
    def test_malformed_element_rejected(self, old, new, message):
        with pytest.raises(ParseError) as info:
            parse_voc_xml(VOC_XML.replace(old, new))
        assert str(info.value) == message

    def test_truncated_xml_rejected(self):
        with pytest.raises(ParseError, match="invalid XML"):
            parse_voc_xml(VOC_XML[: len(VOC_XML) // 2])

    def test_missing_bndbox_names_object_index(self):
        xml = (
            "<annotation><size><width>10</width><height>10</height></size>"
            "<object><name>car</name></object></annotation>"
        )
        with pytest.raises(ParseError, match="object 0"):
            parse_voc_xml(xml)

    @pytest.mark.parametrize("tag", ["truncated", "difficult"])
    def test_non_integer_flag_rejected(self, tag):
        xml = VOC_XML.replace(f"<{tag}>0</{tag}>", f"<{tag}>,</{tag}>")
        with pytest.raises(ParseError, match="object 0"):
            parse_voc_xml(xml)

    @pytest.mark.parametrize("tag", ["truncated", "difficult"])
    def test_long_integer_flag_accepted(self, tmp_path, capsys, tag):
        # A flag is checked as an integer, not kept: 400 digits parse, and
        # a non-integer still exits 2 with the same message.
        (tmp_path / "voc").mkdir()
        for value, code in (("9" * 400, 0), (",", 2)):
            xml = VOC_XML.replace(f"<{tag}>0</{tag}>", f"<{tag}>{value}</{tag}>")
            (tmp_path / "voc" / "000123.xml").write_text(xml)
            if code == 0:
                assert len(parse_voc_xml(xml)[2]) == 1
            assert main(["stats", str(tmp_path / "voc"), "--format", "voc",
                         "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == (
            "input error: 000123.xml: object 0: <truncated> and <difficult> must be integers\n")

    def test_degenerate_after_normalization_rejected(self):
        xml = (
            "<annotation><size><width>10</width><height>10</height></size>"
            "<object><name>car</name>"
            "<bndbox><xmin>5</xmin><ymin>2</ymin><xmax>4</xmax><ymax>8</ymax></bndbox>"
            "</object></annotation>"
        )
        with pytest.raises(ParseError, match="object 0"):
            parse_voc_xml(xml)


def _ann(width, height=20.0, cls="Car", image="i0"):
    return Annotation(class_name=cls, box=Box(0, 0, width, height), source_image=image)


class TestStats:
    def test_direct_binning(self):
        stats = compute_stats([_ann(40), _ann(50)], bin_edges=(0, 30, 60, 120))
        assert stats.width_histogram.counts == (0, 2, 0)

    def test_class_filter(self):
        anns = [_ann(40), _ann(50, cls="Pedestrian")]
        stats = compute_stats(anns, class_filter="Car", bin_edges=(0, 30, 60, 120))
        assert stats.width_histogram.total == 1
        assert stats.per_class == {"Car": 1, "Pedestrian": 1}

    def test_dontcare_excluded_from_histograms(self):
        anns = [_ann(40), _ann(45, cls="DontCare")]
        stats = compute_stats(anns, bin_edges=(0, 30, 60, 120))
        assert stats.width_histogram.total == 1
        assert stats.per_class["DontCare"] == 1

    def test_infinite_aspect_takes_last_bin(self):
        # A valid box 1e-10 px wide and 1e300 px high: h/w is not finite.
        stats = compute_stats([_ann(1e-10, 1e300)])
        assert stats.aspect_histogram.counts == (0,) * 8 + (1,)

    def test_out_of_range_values_take_end_bins(self):
        hist = make_histogram([-5.0, 10.0, 1000.0], (0, 30, 60))
        assert hist.counts == (2, 1)

    def test_mass_conservation_on_defaults(self, vehicle_dataset):
        anns = [a for image in vehicle_dataset for a in image.annotations]
        stats = compute_stats(anns)
        for hist in (
            stats.width_histogram,
            stats.height_histogram,
            stats.sqrt_area_histogram,
            stats.aspect_histogram,
        ):
            assert hist.total == len(anns)

    @given(st.lists(st.floats(min_value=1, max_value=600, allow_nan=False), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_mass_conservation_property(self, widths):
        anns = [_ann(w) for w in widths]
        stats = compute_stats(anns)
        assert stats.width_histogram.total == len(widths)

    def test_vehicle_dataset_mode_in_30_60(self, vehicle_dataset):
        anns = [a for image in vehicle_dataset for a in image.annotations]
        stats = compute_stats(anns, class_filter="Car")
        assert stats.width_histogram.modal_bin() == (30.0, 60.0)

    def test_bad_edges_rejected(self):
        with pytest.raises(ConfigError):
            compute_stats([_ann(10)], bin_edges=(5,))
        with pytest.raises(ConfigError):
            compute_stats([_ann(10)], bin_edges=(0, 10, 10))

    def test_default_edges_cover_30_60(self):
        assert 30.0 in DEFAULT_WIDTH_BIN_EDGES and 60.0 in DEFAULT_WIDTH_BIN_EDGES
        assert math.isinf(DEFAULT_WIDTH_BIN_EDGES[-1])


def per_file_loader(directory, skip_bad):
    """Reference KITTI loader: read and parse each file in name order, one at a time."""
    images, skipped = [], []
    for file in sorted(directory.glob("*.txt")):
        try:
            text = read_input(file)
            try:
                anns = parse_kitti_label(text, file.stem)
            except ParseError as exc:
                raise ParseError(f"{file.name}: {exc}") from None
        except ParseError as exc:
            if not skip_bad:
                raise
            skipped.append(str(exc))
            continue
        images.append(ImageAnnotations(file.stem, 1392.0, 512.0, tuple(anns)))
    return images, skipped


# Field values that break a KITTI line in each way parse_kitti_label checks
# (not numeric, a non-finite occlusion or corner, a degenerate box, an
# infinite extent; x2 of the base line is 614.12), and values that only
# Python's float reads ("1_0", an Arabic digit) or that must keep their sign.
FIELD_VALUES = ["-0.0", "0", "1_0", "\u0663", "x", "1\x00", "nan", "inf", "-1e308", "1e308", "600"]


@st.composite
def label_line(draw):
    fields = KITTI_LINE.split() + draw(st.sampled_from([[], ["0.87"], ["0.87", "x"]]))
    fields[0] = draw(st.sampled_from(["Car", "DontCare", "Van", "0"]))
    for _ in range(draw(st.integers(0, 2))):
        fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(FIELD_VALUES))
    if draw(st.integers(0, 7)) == 0:
        fields = fields[: draw(st.integers(0, 14))]
    return draw(st.sampled_from([" ", "\t", "  "])).join(fields)


@st.composite
def label_file(draw):
    """(name, bytes); None for a directory of that name."""
    name = draw(st.sampled_from(["000000.txt", "000001.txt", "a.txt", ".txt", "..txt",
                                 "b.xml", "c.TXT"]))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return name, None
    if kind == 1:
        return name, b"Car \xff\n"
    lines = draw(st.lists(st.one_of(label_line(), st.just("")), max_size=4))
    return name, "\n".join(lines).encode()


def assert_same_table(got, want):
    """Equal LabelTables, with bit-equal arrays of one dtype and shape."""
    assert (got.image_ids, got.sizes, got.classes) == (want.image_ids, want.sizes, want.classes)
    for a, b in ((got.image, want.image), (got.boxes, want.boxes)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_same_reports(table, images):
    """``compute_stats`` and ``coverage`` report alike on a LabelTable and its objects."""
    for class_filter in (None, "Car"):
        assert compute_stats(table, class_filter) == compute_stats(images, class_filter)
    for config in (AnchorConfig(), AnchorConfig(allow_border=False)):
        assert_same_coverage(coverage(config, table), coverage(config, images))


def label_dir(tmp_path_factory, files):
    """A new directory holding ``files``, as drawn by ``label_file``."""
    d = tmp_path_factory.mktemp("labels")
    for name, content in dict(files).items():
        if content is None:
            (d / name).mkdir()
        else:
            (d / name).write_bytes(content)
    return d


def assert_loads_like_per_file_loader(d, skip_bad):
    """``load_label_table``, ``load_dataset`` and ``stats`` load the KITTI
    directory ``d`` as ``per_file_loader`` does, or fail with its message."""
    try:
        want = per_file_loader(d, skip_bad)
    except ParseError as exc:
        for load in (load_label_table, load_dataset):
            with pytest.raises(ParseError) as info:
                load(d, "kitti", skip_bad=skip_bad)
            assert str(info.value) == str(exc)
        assert main(["stats", str(d), "--out", str(d / "out")]) == 2
        return
    table, skipped = load_label_table(d, "kitti", skip_bad=skip_bad)
    objects = load_dataset(d, "kitti", skip_bad=skip_bad)
    assert repr(objects) == repr(want)  # -0.0
    images, want_skipped = want
    assert skipped == want_skipped
    anns = [a for image in images for a in image.annotations]
    assert table.image_ids == [image.image_id for image in images]
    assert table.classes == [a.class_name for a in anns]
    assert table.boxes.tobytes() == boxes_to_array([a.box for a in anns]).tobytes()
    assert [table.image_ids[i] for i in table.image] == [a.source_image for a in anns]
    assert_same_table(as_label_table(objects[0]), table)
    assert_same_reports(table, objects[0])


def load_outcome(d, skip_bad):
    """``load_label_table(d, "kitti")``, or the text of the ParseError it raises."""
    try:
        return load_label_table(d, "kitti", skip_bad=skip_bad)
    except ParseError as exc:
        return str(exc)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def forked_chunks(cpus):
    """``load_label_table`` parses one KITTI file per chunk, with ``cpus`` usable CPUs."""
    with mock.patch.object(datasets, "_FILES_PER_CHUNK", 1), \
            mock.patch("os.sched_getaffinity", return_value=set(range(cpus))):
        yield


def bad_label_dir(tmp_path):
    """Label files 000000-000005 of 0-5 lines each; 000003 is malformed."""
    d = tmp_path / "labels"
    d.mkdir()
    for k in range(6):
        (d / f"{k:06d}.txt").write_text(f"{KITTI_LINE}\n" * k)
    (d / "000003.txt").write_text("Car 1 2\n")
    return d


class TestLoaders:
    def test_kitti_dir(self, kitti_dir):
        images, skipped = load_dataset(kitti_dir, "kitti")
        assert [i.image_id for i in images] == ["000000", "000001", "000002"]
        assert skipped == []
        assert len(images[0].annotations) == 3
        assert images[0].image_w == 1392.0

    def test_kitti_dir_bad_file_raises(self, kitti_dir):
        (kitti_dir / "000003.txt").write_text("Car 1 2\n")
        with pytest.raises(ParseError, match="000003.txt"):
            load_dataset(kitti_dir, "kitti")

    def test_kitti_dir_skip_bad(self, kitti_dir):
        (kitti_dir / "000003.txt").write_text("Car 1 2\n")
        images, skipped = load_dataset(kitti_dir, "kitti", skip_bad=True)
        assert len(images) == 3
        assert len(skipped) == 1 and "000003.txt" in skipped[0]

    def test_voc_dir(self, tmp_path):
        d = tmp_path / "voc"
        d.mkdir()
        (d / "000123.xml").write_text(VOC_XML)
        images, skipped = load_dataset(d, "voc")
        assert len(images) == 1 and skipped == []
        assert images[0].image_w == 500.0
        assert images[0].annotations[0].class_name == "car"

    def test_voc_bad_file_between_good_files(self, tmp_path):
        (tmp_path / "a.xml").write_text(VOC_XML)
        (tmp_path / "b.xml").write_text(VOC_XML.replace("<xmax>200<", "<xmax>x<"))
        (tmp_path / "c.xml").write_text(
            VOC_XML.replace("<width>500<", "<width>640<").replace("<name>car<", "<name>van<"))
        with pytest.raises(ParseError, match="^b.xml: "):
            load_label_table(tmp_path, "voc")
        table, skipped = load_label_table(tmp_path, "voc", skip_bad=True)
        assert (table.image_ids, table.sizes) == (["a", "c"], [(500.0, 375.0), (640.0, 375.0)])
        assert (table.image.tolist(), table.classes) == ([0, 1], ["car", "van"])
        assert table.boxes.tolist() == [[99.0, 99.0, 200.0, 200.0]] * 2
        assert len(skipped) == 1 and skipped[0].startswith("b.xml: ")
        assert_same_table(table, as_label_table(load_dataset(tmp_path, "voc", skip_bad=True)[0]))

    def test_missing_dir(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "nope", "kitti")

    @pytest.mark.parametrize("bad", ["not-utf8", "directory"])
    def test_unreadable_file_raises_or_is_skipped(self, kitti_dir, bad):
        target = kitti_dir / "000003.txt"
        if bad == "directory":
            target.mkdir()
        else:
            target.write_bytes(b"Car \xff\n")
        with pytest.raises(ParseError, match="000003.txt"):
            load_dataset(kitti_dir, "kitti")
        images, skipped = load_dataset(kitti_dir, "kitti", skip_bad=True)
        assert [i.image_id for i in images] == ["000000", "000001", "000002"]
        assert len(skipped) == 1 and skipped[0].count("000003.txt") == 1

    def test_unknown_format(self, kitti_dir):
        with pytest.raises(ConfigError, match="unknown dataset format"):
            load_dataset(kitti_dir, "coco")

    @given(st.lists(label_file(), max_size=6), st.booleans(), st.integers(1, 64))
    @example([("000000.txt", KITTI_LINE.encode()),
              ("000001.txt", KITTI_LINE.replace(" 0 ", " nan ", 1).encode())], False, 14)
    @settings(max_examples=150, deadline=None)
    def test_table_equals_per_file_loader(self, tmp_path_factory, files, skip_bad, tokens):
        # Files of good and bad lines of every kind, unreadable files, dot
        # files and a directory named like a label file, against the loader
        # that reads and parses one file at a time. Fields are converted
        # every ``tokens`` or more, so lines and bad files follow conversions.
        with mock.patch.object(datasets, "_TOKENS_PER_CONVERSION", tokens):
            assert_loads_like_per_file_loader(label_dir(tmp_path_factory, files), skip_bad)

    @given(st.lists(label_file(), max_size=6), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_forked_chunks_equal_one_process(self, tmp_path_factory, files, skip_bad):
        # With one file per chunk and three CPUs, a directory of 2+ label
        # files is parsed in 2-3 chunks, all but the first in forked children.
        d = label_dir(tmp_path_factory, files)
        want = load_outcome(d, skip_bad)
        with forked_chunks(3), mock.patch("os.fork", wraps=os.fork) as fork:
            got = load_outcome(d, skip_bad)
            assert_loads_like_per_file_loader(d, skip_bad)
        assert fork.called == (len({name for name, _ in files if name.endswith(".txt")}) > 1)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_table(got[0], want[0])
            assert got[1] == want[1]
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["pipe raises", "fork raises", "child exits 3",
                                         "child sends nothing", "child is killed",
                                         "child sends, then exits 3"])
    def test_failed_child_chunk_runs_in_process(self, tmp_path, failure):
        # However a child fails, its chunk is parsed again in the parent, so
        # the table, the skipped list and the ParseError are one process's.
        d = bad_label_dir(tmp_path)
        want = [load_outcome(d, skip_bad) for skip_bad in (False, True)]
        parent, in_parent, chunk, exit_now = os.getpid(), [], datasets._kitti_chunk, os._exit

        def failing_chunk(files, ids):
            if os.getpid() == parent:
                in_parent.append(ids)
                return chunk(files, ids)
            if failure == "child sends, then exits 3":
                return chunk(files[:0], ids[:0])  # a chunk of no files, pickled whole
            if failure == "child is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            exit_now(3 if failure == "child exits 3" else 0)

        patches = {"pipe raises": mock.patch("os.pipe", side_effect=OSError(errno.EMFILE, "no")),
                   "fork raises": mock.patch("os.fork", side_effect=OSError(errno.EAGAIN, "no")),
                   "child sends, then exits 3": mock.patch("os._exit", lambda code: exit_now(3))}
        with forked_chunks(3), mock.patch.object(datasets, "_kitti_chunk", failing_chunk), \
                patches.get(failure, contextlib.nullcontext()):
            got = [load_outcome(d, skip_bad) for skip_bad in (False, True)]
        assert got[0] == want[0]
        assert_same_table(got[1][0], want[1][0])
        assert got[1][1] == want[1][1]
        chunks = [["000000", "000001"], ["000002", "000003"], ["000004", "000005"]]
        assert in_parent == chunks * 2
        assert_no_child_left()

    def test_no_child_outlives_a_load(self, tmp_path):
        # Loads that raise ParseError, skip a file or return, and one whose
        # parent raises while its children still run: none leaves a child.
        d = bad_label_dir(tmp_path)
        parent, chunk = os.getpid(), datasets._kitti_chunk

        class Stop(Exception):
            pass

        def stuck_chunk(files, ids):
            if os.getpid() != parent:
                time.sleep(60)
            raise Stop

        with forked_chunks(3):
            with pytest.raises(ParseError, match="000003.txt"):
                load_label_table(d, "kitti")
            assert_no_child_left()
            assert load_label_table(d, "kitti", skip_bad=True)[1]
            assert_no_child_left()
            (d / "000003.txt").write_text(KITTI_LINE + "\n")
            assert len(load_label_table(d, "kitti")[0].image_ids) == 6
            assert_no_child_left()
            start = time.monotonic()
            with mock.patch.object(datasets, "_kitti_chunk", stuck_chunk), pytest.raises(Stop):
                load_label_table(d, "kitti")
            assert time.monotonic() - start < 30  # the children were killed, not awaited
            assert_no_child_left()
        assert datasets._kitti_chunk is chunk

    def test_paths_are_named_as_pathlib_names_them(self, tmp_path, monkeypatch):
        # Listed with os.scandir, a file's path reads as Path.glob's: a load
        # of "." names "x.txt", not "./x.txt".
        (tmp_path / "x.txt").mkdir()
        monkeypatch.chdir(tmp_path)
        for directory in (".", Path("."), str(tmp_path), f"{tmp_path}/"):
            with pytest.raises(ParseError) as want:
                per_file_loader(Path(directory), skip_bad=False)
            with pytest.raises(ParseError) as got:
                load_label_table(directory, "kitti")
            assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{tmp_path}/x.txt: cannot read")

    def test_unlistable_directory_is_parse_error(self, kitti_dir):
        denied = PermissionError(errno.EACCES, "Permission denied")
        with mock.patch("os.scandir", side_effect=denied), pytest.raises(ParseError) as info:
            load_label_table(kitti_dir, "kitti")
        assert str(info.value) == f"{kitti_dir}: cannot read (Permission denied)"

    def test_voc_table_with_sizes_empty_image_and_dontcare(self, tmp_path):
        # Two image sizes, an image with no objects and a DontCare row: every
        # form reports alike, and anchors per image average over all images.
        objects = ("<object><name>{}</name><bndbox><xmin>{}</xmin><ymin>50</ymin>"
                   "<xmax>{}</xmax><ymax>90</ymax></bndbox></object>")
        for name, size, body in (
            ("a", (500, 375), objects.format("Car", 100, 160) + objects.format("DontCare", 10, 40)),
            ("b", (1000, 600), objects.format("Car", 300, 420)),
            ("c", (500, 375), ""),
        ):
            (tmp_path / f"{name}.xml").write_text(
                "<annotation><size><width>%d</width><height>%d</height></size>" % size
                + body + "</annotation>")
        table, _ = load_label_table(tmp_path, "voc")
        images, _ = load_dataset(tmp_path, "voc")
        assert table.sizes == [(500.0, 375.0), (1000.0, 600.0), (500.0, 375.0)]
        assert table.classes == ["Car", "DontCare", "Car"]
        assert_same_table(as_label_table(images), table)
        assert as_label_table(table) is table
        assert_same_reports(table, images)
        stats = compute_stats(table)
        assert (stats.image_count, stats.width_histogram.total) == (3, 2)
        assert stats.per_class == {"Car": 2, "DontCare": 1}
        report = coverage(AnchorConfig(), table)
        assert report.image_ids == ["a", "b"]
        counts = [coverage(AnchorConfig(), [image]).anchors_per_image for image in images]
        assert counts[0] == counts[2] < counts[1]
        assert report.anchors_per_image == sum(counts) / 3


class TestReaders:
    def test_read_input_keeps_newlines(self, tmp_path):
        (tmp_path / "a.txt").write_bytes("x\r\ny\rz é\n".encode())
        assert read_input(tmp_path / "a.txt") == "x\r\ny\rz é\n"

    @pytest.mark.parametrize("error", [ParseError, ConfigError])
    @pytest.mark.parametrize("name, reason", [("bad.txt", "not UTF-8"), ("dir.txt", "cannot read"),
                                              ("absent.txt", "cannot read"),
                                              ("nul\x00.txt", "cannot read")])
    def test_read_input_failure_raises_given_error(self, tmp_path, error, name, reason):
        (tmp_path / "bad.txt").write_bytes(b"ok \xff\n")
        (tmp_path / "dir.txt").mkdir()
        with pytest.raises(error, match=reason) as info:
            read_input(tmp_path / name, error)
        assert str(info.value).count(name) == 1

    @pytest.mark.parametrize("name, text, read", [
        ("000000.txt", KITTI_FILE_MIXED + "\n", lambda d: load_dataset(d, "kitti")),
        ("d.csv", "image_id,class,x1,y1,x2,y2,score\n000000,Car,1,2,30,40,0.5\n",
         lambda d: read_detections_csv(d / "d.csv")),
        ("run.cfg", "scales=64,128\nthresholds=0.5\n",
         lambda d: read_key_values(read_input(d / "run.cfg", ConfigError), "run.cfg",
                                   {"scales", "thresholds"})),
    ], ids=["label", "detections", "config"])
    def test_byte_order_mark_is_ignored(self, tmp_path, name, text, read):
        # A label file, a detections CSV and a --config file.
        results = []
        for prefix in ("", "\ufeff"):
            d = tmp_path / f"bom{len(prefix)}"
            d.mkdir()
            (d / name).write_text(prefix + text, encoding="utf-8")
            results.append(read(d))
        assert results[0] == results[1] and results[0]

    def test_read_csv_rows(self, tmp_path):
        (tmp_path / "m.csv").write_text('a,b\n1,2\n\n3,"4\n5"\n')
        assert list(read_csv_rows(tmp_path / "m.csv", ("a", "b"))) == [
            (2, ["1", "2"]), (4, ["3", "4\n5"])
        ]

    @pytest.mark.parametrize("text, message", [
        ("", "m.csv: expected header a,b, got empty file"),
        ("a,c\n", "m.csv: expected header a,b, got a,c"),
        ("a,b\n1,2\n1\n", "m.csv: line 3: expected 2 columns, got 1"),
    ])
    def test_read_csv_rows_malformed_is_parse_error(self, tmp_path, text, message):
        # ``error`` is only for a file that cannot be read.
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(ParseError) as info:
            list(read_csv_rows(tmp_path / "m.csv", ("a", "b"), ConfigError))
        assert str(info.value) == message


def _file_calls(source: str, access: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of every call in ``source`` that
    reads a file (``access="read"``: ``open`` in a read mode, ``read_text``,
    ``read_bytes``) or writes one (``"write"``: ``open`` in a write mode,
    ``write_text``, ``write_bytes``)."""

    def access_of(call: ast.Call) -> str | None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("read_text", "read_bytes", "write_text", "write_bytes"):
            return name.partition("_")[0]
        if name != "open":
            return None
        # open() reads unless it is given a mode with "w", "a" or "x".
        strings = [n.value for n in (*call.args, *(k.value for k in call.keywords))
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        writes = any(s and set(s) <= set("rwxabt+") and set(s) & set("wax") for s in strings)
        return "write" if writes else "read"

    found: list[tuple[str, int]] = []

    class Visitor(ast.NodeVisitor):
        where = "<module>"

        def visit_FunctionDef(self, node):
            outer, self.where = self.where, node.name
            self.generic_visit(node)
            self.where = outer

        def visit_Call(self, node):
            if access_of(node) == access:
                found.append((self.where, node.lineno))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


class TestOneReader:
    # Every input file goes through datasets.read_input; builtin_arch reads
    # packaged resources. Output writers are not reads.
    ALLOWED = {("datasets.py", "read_input"), ("netgraph.py", "builtin_arch")}

    def test_only_read_input_reads_files(self):
        src = Path(scaledet.__file__).parent
        reads = [(f.name, where, line) for f in sorted(src.glob("*.py"))
                 for where, line in _file_calls(f.read_text(encoding="utf-8"), "read")]
        assert {(name, where) for name, where, _ in reads} == self.ALLOWED, reads

    def test_guard_sees_reads_and_skips_writes(self):
        source = (
            "def a(p):\n    with open(p, 'r', encoding='utf-8') as fh:\n        return fh.read()\n"
            "def b(p):\n    return open(p).read()\n"
            "def c(p):\n    return p.read_text()\n"
            "def d(p):\n    return p.open(mode='rb').read()\n"
            "def e(p, t):\n    open(p, 'w', newline='').write(t)\n    p.write_text(t)\n"
            "    p.open(mode='x').write(t)\n"
        )
        assert [where for where, _ in _file_calls(source, "read")] == ["a", "b", "c", "d"]


class TestOneWriter:
    # Every output file goes through datasets.write_output.
    ALLOWED = {("datasets.py", "write_output")}

    def test_only_write_output_writes_files(self):
        src = Path(scaledet.__file__).parent
        writes = [(f.name, where, line) for f in sorted(src.glob("*.py"))
                  for where, line in _file_calls(f.read_text(encoding="utf-8"), "write")]
        assert {(name, where) for name, where, _ in writes} == self.ALLOWED, writes

    def test_guard_sees_writes_and_skips_reads(self):
        source = (
            "def a(p, rows):\n    with open(p, 'w', newline='') as fh:\n"
            "        csv.writer(fh).writerows(rows)\n"
            "def b(p, t):\n    p.write_text(t, encoding='utf-8')\n"
            "def c(p, b):\n    p.write_bytes(b)\n"
            "def d(p):\n    return p.open(mode='x')\n"
            "def e(p):\n    return open(p, 'a+')\n"
            "def f(p):\n    open(p).read()\n    p.read_text()\n    open(p, 'rb').read()\n"
            "    fh.write('x')\n"
        )
        assert [where for where, _ in _file_calls(source, "write")] == ["a", "b", "c", "d", "e"]


class TestWriter:
    def test_csv_cells_and_text(self, tmp_path):
        write_output(tmp_path / "a.csv", iter([(None, 0.1, 1, "x,y"), [math.inf, "é"]]),
                     ("h1", "h2", "h3", "h4"))
        assert (tmp_path / "a.csv").read_bytes() == (
            'h1,h2,h3,h4\n,0.1,1,"x,y"\ninf,é\n'.encode())
        write_output(tmp_path / "a.txt", "k=v\nw=é\n")
        assert (tmp_path / "a.txt").read_bytes() == "k=v\nw=é\n".encode()

    @pytest.mark.parametrize("name, reason", [("dir.txt", "Is a directory"),
                                              ("absent/a.txt", "No such file"),
                                              ("nul\x00.txt", "embedded null byte")])
    def test_failure_is_config_error_naming_the_file(self, tmp_path, name, reason):
        (tmp_path / "dir.txt").mkdir()
        with pytest.raises(ConfigError, match=reason) as info:
            write_output(tmp_path / name, "x\n")
        assert str(info.value).count(name) == 1


class TestExports:
    def test_every_exported_name_resolves(self):
        # A deleted function must leave no stale name in any __all__.
        modules = [scaledet] + [importlib.import_module(f"scaledet.{info.name}")
                                for info in pkgutil.iter_modules(scaledet.__path__)]
        exported = [(module.__name__, name) for module in modules
                    for name in getattr(module, "__all__", ())]
        assert len({module for module, _ in exported}) >= 8
        assert [(m, name) for m, name in exported if not hasattr(sys.modules[m], name)] == []

    def test_every_export_has_a_user(self):
        # An exported name must be read somewhere in src/ besides its own
        # definition, or be documented: README "Library use" or the
        # acceptance tests.
        src = Path(scaledet.__file__).parent
        used = set()
        for f in src.glob("*.py"):
            if f.name != "__init__.py":
                for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        library_use = readme.partition("## Library use")[2].partition("\n## ")[0]
        acceptance = (root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
        documented = set(re.findall(r"\w+", library_use + acceptance))
        assert library_use
        unused = []
        for info in pkgutil.iter_modules(scaledet.__path__):
            module = importlib.import_module(f"scaledet.{info.name}")
            unused += [(info.name, name) for name in getattr(module, "__all__", ())
                       if name not in used | documented]
        assert unused == []

    def test_library_use_example_runs(self, tmp_path, capsys):
        # README's example runs as printed, on a small KITTI directory.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        library_use = readme.partition("## Library use")[2].partition("\n## ")[0]
        code = library_use.partition("```python\n")[2].partition("```")[0]
        assert '"path/to/labels"' in code
        for image in synthetic_vehicle_dataset(seed=5, n_images=6):
            (tmp_path / f"{image.image_id}.txt").write_text(
                "".join(kitti_label_line(a) + "\n" for a in image.annotations))
        exec(code.replace('"path/to/labels"', repr(str(tmp_path))), {})
        assert len(capsys.readouterr().out.splitlines()) == 5  # 3 lines and one per fold


class TestFolds:
    def test_sizes_and_disjointness(self):
        ids = [f"{i:06d}" for i in range(668)]
        folds = split_folds(ids, n_folds=6, test_size=100, seed=1)
        assert len(folds) == 6
        for fold in folds:
            assert len(fold.test_ids) == 100
            assert len(fold.train_ids) == 568
            assert set(fold.test_ids).isdisjoint(fold.train_ids)
            assert set(fold.test_ids) | set(fold.train_ids) == set(ids)

    def test_deterministic(self):
        ids = [str(i) for i in range(50)]
        a = split_folds(ids, n_folds=3, test_size=10, seed=9)
        b = split_folds(ids, n_folds=3, test_size=10, seed=9)
        assert a == b
        c = split_folds(ids, n_folds=3, test_size=10, seed=10)
        assert a != c

    def test_no_folds_rejected(self):
        with pytest.raises(ConfigError) as info:
            split_folds(["a", "b"], n_folds=0, test_size=1)
        assert str(info.value) == "n_folds must be >= 1, got 0"

    def test_bad_test_size(self):
        with pytest.raises(ConfigError):
            split_folds(["a", "b"], n_folds=2, test_size=2)
