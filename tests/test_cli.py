import csv
import dataclasses
import hashlib
import io
import math
import random
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from html import escape
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import VOC_XML, kitti_label_line, synthetic_vehicle_dataset
from scaledet.cli import (SETTINGS, _PROFILE, _integer, _knots, _number, _numbers, _record,
                          build_parser, main)
from scaledet.cli import _read_profile as parse_profile
from scaledet.datasets import DEFAULT_ASPECT_BIN_EDGES, Annotation, load_dataset
from scaledet.errors import IncompatibleMergeError, ParseError
from scaledet.evaluation import (EvalReport, evaluate_detections, match_detections,
                                 read_detections_csv)
from scaledet.geometry import Box
from scaledet.netgraph import analyze, parse_arch, receptive_field
from scaledet.simulate import DetectorProfile
from scaledet.svgplot import bar_chart, line_chart


def write_kitti_dataset(directory: Path, dataset) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for image in dataset:
        lines = []
        for ann in image.annotations:
            b = ann.box
            lines.append(
                f"Car 0.00 0 0.0 {b.x1!r} {b.y1!r} {b.x2!r} {b.y2!r} "
                "1.5 1.6 3.5 0.0 1.7 20.0 0.0"
            )
        (directory / f"{image.image_id}.txt").write_text("\n".join(lines) + "\n")


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture
def dataset_dir(tmp_path):
    d = tmp_path / "labels"
    write_kitti_dataset(d, synthetic_vehicle_dataset(seed=31, n_images=8))
    return d


class TestStatsCommand:
    def test_basic_run(self, kitti_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stats", str(kitti_dir), "--format", "kitti", "--out", str(out)]) == 0
        rows = read_csv(out / "stats.csv")
        assert rows[0] == ["histogram_name", "bin_lo", "bin_hi", "count"]
        width_total = sum(int(r[3]) for r in rows[1:] if r[0] == "width")
        assert width_total == 4  # 3 Car + 1 Pedestrian; DontCare excluded
        assert (out / "width_histogram.svg").exists()
        assert (out / "run_config.txt").exists()
        printed = capsys.readouterr().out
        assert "annotations (after filter): 4" in printed and "modal width bin" in printed

    def test_class_filter(self, kitti_dir, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["stats", str(kitti_dir), "--class", "Car", "--out", str(out)]
        ) == 0
        rows = read_csv(out / "stats.csv")
        width_total = sum(int(r[3]) for r in rows[1:] if r[0] == "width")
        assert width_total == 3

    def test_empty_histogram_has_no_modal_bin(self, kitti_dir, tmp_path, capsys):
        assert main(["stats", str(kitti_dir), "--class", "Truck", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "annotations (after filter): 0" in printed
        assert "modal width bin: none" in printed

    def test_csv_rows_cover_all_bins(self, tmp_path):
        d = tmp_path / "one"
        d.mkdir()
        (d / "a.txt").write_text(kitti_label_line(Annotation("Car", Box(0.0, 0.0, 40.0, 20.0))))
        out = tmp_path / "out"
        assert main(["stats", str(d), "--bins", "0,30,60", "--out", str(out)]) == 0
        rows = read_csv(out / "stats.csv")[1:]
        assert [r[3] for r in rows if r[0] == "width"] == ["0", "1"]
        assert len(rows) == 2 * 3 + len(DEFAULT_ASPECT_BIN_EDGES) - 1

    def test_parse_error_exit_code(self, kitti_dir, tmp_path):
        (kitti_dir / "broken.txt").write_text("Car 1\n")
        assert main(["stats", str(kitti_dir), "--out", str(tmp_path / "o")]) == 2

    def test_skip_bad(self, kitti_dir, tmp_path):
        (kitti_dir / "broken.txt").write_text("Car 1\n")
        assert main(
            ["stats", str(kitti_dir), "--skip-bad", "--out", str(tmp_path / "o")]
        ) == 0

    def test_missing_dir_exit_code(self, tmp_path):
        assert main(["stats", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2

    def test_zero_parseable_files_exit_code(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        (d / "bad.txt").write_text("Car 1\n")
        assert main(["stats", str(d), "--skip-bad", "--out", str(tmp_path / "o")]) == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["stats"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()


class TestCoverageCommand:
    def test_compare_shows_small_scale_gain(self, dataset_dir, tmp_path):
        out = tmp_path / "cov"
        code = main(
            [
                "coverage", str(dataset_dir),
                "--scales", "128,256,512",
                "--compare", "32,64,128,256,512",
                "--thresholds", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "delta.csv")
        assert rows[0][-1] == "delta"
        overall = [r for r in rows[1:] if r[1] == ""]
        assert len(overall) == 1
        assert float(overall[0][-1]) > 0.0
        assert (out / "coverage.csv").exists()
        assert (out / "attribution.csv").exists()

    def test_compare_equals_two_single_family_runs(self, dataset_dir, tmp_path):
        # The families list their shared scales in conflicting orders, so one
        # search over their shapes must still reduce in each family's order.
        def run(name, *args):
            assert main(["coverage", str(dataset_dir), "--thresholds", "0.3,0.5,0.7",
                         *args, "--out", str(tmp_path / name)]) == 0
            return {f: read_csv(tmp_path / name / f)
                    for f in ("coverage.csv", "attribution.csv", "delta.csv")
                    if (tmp_path / name / f).exists()}

        both = run("both", "--scales", "512,128", "--compare", "128,512,64")
        base = run("base", "--scales", "512,128")
        other = run("other", "--scales", "128,512,64")
        assert both["coverage.csv"] == base["coverage.csv"]
        assert both["attribution.csv"] == base["attribution.csv"]
        assert base["attribution.csv"] != other["attribution.csv"]
        delta = [a[:3] + [a[5], b[5], "" if "" in (a[5], b[5]) else repr(float(b[5]) - float(a[5]))]
                 for a, b in zip(base["coverage.csv"][1:], other["coverage.csv"][1:])]
        assert both["delta.csv"][1:] == delta

    def test_ground_truth_line(self, kitti_dir, tmp_path, capsys):
        # Five rows: three Cars, a Pedestrian and a DontCare region.
        assert main(["coverage", str(kitti_dir), "--class", "Car", "--out",
                     str(tmp_path / "car")]) == 0
        captured = capsys.readouterr()
        assert "ground truth: rows=5 counted=3 dontcare=1 filtered=1" in captured.out.splitlines()
        assert captured.err == ""
        assert len(read_csv(tmp_path / "car" / "attribution.csv")) == 1 + 3
        assert main(["coverage", str(kitti_dir), "--out", str(tmp_path / "all")]) == 0
        assert "ground truth: rows=5 counted=4 dontcare=1 filtered=0" in capsys.readouterr().out

    def test_buckets_bin_widths_as_eval_does(self, tmp_path):
        # Under 10,20,inf the 5 px Car lies below the first edge: both
        # subcommands count it in the first bucket, so no box is dropped.
        cars = [Annotation("Car", Box(0, 0, 5, 5), "a"), Annotation("Car", Box(0, 0, 60, 30), "a")]
        (tmp_path / "labels").mkdir()
        (tmp_path / "labels" / "a.txt").write_text("\n".join(map(kitti_label_line, cars)))
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n")
        assert main(["coverage", str(tmp_path / "labels"), "--thresholds", "0.5",
                     "--buckets", "10,20,inf", "--out", str(tmp_path / "cov")]) == 0
        assert main(["eval", str(tmp_path / "labels"), str(dets), "--buckets", "10,20,inf",
                     "--out", str(tmp_path / "eval")]) == 0
        coverage_totals = [r[4] for r in read_csv(tmp_path / "cov" / "coverage.csv")[1:]]
        ap_totals = [r[6] for r in read_csv(tmp_path / "eval" / "ap.csv")[1:]]
        assert coverage_totals == ap_totals == ["2", "1", "1"]

    def test_exact_anchor_dataset_full_recall(self, tmp_path):
        d = tmp_path / "exact"
        d.mkdir()
        # GT exactly on anchor geometry: 128-px squares at cell centers.
        lines = []
        cy = (15 + 0.5) * 16.0
        for i in (20, 30, 40):
            cx = (i + 0.5) * 16.0
            lines.append(
                f"Car 0.00 0 0.0 {cx - 64!r} {cy - 64!r} {cx + 64!r} {cy + 64!r} "
                "1.5 1.6 3.5 0.0 1.7 20.0 0.0"
            )
        (d / "000000.txt").write_text("\n".join(lines) + "\n")
        out = tmp_path / "cov"
        code = main(
            ["coverage", str(d), "--scales", "128", "--ratios", "1",
             "--thresholds", "0.5,1.0", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "coverage.csv")
        overall = {r[0]: r for r in rows[1:] if r[1] == ""}
        assert float(overall["0.5"][5]) == 1.0
        assert float(overall["1.0"][5]) == 1.0

    def test_invalid_ratios_exit_code(self, dataset_dir, tmp_path):
        assert main(
            ["coverage", str(dataset_dir), "--ratios", "0,-1", "--out", str(tmp_path / "o")]
        ) == 1

    def test_border_flags(self, dataset_dir, tmp_path):
        kept = tmp_path / "kept"
        dropped = tmp_path / "dropped"
        assert main(["coverage", str(dataset_dir), "--scales", "64", "--keep-border",
                     "--out", str(kept)]) == 0
        assert main(["coverage", str(dataset_dir), "--scales", "64", "--drop-border",
                     "--out", str(dropped)]) == 0
        assert "allow_border=True" in (kept / "run_config.txt").read_text()
        assert "allow_border=False" in (dropped / "run_config.txt").read_text()

    def test_drop_border_without_fitting_anchor_exit_code(self, dataset_dir, tmp_path, capsys):
        # No anchor of the default family fits inside 100x60 px.
        assert main(["coverage", str(dataset_dir), "--image-size", "100x60", "--drop-border",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "100x60" in err
        assert "(128.0, 256.0, 512.0)" in err

    def test_drop_border_without_fitting_compare_anchor_exit_code(self, dataset_dir, tmp_path,
                                                                   capsys):
        # A 32 px anchor fits inside 100x60 px; no 128 px anchor does.
        out = tmp_path / "o"
        assert main(["coverage", str(dataset_dir), "--image-size", "100x60", "--drop-border",
                     "--scales", "32", "--compare", "128", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no anchor of scales (128.0,)" in err and "100x60" in err
        assert "(32.0,)" not in err


# The integer keys of each layer kind.
ARCH_KEYS = {"input": ("channels",), "conv": ("k", "s", "p", "c"), "pool": ("k", "s", "p"),
             "concat": (), "resadd": ()}


@st.composite
def arch_texts(draw):
    """Arch files built from layer kinds, key names and 'from' clauses.

    Most lines are well formed and take earlier layers, so many files parse.
    One draw in 25 instead drops or adds a key, gives a value below 1,
    reuses a name, changes the number of sources, repeats one, or names
    the next layer (a cycle). One value in 25 is 10**18, 2**1100 or 10**400,
    so that a layer's numbers can pass the float range.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def rarely() -> bool:
        return rng.random() < 0.04

    names = ["in"]
    lines = [] if rarely() else ["input in channels=3"]
    for i in range(rng.randint(1, 6)):
        kinds = ["conv", "pool", "concat", "resadd"] if len(names) > 1 else ["conv", "pool"]
        kind = "input" if rarely() else rng.choice(kinds)
        keys = list(ARCH_KEYS[kind])
        if keys and rarely():
            keys.remove(rng.choice(keys))
        if rarely():
            keys.append(rng.choice(["channels", "k", "s", "p", "c"]))
        name = rng.choice(names) if rarely() else f"l{i}"
        tokens = [kind, name]
        for key in keys:
            if rarely():
                value = rng.randint(-1, 0)
            elif rarely():
                value = rng.choice((10**18, 2**1100, 10**400))
            else:
                value = rng.randint(1, 7)
            tokens.append(f"{key}={value}")
        if kind != "input" or rarely():
            pool = names + [f"l{i + 1}"] if rarely() else names
            count = rng.randint(0, 3) if rarely() else 1 if kind in ("conv", "pool") else 2
            sources = rng.sample(pool, min(count, len(pool)))
            if sources and rarely():
                sources.append(sources[0])
            tokens += ["from", ",".join(sources)]
        lines.append(" ".join(tokens))
        names.append(name)
    return "\n".join(lines)


def chain_arch(layers: int, stride: int) -> str:
    """Input c0, then ``layers`` 3 x 3 same-padded convs c1, c2, ... in a chain."""
    return "input c0 channels=3\n" + "".join(
        f"conv c{i} k=3 s={stride} p=1 c=8 from c{i - 1}\n" for i in range(1, layers + 1))


# Valid arch files whose numbers pass the float range, and the first layer
# where they do: c39's stride is 1e312; c1023's receptive field is 2**1024 - 1.
PAST_FLOAT_RANGE = {
    "padding": (f"input data channels=3\nconv c1 k=3 s=1 p={10**400} c=8 from data\n", "c1"),
    "kernel": (f"input data channels=3\nconv c1 k={10**400} s=1 p=1 c=8 from data\n", "c1"),
    "stride": (f"input data channels=3\nconv c1 k=3 s={10**400} p=1 c=8 from data\n"
               "conv c2 k=3 s=1 p=1 c=8 from c1\n", "c1"),
    "45-strides-of-1e8": (chain_arch(45, 100000000), "c39"),
    "1100-strides-of-2": (chain_arch(1100, 2), "c1023"),
    # Padding moves only the output dims, here past the float range at any input size.
    "output-dims": (f"input data channels=3\nconv c1 k=1 s=1 p={int(1e308)} c=8 from data\n",
                    "c1"),
}


class TestRfCommand:
    @pytest.mark.parametrize("extra", [[], ["--input-size", "1392x512"],
                                       ["--probe", "rpn_window"]])
    @pytest.mark.parametrize("case", sorted(PAST_FLOAT_RANGE))
    def test_numbers_past_the_float_range_exit_code(self, tmp_path, capsys, case, extra):
        text, layer = PAST_FLOAT_RANGE[case]
        arch = tmp_path / "big.arch"
        arch.write_text(text)
        out = tmp_path / "rf"
        assert main(["rf", str(arch), *extra, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: layer {layer!r}: ")
        assert list(out.iterdir()) == []

    def test_zf_probe(self, tmp_path, capsys):
        out = tmp_path / "rf"
        assert main(["rf", "zf", "--probe", "rpn_window", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "rpn_window: rf=171 stride=16" in stdout
        rows = read_csv(out / "rf.csv")
        by_layer = {r[0]: r for r in rows[1:]}
        assert by_layer["conv5"][1] == "139"
        assert by_layer["rpn_window"][1] == "171"
        assert by_layer["rpn_window"][2] == "16"

    def test_unknown_probe_exit_code(self, tmp_path, capsys):
        out = tmp_path / "rf"
        assert main(["rf", "zf", "--probe", "conv9", "--out", str(out)]) == 1
        assert "builtin:zf has no layer 'conv9'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_probe_window_on_two_sinks_exit_code(self, tmp_path, capsys):
        # A well-formed arch with two sinks: plain rf runs, the window probe cannot apply.
        arch = tmp_path / "fork.arch"
        arch.write_text("input in channels=3\n"
                        "conv a k=3 s=1 p=1 c=8 from in\n"
                        "conv b k=5 s=1 p=2 c=8 from in\n")
        assert main(["rf", str(arch), "--out", str(tmp_path / "plain")]) == 0
        out = tmp_path / "rf"
        assert main(["rf", str(arch), "--probe", "rpn_window", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'a'" in err and "'b'" in err
        assert list(out.iterdir()) == []

    def test_probe_of_a_graph_layer_adds_no_row(self, tmp_path, capsys):
        assert main(["rf", "zf", "--out", str(tmp_path / "plain")]) == 0
        assert main(["rf", "zf", "--probe", "conv5", "--out", str(tmp_path / "rf")]) == 0
        assert "conv5: rf=139 stride=16" in capsys.readouterr().out
        assert read_csv(tmp_path / "rf" / "rf.csv") == read_csv(tmp_path / "plain" / "rf.csv")

    def test_zf_res_rf_set(self, tmp_path, capsys):
        out = tmp_path / "rf"
        assert main(["rf", "zf_res", "--out", str(out)]) == 0
        assert "resout: rf=171 stride=16 rf_set={107, 171}" in capsys.readouterr().out
        findings = (out / "findings.txt").read_text()
        assert findings.startswith("ok")

    def test_arch_file_path(self, tmp_path):
        arch = tmp_path / "tiny.arch"
        arch.write_text("input in channels=3\nconv c1 k=5 s=2 p=2 c=8 from in\n")
        out = tmp_path / "rf"
        assert main(["rf", str(arch), "--input-size", "64x64", "--out", str(out)]) == 0
        rows = read_csv(out / "rf.csv")
        assert rows[2][:3] == ["c1", "5", "2"]
        assert rows[2][5:7] == ["32", "32"]

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        arch = tmp_path / "bad.arch"
        arch.write_text("input in channels=3\nconv c1 k=3 from in\n")
        assert main(["rf", str(arch), "--out", str(tmp_path / "o")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_builtin_exit_code(self, tmp_path):
        assert main(["rf", "zf_unknown", "--out", str(tmp_path / "o")]) == 2

    def test_non_positive_dims_are_not_merge_nodes(self, tmp_path, capsys):
        out = tmp_path / "rf"
        assert main(["rf", "zf", "--input-size", "4x4", "--out", str(out)]) == 0
        assert (out / "findings.txt").read_text().splitlines() == [
            "BAD layer 'pool1' output dims (0, 0) are not positive",
            "BAD layer 'pool2' output dims (0, 0) are not positive",
        ]
        assert "findings: 0 merge node(s), 2 violation(s)" in capsys.readouterr().out

    @given(text=arch_texts(), size=st.none() | st.tuples(st.integers(1, 40), st.integers(1, 40)))
    @example(text=f"input in channels=3\nconv l0 k=3 s=1 p={2**1100} c=8 from in", size=None)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_arch_text_exits_0_or_2(self, tmp_path, capsys, text, size):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        arch = work / "net.arch"
        arch.write_text(text)
        argv = ["rf", str(arch), "--out", str(work / "out")]
        if size is not None:
            argv += ["--input-size", f"{size[0]}x{size[1]}"]
        assert main(argv) in (0, 2), (text, capsys.readouterr().err)

    @given(text=arch_texts(), size=st.none() | st.tuples(st.integers(1, 40), st.integers(1, 40)))
    @settings(max_examples=100, deadline=None)
    def test_receptive_field_raises_the_first_undefined_finding(self, text, size):
        # receptive_field raises the first finding part that leaves a
        # receptive field undefined, else returns analyze's info, on every layer.
        try:
            graph = parse_arch(text)
            infos, findings = analyze(graph, size)
        except ParseError:
            return
        parts = [part for f in findings for part in f.message.split("; ")
                 if part.endswith("are not positive") or "strides differ" in part
                 or "spatial dims differ" in part]
        for layer in graph.topo_order:
            if parts:
                with pytest.raises(IncompatibleMergeError) as excinfo:
                    receptive_field(graph, layer, size)
                assert str(excinfo.value) == parts[0]
            else:
                assert receptive_field(graph, layer, size) == infos[layer]


class TestSimulateAndEval:
    def _profile(self, tmp_path, text) -> Path:
        p = tmp_path / "profile.txt"
        p.write_text(text)
        return p

    def test_perfect_end_to_end(self, dataset_dir, tmp_path, capsys):
        profile = self._profile(tmp_path, "detect_prob=0:1\nfp_per_image=0\nseed=1\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(dataset_dir), str(profile), "--out", str(sim_out)]) == 0
        eval_out = tmp_path / "eval"
        code = main(
            ["eval", str(dataset_dir), str(sim_out / "detections.csv"), "--out", str(eval_out)]
        )
        assert code == 0
        assert "AP (all-point, IoU 0.7): 1.0" in capsys.readouterr().out
        rows = read_csv(eval_out / "ap.csv")
        assert rows[1][0] == "overall" and float(rows[1][3]) == 1.0
        assert (eval_out / "pr.svg").exists()

    def test_step_profile_bucket_split(self, tmp_path):
        def sampler(rng):
            return rng.uniform(30, 100) if rng.random() < 0.5 else rng.uniform(160, 400)

        d = tmp_path / "bimodal"
        write_kitti_dataset(d, synthetic_vehicle_dataset(seed=7, n_images=20,
                                                         width_sampler=sampler))
        profile = self._profile(
            tmp_path, "detect_prob=127.9:0,128:1\nfp_per_image=0\nseed=3\n"
        )
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(d), str(profile), "--out", str(sim_out)]) == 0
        eval_out = tmp_path / "eval"
        assert main(
            ["eval", str(d), str(sim_out / "detections.csv"),
             "--buckets", "0,128,inf", "--out", str(eval_out)]
        ) == 0
        rows = read_csv(eval_out / "ap.csv")
        buckets = {(r[1], r[2]): r[3] for r in rows[1:] if r[0] == "bucket"}
        assert float(buckets[("0.0", "128.0")]) < 0.05
        assert float(buckets[("128.0", "inf")]) > 0.95

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e300"])
    @pytest.mark.parametrize("key", sorted(_PROFILE))
    def test_extreme_profile_value_exit_code(self, dataset_dir, tmp_path, capsys, key, value):
        # The value stands where the key takes a number: a knot width, the
        # upper end of a range, or the whole value.
        text = {"detect_prob": "16:0.5,{}:1.0", "fp_size_range": "20,{}"}.get(key, "{}")
        profile = self._profile(tmp_path, f"fp_per_image=1\n{key}={text.format(value)}\n")
        code = main(["simulate", str(dataset_dir), str(profile), "--out", str(tmp_path / "o")])
        assert code in (0, 1), capsys.readouterr().err

    @pytest.mark.parametrize("line", ["fp_per_image=inf", "fp_per_image=1e300",
                                      "score_mean_tp=nan", "score_sigma=nan",
                                      "loc_noise_sigma=inf", "loc_noise_sigma=nan"])
    def test_profile_value_that_crashed_is_config_error(self, dataset_dir, tmp_path, capsys,
                                                        line):
        profile = self._profile(tmp_path, line + "\n")
        code = main(["simulate", str(dataset_dir), str(profile), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{line.partition('=')[0]} must" in capsys.readouterr().err

    @pytest.mark.parametrize("label, profile, size, setting", [
        # Jitter of a 1.7e308-wide box overflows its area.
        ("Car 0 0 0 0 0 1.7e308 0.5 1 1 1 1 1 1 0",
         "detect_prob=0:1\nloc_noise_sigma=1e6\nseed=2\n", "1392x512", "loc_noise_sigma"),
        # A 1e200-square false positive inside a 10^200-square image.
        ("Car 0 0 0 0 0 10 10 1 1 1 1 1 1 0",
         "detect_prob=0:1\nfp_per_image=5\nfp_size_range=1e200,1e200\n",
         f"{10**200}x{10**200}", "fp_size_range"),
    ])
    def test_box_past_float_range_is_config_error(self, tmp_path, capsys, label, profile, size,
                                                  setting):
        d = tmp_path / "labels"
        d.mkdir()
        (d / "a.txt").write_text(label + "\n")
        code = main(["simulate", str(d), str(self._profile(tmp_path, profile)),
                     "--image-size", size, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("config error: simulated box (") and setting in err

    def test_missing_profile_exit_code(self, dataset_dir, tmp_path):
        assert main(
            ["simulate", str(dataset_dir), str(tmp_path / "absent.txt"),
             "--out", str(tmp_path / "o")]
        ) == 1

    def test_folds_manifest(self, dataset_dir, tmp_path, capsys):
        profile = self._profile(tmp_path, "detect_prob=0:0.8\nfp_per_image=0.5\nseed=11\n")
        sim_out = tmp_path / "sim"
        main(["simulate", str(dataset_dir), str(profile), "--out", str(sim_out)])
        manifest = tmp_path / "folds.csv"
        image_ids = sorted(p.stem for p in dataset_dir.glob("*.txt"))
        with open(manifest, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["image_id", "fold_id"])
            for i, image_id in enumerate(image_ids):
                writer.writerow([image_id, str(i % 2)])
        eval_out = tmp_path / "eval"
        assert main(
            ["eval", str(dataset_dir), str(sim_out / "detections.csv"),
             "--folds", str(manifest), "--out", str(eval_out)]
        ) == 0
        rows = read_csv(eval_out / "folds.csv")
        assert [r[0] for r in rows[1:]] == ["0", "1", "mean"]
        fold_aps = [float(r[1]) for r in rows[1:3]]
        assert float(rows[3][1]) == pytest.approx(sum(fold_aps) / 2, abs=1e-12)
        assert "folds: n=2" in capsys.readouterr().out

    def test_fold_rows_equal_evaluating_each_fold(self, dataset_dir, tmp_path):
        # DontCare regions and a second class exercise the ignore and class
        # filters; image 000007 is in no fold.
        for i, path in enumerate(sorted(dataset_dir.glob("*.txt"))):
            extra = ""
            if i % 2 == 0:
                extra += "DontCare -1 -1 -10 100.0 150.0 180.0 200.0 -1 -1 -1 -1000 -1000 -1000 -10\n"
            if i % 3 == 0:
                extra += "Van 0.00 0 0.0 400.0 150.0 470.0 200.0 1.5 1.6 3.5 0.0 1.7 20.0 0.0\n"
            path.write_text(path.read_text() + extra)
        profile = self._profile(tmp_path, "detect_prob=0:0.7\nfp_per_image=3\nseed=4\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(dataset_dir), str(profile), "--out", str(sim_out)]) == 0
        fold_of = {f"{i:06d}": f"f{i % 3}" for i in range(7)}
        manifest = tmp_path / "folds.csv"
        manifest.write_text("image_id,fold_id\n"
                            + "".join(f"{k},{v}\n" for k, v in fold_of.items()))
        eval_out = tmp_path / "eval"
        assert main(["eval", str(dataset_dir), str(sim_out / "detections.csv"), "--iou", "0.5",
                     "--folds", str(manifest), "--out", str(eval_out)]) == 0

        images, _ = load_dataset(dataset_dir, "kitti")
        gts = [a for image in images for a in image.annotations]
        dets = read_detections_csv(sim_out / "detections.csv")
        rows = read_csv(eval_out / "folds.csv")
        assert [r[0] for r in rows[1:]] == ["f0", "f1", "f2", "mean"]
        for fold_id, ap, tp, fp, total_gt, n_images in rows[1:4]:
            fold = {k for k, v in fold_of.items() if v == fold_id}
            want = evaluate_detections([d for d in dets if d.image_id in fold],
                                       [g for g in gts if g.source_image in fold],
                                       class_name="Car", iou_threshold=0.5)
            assert want.tp + want.fp > 0
            assert [ap, tp, fp, total_gt, n_images] == [
                repr(want.ap), str(want.tp), str(want.fp), str(want.total_gt), str(len(fold))
            ]

    @pytest.mark.parametrize("command", ["eval", "stats", "coverage", "simulate"])
    def test_eval_builds_no_box_per_row(self, tmp_path, monkeypatch, command):
        # Labels (and eval's detections) are read, counted and matched as
        # columns, and simulate writes its detections from columns: the Box
        # objects a command builds do not grow with the label rows or detections.
        profile = self._profile(tmp_path, "detect_prob=0:0.8\nfp_per_image=2\nseed=3\n")
        built = []
        for n_images in (4, 16):
            labels, sim_out = tmp_path / f"labels{n_images}", tmp_path / f"sim{n_images}"
            write_kitti_dataset(labels, synthetic_vehicle_dataset(seed=5, n_images=n_images))
            argv = [command, str(labels), "--out", str(tmp_path / f"{command}{n_images}")]
            if command == "eval":
                assert main(["simulate", str(labels), str(profile), "--out", str(sim_out)]) == 0
                argv.insert(2, str(sim_out / "detections.csv"))
            elif command == "simulate":
                argv.insert(2, str(profile))
            count = 0
            init = Box.__init__

            def counted(box, *corners):
                nonlocal count
                count += 1
                init(box, *corners)

            monkeypatch.setattr(Box, "__init__", counted)
            assert main(argv) == 0
            monkeypatch.undo()
            built.append(count)
        assert built[0] == built[1] <= 2

    def test_fold_without_ground_truth_warns(self, tmp_path, capsys):
        d = tmp_path / "one"
        write_kitti_dataset(d, synthetic_vehicle_dataset(seed=31, n_images=1))
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n")
        manifest = tmp_path / "folds.csv"
        manifest.write_text("image_id,fold_id\n000000,a\nnot_an_image,b\n")
        eval_out = tmp_path / "eval"
        assert main(["eval", str(d), str(dets), "--folds", str(manifest),
                     "--out", str(eval_out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: fold 'b': no ground truth for this class; AP defined as 0",
            "warning: 1 folds manifest image id(s) not in the dataset",
        ]
        assert read_csv(eval_out / "folds.csv")[2] == ["b", "0.0", "0", "0", "0", "1"]
        assert main(["eval", str(d), str(dets), "--class", "Tram", "--out", str(eval_out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: no ground truth for this class; AP defined as 0"]

    def test_header_only_folds_manifest_exit_code(self, dataset_dir, tmp_path, capsys):
        profile = self._profile(tmp_path, "detect_prob=0:1\nseed=1\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(dataset_dir), str(profile), "--out", str(sim_out)]) == 0
        manifest = tmp_path / "folds.csv"
        manifest.write_text("image_id,fold_id\n")
        assert main(["eval", str(dataset_dir), str(sim_out / "detections.csv"),
                     "--folds", str(manifest), "--out", str(tmp_path / "eval")]) == 2
        assert "folds.csv: no folds" in capsys.readouterr().err

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_exit_code(self, dataset_dir, tmp_path, capsys, score):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n"
                        f"000000,Car,0,0,10,10,0.5\n000001,Car,0,0,10,10,{score}\n")
        assert main(["eval", str(dataset_dir), str(dets), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "dets.csv: line 3" in err and "finite" in err

    def test_infinite_extent_box_exit_code(self, dataset_dir, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n"
                        "000000,Car,0,0,10,10,0.5\n000001,Car,-1e308,0,1e308,10,0.5\n")
        out = tmp_path / "eval"
        assert main(["eval", str(dataset_dir), str(dets), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dets.csv: line 3" in err and "extent" in err
        assert list(out.iterdir()) == []

    def test_detections_on_unknown_images_warn(self, dataset_dir, tmp_path, capsys):
        # "1" is not the dataset image "000001"; both rows are scored as FPs.
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n"
                        "1,Car,0,0,10,10,0.5\n1,Car,5,5,20,20,0.4\n")
        out = tmp_path / "eval"
        assert main(["eval", str(dataset_dir), str(dets), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["warning: 1 detection image id(s) not in the dataset"]
        assert "AP (all-point, IoU 0.7): 0.0" in captured.out
        assert read_csv(out / "ap.csv")[1][4:6] == ["0", "2"]

    def test_counts_line(self, tmp_path, capsys):
        # A TP on the Car, a detection absorbed by the DontCare region, an FP,
        # and a Pedestrian detection outside the evaluated class.
        gts = [Annotation("Car", Box(0, 0, 10, 10), "a"),
               Annotation("DontCare", Box(50, 50, 90, 90), "a")]
        (tmp_path / "labels").mkdir()
        (tmp_path / "labels" / "a.txt").write_text("\n".join(map(kitti_label_line, gts)))
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n"
                        "a,Car,0,0,10,10,0.9\na,Car,52,52,88,88,0.8\na,Car,20,0,30,10,0.7\n"
                        "a,Pedestrian,0,0,10,10,0.6\n")
        cars = [d for d in read_detections_csv(dets) if d.class_name == "Car"]
        labels = [label for _, label in match_detections(cars, gts, 0.7)]
        assert sorted(labels) == ["fp", "ignored", "tp"]
        assert main(["eval", str(tmp_path / "labels"), str(dets),
                     "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert "detections: read=4 class=3 tp=1 fp=1 ignored=1" in captured.out.splitlines()
        assert captured.err == ""
        assert main(["eval", str(tmp_path / "labels"), str(dets), "--class", "Pedestrian",
                     "--out", str(tmp_path / "p")]) == 0
        assert "detections: read=4 class=1 tp=0 fp=1 ignored=0" in capsys.readouterr().out

    def test_seed_override_changes_output(self, dataset_dir, tmp_path):
        profile = self._profile(tmp_path, "detect_prob=0:0.5\nseed=1\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["simulate", str(dataset_dir), str(profile), "--out", str(out_a)])
        main(["simulate", str(dataset_dir), str(profile), "--seed", "2", "--out", str(out_b)])
        assert (out_a / "detections.csv").read_bytes() != (out_b / "detections.csv").read_bytes()

    def test_run_config_records_loader_settings(self, dataset_dir, tmp_path):
        profile = self._profile(tmp_path, "detect_prob=0:1\nseed=1\n")
        sim_out = tmp_path / "sim"
        assert main(["simulate", str(dataset_dir), str(profile),
                     "--image-size", "800x600", "--out", str(sim_out)]) == 0
        eval_out = tmp_path / "eval"
        assert main(["eval", str(dataset_dir), str(sim_out / "detections.csv"),
                     "--image-size", "800x600", "--out", str(eval_out)]) == 0
        for out in (sim_out, eval_out):
            lines = (out / "run_config.txt").read_text().splitlines()
            assert f"dataset_dir={dataset_dir}" in lines
            assert "format=kitti" in lines
            assert "image_size=800x600" in lines
            assert "skip_bad=False" in lines

    def test_run_config_records_the_resolved_profile(self, dataset_dir, tmp_path):
        # Two profiles at one path give different detections; run_config.txt
        # tells them apart, and its profile lines parse back to the profile run.
        path = tmp_path / "profile.txt"
        texts = {"a": "detect_prob=16:0.1,64:0.9\nloc_noise_sigma=1.0\nseed=5\n",
                 "b": "detect_prob=16:0.1,64:0.9\nloc_noise_sigma=2.0\nfp_per_image=1\n"
                      "fp_size_range=8,30\nseed=5\n",
                 "a again": "detect_prob=16:0.1,64:0.9\nloc_noise_sigma=1.0\nseed=5\n"}
        runs = {}
        for tag, text in texts.items():
            path.write_text(text)
            out = tmp_path / tag
            assert main(["simulate", str(dataset_dir), str(path), "--out", str(out)]) == 0
            runs[tag] = dir_bytes(out)
            lines = (out / "run_config.txt").read_text().splitlines()
            recorded = "\n".join(line for line in lines if line.split("=")[0] in _PROFILE)
            assert parse_profile(recorded) == parse_profile(text)
        assert runs["a"] == runs["a again"]
        assert runs["a"]["detections.csv"] != runs["b"]["detections.csv"]
        assert runs["a"]["run_config.txt"] != runs["b"]["run_config.txt"]
        assert "fp_size_range=8.0,30.0" in runs["b"]["run_config.txt"].decode()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_seed_exit_code(self, dataset_dir, tmp_path, capsys, source):
        profile = self._profile(tmp_path, "detect_prob=0:1\nseed=1\n")
        argv = ["simulate", str(dataset_dir), str(profile), "--out", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--seed", "abc"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed=abc\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert "'abc'" in capsys.readouterr().err


# The sha256 of every artifact of test_all_subcommands_byte_identical but
# run_config.txt (which names the temporary paths), recorded once; any change
# to these bytes must be deliberate and recorded here.
DETERMINISM_DIGESTS = {
    "stats/aspect_histogram.svg":
        "aed9a7776f2a4354cca1e885d940ab648d7d804aa0ba0f42bb5671107183309a",
    "stats/height_histogram.svg":
        "05f4489319c5a03c6361ed2f1389b67b6dfe5b507d5ad61214dda9df9fe5f21f",
    "stats/sqrt_area_histogram.svg":
        "e8bda8b2ca23a67c6fa03499442b06d3d759d3f805ff5b378fb3571e6d17ac36",
    "stats/stats.csv": "882ab2caf6172fd13ab7bc9cba7b83936180566b75a23c93fa5682ddf96cec19",
    "stats/width_histogram.svg": "52c35b2cc3d5200e8eddbb4e3ed273cef1c458f813540c2b1c24a6a0dbbc0ce6",
    "cov/attribution.csv": "99602af4bfacacb7d961f97eb694f69b4f8865ca53416c6995503307d568900d",
    "cov/coverage.csv": "c2ad110db6a911b4e7f7f3284610875230bafebfc223adc4de2316b5fbdd618c",
    "cov/delta.csv": "60e167b5a6c308df9ee0211efb8ceff95d5b96bf924368b0836c3c347cf16054",
    "rf/findings.txt": "b0160373b101ade966163db8eaf0688541f48632952b10da3d2d58414928933a",
    "rf/rf.csv": "6712c9526886808b3ccf2f3dd323c8c419de5b1d4300e70d4072e3ff633f0f90",
    "sim/detections.csv": "b7fb46e837834f6d842cbaeb2328e2151cd5000247fc8ee9c78ddf1c22bf251d",
    "eval/ap.csv": "e2adccc438c80a2b70921d06db5c940adcc49c2925bd06d24772f4803eacd92c",
    "eval/pr.csv": "75eb34dfb3de58921a3b39259b7002c4a9695da6e765ae2be88ce0d9efaec468",
    "eval/pr.svg": "b78e7691261e066ebaa628524437f848e9529b80a28ca7a78aee592b0a98dea6",
}

# run_config.txt of each run of test_all_subcommands_byte_identical, with the
# temporary root written as "<tmp>": every resolved setting, one per line.
RUN_CONFIGS = {
    "stats": "bins=0.0,30.0,60.0,90.0,120.0,180.0,256.0,384.0,512.0,inf\n"
             "class_filter=\ndataset_dir=<tmp>/labels\nformat=kitti\nimage_size=1392x512\n"
             "skip_bad=False\nsubcommand=stats\n",
    "cov": "allow_border=True\nbuckets=0.0,30.0,60.0,90.0,120.0,180.0,256.0,384.0,512.0,inf\n"
           "class_filter=\ncompare=128.0\ndataset_dir=<tmp>/labels\nformat=kitti\n"
           "image_size=1392x512\nratios=0.5,1.0,2.0\nscales=32.0,64.0,128.0\nskip_bad=False\n"
           "stride=16.0\nsubcommand=coverage\nthresholds=0.5,0.7\n",
    "rf": "arch=builtin:zf_combin\ninput_size=1392x512\nprobe=\nsubcommand=rf\n",
    "sim": "dataset_dir=<tmp>/labels\ndetect_prob=16.0:0.1,64.0:0.9\nformat=kitti\n"
           "fp_per_image=1.0\nfp_size_range=20.0,120.0\nimage_size=1392x512\n"
           "loc_noise_sigma=1.0\nprofile=<tmp>/profile.txt\nscore_mean_fp=0.3\n"
           "score_mean_tp=0.8\nscore_sigma=0.08\nseed=5\nskip_bad=False\nsubcommand=simulate\n",
    "eval": "buckets=0.0,128.0,inf\nclass_name=Car\ndataset_dir=<tmp>/labels\n"
            "detections_csv=<tmp>/shared_sim/detections.csv\nfolds=\nformat=kitti\n"
            "image_size=1392x512\niou=0.7\nmode=all-point\nskip_bad=False\n"
            "subcommand=eval\n",
}


class TestDeterminism:
    def test_all_subcommands_byte_identical(self, dataset_dir, tmp_path):
        profile = tmp_path / "profile.txt"
        profile.write_text("detect_prob=16:0.1,64:0.9\nloc_noise_sigma=1.0\n"
                           "fp_per_image=1.0\nseed=5\n")
        shared_sim = tmp_path / "shared_sim"
        assert main(["simulate", str(dataset_dir), str(profile), "--out", str(shared_sim)]) == 0
        detections = shared_sim / "detections.csv"
        runs = {}
        for tag in ("one", "two"):
            base = tmp_path / tag
            assert main(["stats", str(dataset_dir), "--out", str(base / "stats")]) == 0
            assert main(["coverage", str(dataset_dir), "--scales", "32,64,128",
                         "--compare", "128", "--out", str(base / "cov")]) == 0
            assert main(["rf", "zf_combin", "--out", str(base / "rf")]) == 0
            assert main(["simulate", str(dataset_dir), str(profile),
                         "--out", str(base / "sim")]) == 0
            assert main(["eval", str(dataset_dir), str(detections),
                         "--buckets", "0,128,inf", "--out", str(base / "eval")]) == 0
            runs[tag] = {
                sub: dir_bytes(base / sub) for sub in ("stats", "cov", "rf", "sim", "eval")
            }
        assert runs["one"] == runs["two"]
        digests = {f"{sub}/{name}": hashlib.sha256(data).hexdigest()
                   for sub, files in runs["one"].items() for name, data in files.items()
                   if name != "run_config.txt"}
        assert digests == DETERMINISM_DIGESTS
        configs = {sub: files["run_config.txt"].decode().replace(str(tmp_path), "<tmp>")
                   for sub, files in runs["one"].items()}
        assert configs == RUN_CONFIGS


class TestConfigPrecedence:
    def test_file_supplies_flags_cli_overrides(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scales=128\nthresholds=0.5\n")
        out_file = tmp_path / "from_file"
        main(["coverage", str(dataset_dir), "--config", str(cfg), "--out", str(out_file)])
        echoed = (out_file / "run_config.txt").read_text()
        assert "scales=128.0" in echoed

        out_flag = tmp_path / "from_flag"
        main(["coverage", str(dataset_dir), "--config", str(cfg),
              "--scales", "32,64", "--out", str(out_flag)])
        echoed = (out_flag / "run_config.txt").read_text()
        assert "scales=32.0,64.0" in echoed

    def test_env_var_default_out_dir(self, kitti_dir, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("SCALEDET_OUTPUT_DIR", str(target))
        assert main(["stats", str(kitti_dir)]) == 0
        assert (target / "stats.csv").exists()


class TestConfigFile:
    def test_allow_border_false_equals_drop_border(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("allow_border=false\n")
        runs = {}
        for tag, extra in (("file", ["--config", str(cfg)]), ("flag", ["--drop-border"]),
                           ("default", [])):
            assert main(["coverage", str(dataset_dir), *extra, "--out", str(tmp_path / tag)]) == 0
            runs[tag] = [line for line in capsys.readouterr().out.splitlines()
                         if line.startswith("anchors per image")]
        assert runs["file"] == runs["flag"] != runs["default"]
        assert dir_bytes(tmp_path / "file") == dir_bytes(tmp_path / "flag")
        assert "allow_border=False" in (tmp_path / "file" / "run_config.txt").read_text()

    def test_flag_overrides_config_boolean(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("allow_border=false\n")
        out = tmp_path / "o"
        assert main(["coverage", str(dataset_dir), "--config", str(cfg), "--keep-border",
                     "--out", str(out)]) == 0
        assert "allow_border=True" in (out / "run_config.txt").read_text()

    def test_skip_bad_true_equals_skip_bad_flag(self, kitti_dir, tmp_path, capsys):
        (kitti_dir / "broken.txt").write_text("Car 1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("skip_bad=true\n")
        assert main(["stats", str(kitti_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "file")]) == 0
        assert "skipped: broken.txt" in capsys.readouterr().err
        assert main(["stats", str(kitti_dir), "--skip-bad", "--out", str(tmp_path / "flag")]) == 0
        assert dir_bytes(tmp_path / "file") == dir_bytes(tmp_path / "flag")
        assert "skip_bad=True" in (tmp_path / "file" / "run_config.txt").read_text()

    @pytest.mark.parametrize("key, value", [("allow_border", "flase"), ("skip_bad", "1")])
    def test_non_boolean_exit_code(self, dataset_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert main(["coverage", str(dataset_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"run.cfg line 1: {key}" in err and repr(value) in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_compare_exit_code(self, dataset_dir, tmp_path, capsys, source):
        out = tmp_path / "o"
        argv = ["coverage", str(dataset_dir), "--out", str(out)]
        if source == "flag":
            argv += ["--compare", ""]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("compare=\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--compare" in err and "empty list" in err
        assert not (out / "delta.csv").exists()

    def test_compare_recorded_like_scales(self, dataset_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["coverage", str(dataset_dir), "--scales", "32,64", "--compare", "32,64,128",
                     "--out", str(out)]) == 0
        lines = (out / "run_config.txt").read_text().splitlines()
        assert "scales=32.0,64.0" in lines and "compare=32.0,64.0,128.0" in lines

    def test_non_utf8_config_exit_code(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"scales=64\xff\n")
        assert main(["coverage", str(dataset_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "run.cfg: not UTF-8 text" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("thresholds=0.5\nscale=64\n")
        out = tmp_path / "o"
        assert main(["coverage", str(dataset_dir), "--config", str(cfg), "--out", str(out)]) == 1
        assert "run.cfg line 2: unknown key 'scale'" in capsys.readouterr().err
        assert not (out / "coverage.csv").exists()



# Values of each profile kind, at the edges of float64 and past 64-bit seeds.
FLOATS = st.floats() | st.sampled_from((5e-324, -5e-324, 1e308, -1.7e308, -0.0))
KIND_VALUES = {
    _number: FLOATS,
    _numbers: st.lists(FLOATS, min_size=1, max_size=4).map(tuple),
    _knots: st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=4).map(tuple),
    _integer: st.integers() | st.integers(2**64 - 2, 2**200) | st.integers(-2**200, -2**64),
}


class TestRunConfigRoundTrip:
    def test_profile_keys_are_the_profile_fields(self):
        # A field missing here would be neither read from a profile nor recorded.
        assert set(_PROFILE) == {f.name for f in dataclasses.fields(DetectorProfile)}

    @given(case=st.sampled_from(sorted(_PROFILE)).flatmap(
        lambda key: st.tuples(st.just(_PROFILE[key]), KIND_VALUES[_PROFILE[key]])))
    def test_each_profile_kind_reads_its_record(self, case):
        kind, value = case
        assert set(KIND_VALUES) == set(_PROFILE.values())
        # repr tells -0.0 from 0.0 and compares nan.
        assert repr(kind(_record(value, kind), "key")) == repr(value)

    @pytest.mark.parametrize("argv", [
        ["stats", "@kitti", "--class", "Van", "--bins", "0,50,inf", "--skip-bad",
         "--image-size", "800x600"],
        ["coverage", "@kitti", "--class", "Car", "--scales", "32,64", "--ratios", "1,2",
         "--drop-border", "--stride", "8", "--thresholds", "0.5", "--buckets", "0,64,inf",
         "--compare", "128"],
        ["rf", "zf", "--input-size", "640x480", "--probe", "conv1"],
        ["eval", "@kitti", "@dets.csv", "--class", "Van", "--mode", "11-point",
         "--buckets", "0,64,inf", "--folds", "@folds.csv", "--format", "kitti", "--iou", "0.6"],
        ["simulate", "@kitti", "@profile.txt", "--seed", str(2**64 + 5)],
    ], ids=lambda argv: argv[0])
    def test_recorded_settings_reproduce_run_config(self, tmp_path, argv):
        # The non-empty lines of run_config.txt that a config file may set,
        # read back as --config, resolve to the same run_config.txt.
        write_input_files(tmp_path)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        rows = SETTINGS[argv[0]][2]
        positional = 1 + sum(not flag.startswith("-") for _, flag, *_ in rows)
        settable = {key for key, flag, *_ in rows if flag.startswith("-")}
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        recorded = (tmp_path / "a" / "run_config.txt").read_text()
        lines = [line for line in recorded.splitlines()
                 if line.partition("=")[0] in settable and line.partition("=")[2]]
        assert len(lines) >= 2
        (tmp_path / "recorded.cfg").write_text("".join(f"{line}\n" for line in lines))
        assert main(argv[:positional] + ["--config", str(tmp_path / "recorded.cfg"),
                                         "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "run_config.txt").read_text() == recorded


class TestParserReuse:
    """``main`` reuses one parser per process; no run's values reach the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_flag_does_not_outlive_its_run(self, dataset_dir, tmp_path):
        for tag, extra in (("dropped", ["--drop-border"]), ("default", [])):
            assert main(["coverage", str(dataset_dir), *extra, "--out", str(tmp_path / tag)]) == 0
        assert "allow_border=False" in (tmp_path / "dropped" / "run_config.txt").read_text()
        assert "allow_border=True" in (tmp_path / "default" / "run_config.txt").read_text()

    def test_config_file_does_not_outlive_its_run(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scales=64\nstride=8\nallow_border=false\n")
        assert main(["coverage", str(dataset_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["coverage", str(dataset_dir), "--thresholds", "0.5,0.7",
                     "--out", str(tmp_path / "flags")]) == 0
        assert main(["coverage", str(dataset_dir), "--out", str(tmp_path / "fresh")]) == 0
        lines = (tmp_path / "flags" / "run_config.txt").read_text().splitlines()
        assert "scales=128.0,256.0,512.0" in lines and "stride=16.0" in lines
        assert "allow_border=True" in lines
        assert dir_bytes(tmp_path / "flags") == dir_bytes(tmp_path / "fresh")

    def test_unknown_flag_after_a_good_run_exit_code(self, kitti_dir, tmp_path, capsys):
        assert main(["stats", str(kitti_dir), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert main(["stats", str(kitti_dir), "--no-such-flag", "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


CONFIG_KEYS = [(name, key, flag) for name, (_, _, rows) in SETTINGS.items()
               for key, flag, *_ in rows if flag.startswith("-")]


@pytest.fixture
def fuzz_inputs(tmp_path):
    """Every input a subcommand needs, tiny, with KITTI and VOC labels side by side."""
    labels = tmp_path / "labels"
    write_kitti_dataset(labels, synthetic_vehicle_dataset(seed=5, n_images=3))
    (labels / "000123.xml").write_text(VOC_XML)
    dets = tmp_path / "dets.csv"
    dets.write_text("image_id,class,x1,y1,x2,y2,score\n000000,Car,10,10,60,40,0.9\n")
    profile = tmp_path / "profile.txt"
    profile.write_text("detect_prob=0:0.5\nfp_per_image=1\nseed=1\n")
    (tmp_path / "folds.csv").write_text("image_id,fold_id\n000000,a\n000001,b\n")
    return {"stats": [str(labels)], "coverage": [str(labels)], "rf": ["zf"],
            "eval": [str(labels), str(dets)], "simulate": [str(labels), str(profile)]}


# Magnitudes that the exit-code fuzz builds its valid inputs at, beside ordinary values.
EXTREMES = (5e-324, 1e16, 1.3e154, 1e200, 1.7e308)


def box_ok(x1, y1, x2, y2) -> bool:
    """The box rule of the label and detection formats."""
    return x2 > x1 and y2 > y1 and math.isfinite((x2 - x1) * (y2 - y1))


@st.composite
def fuzz_boxes(draw):
    """Corners of a box that is valid as written and as VOC reads it (xmin - 1,
    ymin - 1): its sides have a finite product with room to spare."""
    sides = (3.0, 50.0, *EXTREMES)
    w = draw(st.sampled_from(sides))
    h = draw(st.sampled_from([s for s in sides if math.isfinite(w * s * 4)]))
    x1, y1 = (draw(st.sampled_from((0.0, 10.0, 600.0))) - draw(st.sampled_from((0, 0.5, 1))) * side
              for side in (w, h))
    corners = (x1, y1, x1 + w, y1 + h)
    if box_ok(*corners) and box_ok(x1 + 1.0 - 1.0, y1 + 1.0 - 1.0, *corners[2:]):
        return corners
    return 0.0, 0.0, w, h


def voc_text(size, objects) -> str:
    body = "".join(f"<object><name>{c}</name><bndbox><xmin>{x1 + 1.0!r}</xmin><ymin>{y1 + 1.0!r}"
                   f"</ymin><xmax>{x2!r}</xmax><ymax>{y2!r}</ymax></bndbox></object>"
                   for c, (x1, y1, x2, y2) in objects)
    return (f"<annotation><size><width>{size[0]!r}</width><height>{size[1]!r}</height></size>"
            f"{body}</annotation>")


def anchor_sides(scales, ratios):
    return [(s / math.sqrt(r), s * math.sqrt(r)) for s in scales for r in ratios]


def anchor_fit(scales, ratios, stride, size):
    """Whether some anchor of the family, on the grid at ``stride``, fits inside an
    image of ``size`` without crossing its border: True or False, or None where
    that turns on rounding. Exact arithmetic, with a margin of a few float steps
    of the edges each way."""
    def fits(side, limit, slack):
        # The first cell whose anchor starts at ``slack`` or later, if any, ends
        # lowest; it must end by ``limit - slack``.
        half, step = Fraction(side) / 2, Fraction(stride)
        i = max(0, math.ceil((half + slack) / step - Fraction(1, 2)))
        return (i < max(1, math.ceil(limit / stride))
                and (i + Fraction(1, 2)) * step + half <= limit - slack)

    strict, loose = (any(all(fits(side, limit, sign * Fraction(
        4 * math.ulp(min(limit + side + stride, sys.float_info.max))))
        for side, limit in zip(shape, size)) for shape in anchor_sides(scales, ratios))
        for sign in (1, -1))
    return True if strict else None if loose else False


@st.composite
def cli_runs(draw):
    """One run of stats, coverage, eval or simulate, in the layout of ``fuzz_inputs``:
    ``(argv, files, codes)``, "@" marking a path under the run's root.

    Every input is valid by construction, at EXTREMES and at ordinary values, so
    the run exits 0, except that ``coverage --drop-border`` exits 1 when no
    anchor of a family fits inside an image with ground truth of the counted
    class (``--class`` Car, Van or Truck, or every class). One draw in 5
    breaks one input, and ``codes`` holds its exit code: 2 for a malformed
    label, detections or folds file, 1 for an out-of-range setting, an empty or
    DontCare class or a malformed profile line; with ``--skip-bad`` a malformed
    label file is left out and the run goes on without it. One draw in 10
    breaks the label file and one setting together: settings are checked
    before labels are read, so it exits 1. Where validity turns on rounding or
    on the random draws (anchor edges too coarse for the stride, an anchor
    that fits only to within a few float steps, a jittered or false-positive
    box whose area overflows), ``codes`` allows 0 or 1.
    """
    def pick(values):
        return draw(st.sampled_from(values))

    def predict(kept):
        """The exit codes of the run as drawn, on the label files of images ``kept``."""
        return {0}

    name = pick(("stats", "coverage", "eval", "simulate"))
    fmt = pick(("kitti", "voc"))
    fields = ("0", "-1", "5e-324", "1.3e154", "-1.7e308")
    files, labels, sizes = {}, {}, {}  # labels: per image, its (class, box) other than DontCare
    for image_id in ("000000", "000001"):
        objects = draw(st.lists(st.tuples(st.sampled_from(("Car", "Van", "DontCare")),
                                          fuzz_boxes()), max_size=3))
        lines = [" ".join([c, pick(fields), pick(fields), pick(fields), *map(repr, box),
                           *(pick(fields) for _ in range(7))]) for c, box in objects]
        files[f"labels/{image_id}.txt"] = "".join(line + "\n" for line in lines)
        sizes[image_id] = (pick((500.0, *EXTREMES)), pick((375.0, *EXTREMES)))
        files[f"labels/{image_id}.xml"] = voc_text(sizes[image_id], objects)
        labels[image_id] = [(c, box) for c, box in objects if c != "DontCare"]
    argv = [name, "@labels", "--format", fmt]
    if fmt == "kitti":
        size = (pick((1392, 1, *map(int, EXTREMES[1:]))), pick((512, 1, *map(int, EXTREMES[1:]))))
        argv += ["--image-size", "%dx%d" % size]
        sizes = dict.fromkeys(sizes, tuple(map(float, size)))
    skip_bad = draw(st.booleans())
    if skip_bad:
        argv.append("--skip-bad")
    positional = {"eval": "@dets.csv", "simulate": "@profile.txt"}
    if name in positional:
        argv.insert(2, positional[name])

    def edges():
        values = sorted(set(draw(st.lists(st.sampled_from((0.0, 30.0, math.inf, *EXTREMES)),
                                          min_size=2, max_size=4))))
        return ",".join(map(repr, values if len(values) > 1 else [0.0, math.inf]))

    broken = [(2, f"labels/000001.{'txt' if fmt == 'kitti' else 'xml'}", "Car 1 2\n"),
              (1, "--image-size", "0x512")]
    if name == "stats":
        argv += ["--bins", edges(), "--class", pick(("Car", "Van", "Truck"))]
        broken += [(1, "--bins", "5,5"), (1, "--class", ""), (1, "--class", "DontCare")]
    elif name == "coverage":
        ratios = sorted(set(draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, *EXTREMES)),
                                          min_size=1, max_size=3))))
        usable = [s for s in (32.0, 128.0, *EXTREMES)
                  if all(math.isfinite(w * h) for w, h in anchor_sides([s], ratios))]
        families = [sorted(set(draw(st.lists(st.sampled_from(usable), min_size=1, max_size=3))))]
        side = max(max(size) for size in sizes.values())
        stride = max(pick((16.0, *EXTREMES)), side / 4096)  # at most 8,192 cells per axis
        thresholds = sorted(set(draw(st.lists(st.sampled_from((5e-324, 0.5, 0.7, 1.0)),
                                              min_size=1, max_size=2))))
        argv += ["--scales", ",".join(map(repr, families[0])),
                 "--ratios", ",".join(map(repr, ratios)), "--stride", repr(stride),
                 "--thresholds", ",".join(map(repr, thresholds)), "--buckets", edges()]
        if draw(st.booleans()):
            families.append(sorted(set(draw(st.lists(st.sampled_from(usable), min_size=1,
                                                     max_size=2)))))
            argv += ["--compare", ",".join(map(repr, families[1]))]
        drop_border = draw(st.booleans())
        if drop_border:
            argv.append("--drop-border")
        class_filter = pick((None, "Car", "Van", "Truck"))
        if class_filter is not None:
            argv += ["--class", class_filter]
        half = max(max(w, h) for scales in families for w, h in anchor_sides(scales, ratios)) / 2
        coarse = 64 * math.ulp(side + half) > stride

        def predict(kept):
            counted = [i for i in kept if drop_border and any(
                class_filter in (None, c) for c, _ in labels[i])]
            fits = {anchor_fit(scales, ratios, stride, sizes[i])
                    for scales in families for i in counted}
            if False in fits:
                return {1}
            return {0, 1} if coarse or None in fits else {0}

        broken += [(1, "--thresholds", "0"), (1, "--stride", "-16"), (1, "--buckets", "1"),
                   (1, "--class", ""), (1, "--class", "DontCare")]
    elif name == "eval":
        rows = [f"{pick(('000000', '000001', 'other'))},{pick(('Car', 'Van'))},"
                + ",".join(map(repr, box)) + f",{pick((0.5, 0.9, 5e-324, -1.7e308, 1.7e308))!r}"
                for box in draw(st.lists(fuzz_boxes(), max_size=4))]
        files["dets.csv"] = "image_id,class,x1,y1,x2,y2,score\n" + "".join(f"{row}\n" for row in rows)
        files["folds.csv"] = "image_id,fold_id\n000000,a\n000001,b\n"
        argv += ["--class", pick(("Car", "Van")), "--mode", pick(("all-point", "11-point")),
                 "--buckets", edges(), "--folds", "@folds.csv"]
        if draw(st.booleans()):
            argv += ["--iou", repr(pick((5e-324, 0.5, 1.0)))]
        broken += [(2, "dets.csv", files["dets.csv"] + "000000,Car,1,1,2,2,nan\n"),
                   (2, "folds.csv", files["folds.csv"] + "000000,c\n"),
                   (1, "--iou", "1.5"), (1, "--mode", "11point"), (1, "--class", ""),
                   (1, "--class", "DontCare")]
    else:
        widths = sorted(set(draw(st.lists(st.sampled_from((0.0, 16.0, -1.7e308, *EXTREMES)),
                                          min_size=1, max_size=3))))
        knots = ",".join(f"{w!r}:{pick((0.0, 5e-324, 0.5, 1.0))!r}" for w in widths)
        means = sorted(set(draw(st.lists(st.sampled_from((-1.7e308, 0.3, 0.8, *EXTREMES)),
                                         min_size=2, max_size=2, unique=True))))
        sigma, rate = pick((0.0, 5e-324, 1.5, 1e6)), pick((0.0, 5e-324, 1.5, 15.0))
        lo, hi = sorted(draw(st.lists(st.sampled_from((20.0, 120.0, *EXTREMES)),
                                      min_size=2, max_size=2)))
        files["profile.txt"] = (
            f"detect_prob={knots}\nloc_noise_sigma={sigma!r}\nscore_mean_fp={means[0]!r}\n"
            f"score_mean_tp={means[1]!r}\nfp_per_image={rate!r}\nfp_size_range={lo!r},{hi!r}\n"
            f"score_sigma={pick((0.0, 5e-324, 0.08, *EXTREMES))!r}\n")
        argv += ["--seed", str(pick((0, 7, -3, 2**64 + 5)))]
        # Bounds on the sides of a jittered box, and of a false positive of up to
        # ``hi`` px: either may take the next float above its near edge.
        def jittered(near, far):
            return far - near + 100 * sigma + 1 + math.ulp(near)

        def false_positive(side):
            return 2 * (min(hi, side) + math.ulp(side))

        def predict(kept):
            if (sigma > 0 and not all(math.isfinite(jittered(x1, x2) * jittered(y1, y2))
                                      for i in kept for _, (x1, y1, x2, y2) in labels[i])) or (
                    rate > 0 and not all(math.isfinite(false_positive(w) * false_positive(h))
                                         for w, h in map(sizes.get, kept))):
                return {0, 1}
            return {0}

        broken += [(1, "profile.txt", files["profile.txt"] + line) for line in (
            "loc_noise_sigma=2e6\n", f"score_mean_tp={means[0]!r}\n", f"fp_size_range={lo!r}\n",
            f"fp_size_range={lo!r},{hi!r},{hi!r}\n", f"detect_prob={widths[0]!r}:0.5:1\n")]
    kept = ("000000", "000001")
    roll = draw(st.integers(0, 9))
    if roll < 3:  # 0 or 1: one input broken; 2: the label file and one setting
        breaks = ([broken[0], pick([b for b in broken if b[0] == 1])] if roll == 2
                  else [pick(broken)])
        for _, target, value in breaks:
            if target.startswith("-"):
                argv += [target, value]
            else:
                files[target] = value
        if not (skip_bad and breaks == [broken[0]]):
            return argv, files, {breaks[-1][0]}
        kept = ("000000",)  # the malformed label file is skipped
    return argv, files, predict(kept)


# Only the Van's image is too small for a 32 px anchor: with --drop-border,
# coverage of Vans exits 1 and coverage of Cars exits 0.
NO_FIT_FILES = {"labels/000000.xml": voc_text((500.0, 375.0), [("Car", (10.0, 10.0, 60.0, 40.0))]),
                "labels/000001.xml": voc_text((20.0, 20.0), [("Van", (0.0, 0.0, 10.0, 10.0))])}
NO_FIT_ARGV = ["coverage", "@labels", "--format", "voc", "--scales", "32", "--drop-border"]


class TestExitCodeFuzz:
    @given(case=st.sampled_from(CONFIG_KEYS),
           text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
    @example(case=("coverage", "scales", "--scales"), text="1e160")  # anchor area overflows
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_setting_text_exits_0_or_1(self, fuzz_inputs, tmp_path, monkeypatch, capsys,
                                           case, text):
        # Any text for any table key, as a flag or as a config line, is a
        # valid run or a config error, never an internal error.
        monkeypatch.chdir(tmp_path)
        name, key, flag = case
        for source in ("flag", "config"):
            work = Path(tempfile.mkdtemp(dir=tmp_path))
            argv = [name, *fuzz_inputs[name]]
            if key == "out":  # keep every output inside the work directory
                value = str(work / ("o" + text.replace("/", "_")))
            else:
                value = text
                argv += ["--out", str(work / "out")]
            if source == "flag":
                argv.append(f"{flag.split('/')[0]}={value}")
            else:
                (work / "run.cfg").write_text(f"{key}={value}\n", encoding="utf-8")
                argv += ["--config", str(work / "run.cfg")]
            code = main(argv)
            assert code in (0, 1), (argv, capsys.readouterr().err)

    @given(run=cli_runs())
    @example(run=(NO_FIT_ARGV + ["--class", "Van"], NO_FIT_FILES, {1}))
    @example(run=(NO_FIT_ARGV + ["--class", "Car"], NO_FIT_FILES, {0}))
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_valid_inputs_exit_as_predicted(self, tmp_path, capsys, run):
        argv, files, codes = run
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        for relpath, text in files.items():
            (root / relpath).parent.mkdir(exist_ok=True)
            (root / relpath).write_text(text)
        argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
        assert main(argv + ["--out", str(root / "out")]) in codes, (
            argv, files, capsys.readouterr().err)


# One good file of each input kind, the subcommand that reads it ("@" marks a
# path under the fixture root), and the exit code when the file cannot be
# read: a config error for the inputs that configure a run, else a parse error.
INPUT_FILES = {
    "label": ("kitti/000001.txt", b"Car 0.0 0 0.0 10 10 60 40 1.5 1.6 3.5 0.0 1.7 20.0 0.0\n",
              ["stats", "@kitti"], 2),
    "xml": ("voc/000123.xml", VOC_XML.encode(), ["stats", "@voc", "--format", "voc"], 2),
    "arch": ("net.arch", b"input data channels=3\nconv c1 k=3 s=2 p=1 c=8 from data\n",
             ["rf", "@net.arch"], 2),
    "detections": ("dets.csv", b"image_id,class,x1,y1,x2,y2,score\n000000,Car,10,10,60,40,0.9\n",
                   ["eval", "@kitti", "@dets.csv"], 2),
    "profile": ("profile.txt", b"detect_prob=0:0.5\nfp_per_image=1\nseed=1\n",
                ["simulate", "@kitti", "@profile.txt"], 1),
    "folds": ("folds.csv", b"image_id,fold_id\n000000,a\n000001,b\n",
              ["eval", "@kitti", "@dets.csv", "--folds", "@folds.csv"], 1),
    "config": ("run.cfg", b"bins=0,30,60,inf\nclass_filter=Car\n",
               ["stats", "@kitti", "--config", "@run.cfg"], 1),
}


def write_input_files(root: Path) -> None:
    write_kitti_dataset(root / "kitti", synthetic_vehicle_dataset(seed=5, n_images=3))
    (root / "voc").mkdir()
    for relpath, good, _, _ in INPUT_FILES.values():
        (root / relpath).write_bytes(good)


def run_on_input(root: Path, kind: str, content: bytes | None) -> int:
    """Run the subcommand reading ``kind`` with ``content`` in its file (None: a directory)."""
    relpath, _, argv, _ = INPUT_FILES[kind]
    target = root / relpath
    target.unlink()
    if content is None:
        target.mkdir()
    else:
        target.write_bytes(content)
    return main([str(root / a[1:]) if a.startswith("@") else a for a in argv]
                + ["--out", str(root / "out")])


class TestInputFiles:
    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_good_file_exit_code(self, tmp_path, kind):
        # The baseline the fuzz below splices into is a valid run.
        write_input_files(tmp_path)
        assert run_on_input(tmp_path, kind, INPUT_FILES[kind][1]) == 0

    @pytest.mark.parametrize("content", [b"\xff\n", None], ids=["not-utf8", "directory"])
    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_unreadable_file_exit_code(self, tmp_path, capsys, kind, content):
        write_input_files(tmp_path)
        assert run_on_input(tmp_path, kind, content) == INPUT_FILES[kind][3]
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert err.count(Path(INPUT_FILES[kind][0]).name) == 1, err

    def test_skip_bad_skips_non_utf8_label(self, tmp_path, capsys):
        write_input_files(tmp_path)
        (tmp_path / "kitti" / "000001.txt").write_bytes(b"Car \xff\n")
        assert main(["stats", str(tmp_path / "kitti"), "--skip-bad",
                     "--out", str(tmp_path / "out")]) == 0
        out, err = capsys.readouterr()
        assert "images: 2" in out
        assert "skipped:" in err and "000001.txt: not UTF-8 text" in err

    @pytest.mark.parametrize("subcommand", ["stats", "coverage"])
    def test_voc_size_nan_exit_code(self, tmp_path, capsys, subcommand):
        write_input_files(tmp_path)
        (tmp_path / "voc" / "000124.xml").write_text(VOC_XML.replace("<width>500<", "<width>nan<"))
        argv = [subcommand, str(tmp_path / "voc"), "--format", "voc", "--class", "car",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "000124.xml: size: <width> must be positive and finite, got nan" in (
            capsys.readouterr().err)
        assert main(argv + ["--skip-bad"]) == 0
        assert "skipped: 000124.xml" in capsys.readouterr().err

    def test_oversized_csv_field_exit_code(self, tmp_path, capsys):
        write_input_files(tmp_path)
        assert run_on_input(tmp_path, "detections",
                            b"image_id,class,x1,y1,x2,y2,score\n" + b"x" * 200_000 + b"\n") == 2
        assert "dets.csv: field larger than field limit" in capsys.readouterr().err

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_input_bytes_never_exit_3(self, tmp_path, capsys, data):
        # Arbitrary bytes, or a good file with a span replaced by arbitrary
        # bytes (which reaches past the first line), or a directory.
        kind = data.draw(st.sampled_from(sorted(INPUT_FILES)))
        good = INPUT_FILES[kind][1]
        spliced = st.tuples(st.integers(0, len(good)), st.integers(0, 8),
                            st.binary(max_size=8)).map(
            lambda t: good[: t[0]] + t[2] + good[t[0] + t[1]:])
        content = data.draw(st.one_of(st.none(), st.binary(max_size=64), spliced))
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        write_input_files(root)
        code = run_on_input(root, kind, content)
        assert code in (0, 1, 2), (kind, content, capsys.readouterr().err)


# Every artifact of each subcommand, and arguments under which it writes them all.
OUTPUTS = {
    "stats": (["stats", "@kitti"], ["stats.csv", "width_histogram.svg", "height_histogram.svg",
                                    "sqrt_area_histogram.svg", "aspect_histogram.svg"]),
    "coverage": (["coverage", "@kitti", "--compare", "32,64"],
                 ["coverage.csv", "attribution.csv", "delta.csv"]),
    "rf": (["rf", "zf"], ["rf.csv", "findings.txt"]),
    "eval": (["eval", "@kitti", "@dets.csv", "--folds", "@folds.csv"],
             ["pr.csv", "ap.csv", "pr.svg", "folds.csv"]),
    "simulate": (["simulate", "@kitti", "@profile.txt"], ["detections.csv"]),
}


def run_with_outputs(root: Path, subcommand: str) -> int:
    write_input_files(root)
    argv = OUTPUTS[subcommand][0]
    return main([str(root / a[1:]) if a.startswith("@") else a for a in argv]
                + ["--out", str(root / "out")])


class TestOutputFiles:
    @pytest.mark.parametrize("subcommand", sorted(OUTPUTS))
    def test_outputs_are_listed(self, tmp_path, subcommand):
        assert run_with_outputs(tmp_path, subcommand) == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == sorted(OUTPUTS[subcommand][1] + ["run_config.txt"])

    @pytest.mark.parametrize("manifest, code, message", [
        (None, 1, "folds.csv"),
        (b"image_id,fold_id\n", 2, "folds.csv: no folds"),
        (b"image_id,fold_id\n000000,a\n000000,b\n000001,b\n", 2,
         "folds.csv: line 3: image '000000' listed twice"),
        (b"image_id,fold_id\n000000,mean\n000001,b\n", 2,
         "folds.csv: line 2: fold id 'mean' is reserved for the aggregate row"),
    ], ids=["missing", "header-only", "repeated-image", "aggregate-fold-id"])
    def test_failed_eval_writes_nothing(self, tmp_path, capsys, manifest, code, message):
        # Every input is read before the first artifact is written.
        write_input_files(tmp_path)
        (tmp_path / "folds.csv").unlink()
        if manifest is not None:
            (tmp_path / "folds.csv").write_bytes(manifest)
        assert main(["eval", str(tmp_path / "kitti"), str(tmp_path / "dets.csv"),
                     "--folds", str(tmp_path / "folds.csv"), "--out", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("subcommand, artifact", [
        (sub, name) for sub, (_, names) in OUTPUTS.items() for name in names + ["run_config.txt"]
    ])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, subcommand, artifact):
        # A directory in the artifact's place is a config error naming the file once.
        (tmp_path / "out" / artifact).mkdir(parents=True)
        assert run_with_outputs(tmp_path, subcommand) == 1
        err = capsys.readouterr().err
        assert f"{artifact}: cannot write" in err and err.count(artifact) == 1, err


class TestConfigErrors:
    # Settings are checked, and the profile and folds manifest read, before any
    # label file: a bad setting beside a malformed label file is a config error.
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("subcommand, key, value", [
        ("eval", "iou", "1.5"), ("eval", "mode", "11point"), ("eval", "folds", "@missing.csv"),
        ("coverage", "thresholds", "0"), ("coverage", "buckets", "5,1"), ("stats", "bins", "5,1"),
    ])
    def test_bad_setting_before_bad_labels_exit_code(self, tmp_path, capsys, subcommand, key,
                                                     value, source):
        write_input_files(tmp_path)
        (tmp_path / "kitti" / "b.txt").write_text("Car 1 2\n")
        value = str(tmp_path / value[1:]) if value.startswith("@") else value
        argv = [subcommand, str(tmp_path / "kitti"), "--out", str(tmp_path / "out")]
        if subcommand == "eval":
            argv.insert(2, str(tmp_path / "dets.csv"))
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            (tmp_path / "bad.cfg").write_text(f"{key}={value}\n")
            argv += ["--config", str(tmp_path / "bad.cfg")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("profile", [b"detect_prob=0:2\n", None], ids=["bad", "missing"])
    def test_bad_profile_before_bad_labels_exit_code(self, tmp_path, capsys, profile):
        write_input_files(tmp_path)
        (tmp_path / "kitti" / "b.txt").write_text("Car 1 2\n")
        (tmp_path / "profile.txt").unlink()
        if profile is not None:
            (tmp_path / "profile.txt").write_bytes(profile)
        assert main(["simulate", str(tmp_path / "kitti"), str(tmp_path / "profile.txt"),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("subcommand, key", [("stats", "class_filter"),
                                                 ("coverage", "class_filter"),
                                                 ("eval", "class_name")])
    def test_empty_class_exit_code(self, tmp_path, capsys, subcommand, key, source):
        # Class names are never empty, and DontCare regions are never counted,
        # so either class would count nothing.
        write_input_files(tmp_path)
        name = "--class" if source == "flag" else f"class.cfg line 1: {key} (--class)"
        for value, message in (("", f"{name} must not be empty"),
                               ("DontCare", f"{name}: 'DontCare' regions are never counted")):
            out = tmp_path / f"out{value}"
            argv = [subcommand, str(tmp_path / "kitti"), "--out", str(out)]
            if subcommand == "eval":
                argv.insert(2, str(tmp_path / "dets.csv"))
            if source == "flag":
                argv.append(f"--class={value}")
            else:
                (tmp_path / "class.cfg").write_text(f"{key}={value}\n")
                argv += ["--config", str(tmp_path / "class.cfg")]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_empty_output_dir_exit_code(self, tmp_path, capsys, monkeypatch, source):
        # An empty output directory would be the working directory; it names its source.
        write_input_files(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = ["stats", str(tmp_path / "kitti")]
        if source == "flag":
            argv.append("--out=")
            name = "--out"
        elif source == "config":
            (tmp_path / "out.cfg").write_text("out=\n")
            argv += ["--config", str(tmp_path / "out.cfg")]
            name = "out.cfg line 1: out (--out)"
        else:
            monkeypatch.setenv("SCALEDET_OUTPUT_DIR", "")
            name = "SCALEDET_OUTPUT_DIR"
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {name} must not be empty\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("subcommand, key", [("eval", "iou"), ("coverage", "stride")])
    def test_bad_number_exit_code(self, dataset_dir, tmp_path, capsys, subcommand, key, source):
        argv = [subcommand, str(dataset_dir)]
        if subcommand == "eval":
            dets = tmp_path / "dets.csv"
            dets.write_text("image_id,class,x1,y1,x2,y2,score\n")
            argv.append(str(dets))
        argv += ["--out", str(tmp_path / "o")]
        if source == "flag":
            argv += [f"--{key}", "abc"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}=abc\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"--{key}" in err
        assert "'abc'" in err

    @pytest.mark.parametrize("subcommand, flag", [("stats", "--bins"), ("coverage", "--buckets"),
                                                  ("eval", "--buckets")])
    def test_nan_edge_exit_code(self, dataset_dir, tmp_path, capsys, subcommand, flag):
        # One edge check for histogram bins and width buckets: NaN is not
        # strictly increasing.
        argv = [subcommand, str(dataset_dir)]
        if subcommand == "eval":
            dets = tmp_path / "dets.csv"
            dets.write_text("image_id,class,x1,y1,x2,y2,score\n")
            argv.append(str(dets))
        assert main(argv + [flag, "0,nan,100", "--out", str(tmp_path / "o")]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("edges, code", [("-1.7e308,1.7e308", 0), ("inf,inf", 1)])
    @pytest.mark.parametrize("subcommand, flag", [("stats", "--bins"), ("coverage", "--buckets"),
                                                  ("eval", "--buckets")])
    def test_extreme_edges_do_not_warn(self, dataset_dir, tmp_path, capsys, subcommand, flag,
                                       edges, code):
        # Edges whose gap overflows are valid; repeated infinite edges are
        # not. Neither may warn on the way to its exit code.
        argv = [subcommand, str(dataset_dir)]
        if subcommand == "eval":
            dets = tmp_path / "dets.csv"
            dets.write_text("image_id,class,x1,y1,x2,y2,score\n")
            argv.append(str(dets))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + [f"{flag}={edges}", "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert ("strictly increasing" in err) == (code == 1)

    @pytest.mark.parametrize("subcommand", ["stats", "coverage", "eval", "simulate"])
    def test_bad_image_size_names_its_flag(self, dataset_dir, tmp_path, capsys, subcommand):
        argv = [subcommand, str(dataset_dir)]
        if subcommand in ("eval", "simulate"):
            extra = tmp_path / "extra.txt"
            extra.write_text("")
            argv.append(str(extra))
        assert main(argv + ["--image-size", "80", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "--image-size expects WxH, got '80'" in err
        assert "--input-size" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_is_a_file_exit_code(self, kitti_dir, tmp_path, capsys, source):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["stats", str(kitti_dir)]
        if source == "flag":
            argv += ["--out", str(taken)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"out={taken}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--stride", "1e-12"), ("--stride", "1e-300"),
                                             ("--image-size", "99999999999x512")])
    def test_oversized_anchor_grid_exit_code(self, dataset_dir, tmp_path, capsys, flag, value):
        # Rejected before the grid is allocated.
        argv = ["coverage", str(dataset_dir), flag, value, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "grid cells" in err and value.partition("x")[0] in err

    def test_bad_input_size_names_its_flag(self, tmp_path, capsys):
        assert main(["rf", "zf", "--input-size", "80", "--out", str(tmp_path / "o")]) == 1
        assert "--input-size expects WxH, got '80'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["stats", "coverage", "eval", "simulate", "rf"])
    def test_size_past_the_float_range_exit_code(self, dataset_dir, tmp_path, capsys,
                                                 subcommand):
        # A side of 400 digits parses as an integer but has no float value.
        flag, argv = "--image-size", [subcommand, str(dataset_dir)]
        if subcommand in ("eval", "simulate"):
            extra = tmp_path / "extra.txt"
            extra.write_text("")
            argv.append(str(extra))
        elif subcommand == "rf":
            flag, argv = "--input-size", ["rf", "zf"]
        size = "512x1" + "0" * 400
        assert main(argv + [flag, size, "--out", str(tmp_path / "o")]) == 1
        assert f"{flag} must be positive and finite, got '512x1000" in capsys.readouterr().err


# Valid labels at the edge of float64. HUGE_LABEL sits on the cell-0 anchor
# of scale 1.3e154 (its 8 px offset is below the ulp); its area is finite but
# twice it is not. THIN_LABEL is 1e-10 px wide and 1e300 px high, so its h/w
# is not finite.
HUGE_LABEL = "Car 0 0 0 -6.5e153 -6.5e153 6.5e153 6.5e153 0 0 0 0 0 0 0\n"
THIN_LABEL = "Car 0 0 0 0 0 1e-10 1e300 0 0 0 0 0 0 0\n"


class TestExtremeBoxes:
    """Each run exits 0 under the suite's error::RuntimeWarning, with exact values."""

    @pytest.fixture
    def huge_dir(self, tmp_path):
        d = tmp_path / "huge"
        d.mkdir()
        (d / "000000.txt").write_text(HUGE_LABEL)
        return d

    def test_coverage_finds_the_anchor_under_the_box(self, huge_dir, tmp_path):
        out = tmp_path / "cov"
        assert main(["coverage", str(huge_dir), "--scales", "1.3e154", "--ratios", "1",
                     "--thresholds", "0.5", "--out", str(out)]) == 0
        overall = [r for r in read_csv(out / "coverage.csv")[1:] if r[1] == ""]
        assert overall == [["0.5", "", "", "1", "1", "1.0"]]
        assert read_csv(out / "attribution.csv")[1][1:4] == ["1.3e+154", "1.0", "1.0"]

    def test_eval_scores_the_box_as_a_perfect_match(self, huge_dir, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n"
                        "000000,Car,-6.5e153,-6.5e153,6.5e153,6.5e153,0.9\n")
        out = tmp_path / "eval"
        assert main(["eval", str(huge_dir), str(dets), "--class", "Car", "--out", str(out)]) == 0
        assert "AP (all-point, IoU 0.7): 1.0" in capsys.readouterr().out
        assert read_csv(out / "ap.csv")[1] == ["overall", "", "", "1.0", "1", "0", "1"]

    def test_coverage_window_past_the_float_range(self, tmp_path):
        # A 2e306 px wide anchor's plateau edge g1 + half lies past 1.8e308.
        d = tmp_path / "edge"
        d.mkdir()
        (d / "000000.txt").write_text("Car 0 0 0 1.79e308 0 1.797e308 10 0 0 0 0 0 0 0\n")
        out = tmp_path / "cov"
        assert main(["coverage", str(d), "--scales", "1e154", "--ratios", "2.5e-305",
                     "--thresholds", "0.5", "--out", str(out)]) == 0
        overall = [r for r in read_csv(out / "coverage.csv")[1:] if r[1] == ""]
        assert overall == [["0.5", "", "", "0", "1", "0.0"]]

    def test_coverage_rejects_anchor_edges_past_the_float_range(self, tmp_path, capsys):
        # An anchor 1.695e308 px high, centred up to 1.7e308 px down the image:
        # its far edge overflows, which warned before it was a config error.
        d = tmp_path / "tall"
        d.mkdir()
        (d / "000000.txt").write_text("Car 0 0 0 10 10 50 40 0 0 0 0 0 0 0\n")
        assert main(["coverage", str(d), "--image-size", f"1392x{int(1.7e308)}",
                     "--scales", "1.3e154", "--ratios", "1.7e308", "--stride", "4.150390625e304",
                     "--out", str(tmp_path / "cov")]) == 1
        assert capsys.readouterr().err == (
            "config error: anchor edges pass the float range: a 1.69499e+308 px anchor "
            "on a 1.7e+308 px axis at stride 4.15039e+304\n")

    def test_coverage_rejects_anchor_edges_too_coarse_for_the_stride(self, tmp_path, capsys):
        # Anchors of 1.2e16 px have edges 1-2 px apart, which stride 1 cannot
        # tell apart in the search, while 1.3e154 px anchors at stride 16
        # round every cell to the same edges and run.
        d = tmp_path / "coarse"
        d.mkdir()
        (d / "000000.txt").write_text("Car 0 0 0 32 -6212108649037655 1.0113599247190682e16 "
                                      "6212108649037671 0 0 0 0 0 0 0\n")
        assert main(["coverage", str(d), "--image-size", "36x24", "--scales",
                     "1.227068961520091e16,2.454137923040182e16", "--ratios", "0.5,1",
                     "--stride", "1", "--out", str(tmp_path / "cov")]) == 1
        assert ("config error: stride 1 is under 16 float steps (1 px) of the anchor edges "
                "near 8.67669e+15 px") in capsys.readouterr().err
        assert main(["coverage", str(d), "--scales", "1.3e154", "--ratios", "1",
                     "--out", str(tmp_path / "huge")]) == 0

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_simulate_keeps_jittered_edges_apart(self, tmp_path, seed):
        # At 1e22 the ulp is 2^21, so x1 + 0.25 rounds to x1: the far edge
        # is floored at the next float instead.
        d, profile, out = tmp_path / "far", tmp_path / "profile.txt", tmp_path / "sim"
        d.mkdir()
        (d / "000000.txt").write_text("Car 0 0 0 1e22 0 1.0000000000000002e22 10 0 0 0 0 0 0 0\n")
        profile.write_text("loc_noise_sigma=1000000\n")
        assert main(["simulate", str(d), str(profile), "--seed", str(seed),
                     "--out", str(out)]) == 0
        [det] = read_detections_csv(out / "detections.csv")
        assert det.box.x1 > 9e21 and det.box.x2 == math.nextafter(det.box.x1, math.inf)

    def test_simulate_keeps_false_positive_edges_apart(self, tmp_path):
        # On a 1e22 px wide image x1 + w rounds to x1 for a box under 2^21 px.
        d, profile, out = tmp_path / "wide", tmp_path / "profile.txt", tmp_path / "sim"
        d.mkdir()
        (d / "000000.txt").write_text("Car 0 0 0 10 10 50 40 0 0 0 0 0 0 0\n")
        profile.write_text("fp_per_image=5\n")
        assert main(["simulate", str(d), str(profile), "--image-size",
                     "10000000000000000000000x512", "--out", str(out)]) == 0
        dets = read_detections_csv(out / "detections.csv")
        assert len(dets) == 5 and all(d.box.x2 <= 1e22 and d.box.y2 <= 512 for d in dets)
        # The label's own box, then four false positives on the next-float floor.
        floored = [d.box.x2 == math.nextafter(d.box.x1, math.inf) for d in dets]
        assert floored == [False] + [True] * 4

    def test_stats_bins_an_infinite_aspect_last(self, tmp_path):
        d = tmp_path / "thin"
        d.mkdir()
        (d / "000000.txt").write_text(THIN_LABEL)
        out = tmp_path / "stats"
        assert main(["stats", str(d), "--out", str(out)]) == 0
        aspect = [int(r[3]) for r in read_csv(out / "stats.csv")[1:] if r[0] == "aspect"]
        assert aspect == [0] * 8 + [1]


def polyline_oracle(points) -> str:
    """The points of pr.svg's polyline, formatted one value at a time."""
    def _f(v: float) -> str:
        return f"{v:.2f}"

    def sx(v: float) -> float:
        return 50 + v * 575

    def sy(v: float) -> float:
        return 35 + (1.0 - v) * 270

    return " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in points)


class TestPrArtifacts:
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=40))
    @example([])
    @example([(0.0, 1.0), (1.0, 0.0), (0.005, 0.995), (1 / 3, 2 / 3)])
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pr_files_equal_per_point_formatting(self, tmp_path_factory, points):
        # eval writes pr.csv and pr.svg from the report's points in one format
        # call each; csv.writer and per-point formatting give the same bytes.
        root = tmp_path_factory.mktemp("pr")
        (root / "labels").mkdir()
        (root / "labels" / "a.txt").write_text(
            kitti_label_line(Annotation("Car", Box(0, 0, 10, 10), "a")))
        dets = root / "dets.csv"
        dets.write_text("image_id,class,x1,y1,x2,y2,score\n")
        report = EvalReport(0.7, tuple(points), 0.0, (), 0, 0, 1)
        with mock.patch("scaledet.evaluation.evaluate_detections", return_value=report):
            assert main(["eval", str(root / "labels"), str(dets), "--out", str(root / "o")]) == 0
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([("recall", "precision"), *points])
        assert (root / "o" / "pr.csv").read_bytes() == want.getvalue().encode()
        svg = (root / "o" / "pr.svg").read_text()
        assert svg == line_chart("PR curve (Car, IoU 0.7)", points)
        if points:
            assert f'<polyline points="{polyline_oracle(points)}" fill="none"' in svg
        else:
            assert "polyline" not in svg


class TestSvg:
    def test_bar_chart_well_formed(self):
        svg = bar_chart("width distribution", (0, 30, 60, math.inf), (1, 5, 2))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "30-60" in svg and "60+" in svg

    def test_line_chart_well_formed(self):
        svg = line_chart("PR", [(0.0, 1.0), (0.5, 0.8), (1.0, 0.3)])
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "polyline" in svg

    def test_deterministic(self):
        a = bar_chart("t", (0, 1, 2), (3, 4))
        b = bar_chart("t", (0, 1, 2), (3, 4))
        assert a == b

    @given(st.text())
    @example("&<>\"'")
    @settings(max_examples=300, deadline=None)
    def test_escape_equals_saxutils(self, text):
        # svgplot escapes with html.escape(quote=False), which imports less
        # than xml.sax.saxutils.escape; on any text both give the same bytes.
        assert escape(text, quote=False) == sax_escape(text)
        assert f">{sax_escape(text)}</text>" in bar_chart(text, (0, 1), (1,))
