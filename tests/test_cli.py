import csv
import math
import random
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import VOC_XML, kitti_label_line, synthetic_vehicle_dataset
from scaledet.cli import SETTINGS, main
from scaledet.datasets import load_dataset
from scaledet.evaluation import evaluate_detections, read_detections_csv
from scaledet.simulate import _PROFILE_KEYS
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
        assert "modal width bin" in capsys.readouterr().out

    def test_class_filter(self, kitti_dir, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["stats", str(kitti_dir), "--class", "Car", "--out", str(out)]
        ) == 0
        rows = read_csv(out / "stats.csv")
        width_total = sum(int(r[3]) for r in rows[1:] if r[0] == "width")
        assert width_total == 3

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


# The integer keys of each layer kind.
ARCH_KEYS = {"input": ("channels",), "conv": ("k", "s", "p", "c"), "pool": ("k", "s", "p"),
             "concat": (), "resadd": ()}


@st.composite
def arch_texts(draw):
    """Arch files built from layer kinds, key names and 'from' clauses.

    Most lines are well formed and take earlier layers, so many files parse.
    One draw in 25 instead drops or adds a key, gives a value below 1,
    reuses a name, changes the number of sources, repeats one, or names
    the next layer (a cycle).
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
            tokens.append(f"{key}={rng.randint(-1, 0) if rarely() else rng.randint(1, 7)}")
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


class TestRfCommand:
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
    @pytest.mark.parametrize("key", sorted(_PROFILE_KEYS))
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


class TestExitCodeFuzz:
    @given(case=st.sampled_from(CONFIG_KEYS),
           text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
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
    ], ids=["missing", "header-only", "repeated-image"])
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
