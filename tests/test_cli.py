import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import synthetic_vehicle_dataset
from scaledet.cli import main
from scaledet.datasets import kitti_label_line, load_dataset
from scaledet.evaluation import evaluate_detections, read_detections_csv
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
