"""The benchmark's three closed-loop workloads.

Each workload builds its inputs once (``setup``), records the facts the
gate needs about them, and runs one long, CPU-bound op per call of ``op``,
whose results ``check`` verifies. A worker process picks up inputs built by
another process with ``attach``. Every call into scaledet resolves the
function through its module at call time, so the tracer's patched module
attributes are the ones that run.

Why these three:

* ``coverage-scan`` is an anchor-design session through the CLI. Anchor
  coverage (``iou_matrix``) takes nearly all of it; evaluation and the
  simulator do no work in it.
* ``eval-kitti`` is CLI ``eval`` at KITTI training-set scale with 9 width
  buckets and 6 folds: few detections per image, matching repeated per
  bucket and fold, plus label loading and detections-CSV reading.
* ``eval-dense`` is crowded scenes in memory: about 75 detections per
  image, so per-image pair counts and the quadratic NMS dominate. It is the
  only workload that runs ``simulate`` and ``nms`` in the timed op.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from generate import IMAGE_H, IMAGE_W, KITTI_IMAGES, fold_manifest, road_scene

SRC = Path(__file__).resolve().parent.parent / "src"
# Seed whose artifacts must also match the digests recorded in DIGESTS.
DEFAULT_SEED = 20240817
DIGESTS = Path(__file__).resolve().with_name("digests.json")

ARCHS = ("zf", "zf_combin", "zf_ml", "zf_ms", "zf_res")
COVERAGE_THRESHOLDS = (0.5, 0.7)
# The CLI's default width buckets, which eval-kitti and coverage-scan use.
WIDTH_BUCKETS = 9
# Every bucket holds ground truth at any seed (a 128 px+ bucket is empty for
# some seeds, which would skip a whole matching pass).
DENSE_BUCKETS = (0.0, 32.0, 64.0, math.inf)
FOLDS = 6


class OpError(Exception):
    """An op ran but produced a wrong or missing result."""


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_scaledet() -> None:
    """Import scaledet from ``SRC``, refusing a copy installed elsewhere."""
    if not (SRC / "scaledet" / "__init__.py").is_file():
        raise SetupError(f"no scaledet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("scaledet")
    importlib.import_module("scaledet.cli")
    if Path(package.__file__).resolve().parent != SRC / "scaledet":
        raise SetupError(f"scaledet was imported from {package.__file__}, not {SRC}")


def scaledet(name: str):
    """The module ``scaledet.<name>``, looked up in ``sys.modules``.

    ``import scaledet.simulate`` would give the re-exported function, not
    the module, so every lookup goes through ``importlib``.
    """
    return importlib.import_module(f"scaledet.{name}")


def run_cli(argv: list[str]) -> None:
    """Run one CLI command in this process; a nonzero exit raises OpError."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = scaledet("cli").main(argv)
    if code != 0:
        raise OpError(f"scaledet {argv[0]} exited {code}: {err.getvalue().strip()[-400:]}")


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_files(directory: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def label_files(scene) -> dict[str, str]:
    return {f"labels/{image_id}.txt": text for image_id, text in scene.labels}


def parse_scene(scene) -> list:
    """The scene as loaded ``ImageAnnotations``, parsed in memory."""
    datasets = scaledet("datasets")
    return [
        datasets.ImageAnnotations(
            image_id, IMAGE_W, IMAGE_H, tuple(datasets.parse_kitti_label(text, image_id))
        )
        for image_id, text in scene.labels
    ]


def detection_row(d) -> str:
    b = d.box
    return (
        f"{d.image_id},{d.class_name},{float(b.x1)!r},{float(b.y1)!r},"
        f"{float(b.x2)!r},{float(b.y2)!r},{float(d.score)!r}"
    )


class Workload:
    """One workload: inputs from ``seed``, files under ``work``."""

    name = ""
    full_size = 0
    tiny_size = 0  # for the benchmark's own tests

    def __init__(self, seed: int, work: Path, n_images: int | None = None):
        self.seed = seed
        self.work = work
        self.n_images = n_images or self.full_size
        self.facts: dict[str, int] = {}

    def build(self) -> dict[str, str]:
        """Build the inputs in memory and set ``facts``.

        Returns the input files to write under ``work``, by relative path.
        This is the part of set-up that ``setup_s`` times; writing the files
        is left out, as it only measures the file system.
        """
        raise NotImplementedError

    def setup(self) -> None:
        """Build the inputs and write them under the directory ``work``."""
        write_files(self.work, self.build())
        self.bind()

    def attach(self, facts: dict[str, int]) -> None:
        """Use the inputs that ``setup`` built under ``work``, with its facts."""
        self.facts = dict(facts)
        self.bind()

    def bind(self) -> None:
        """Point at the input and output files under ``work``."""

    def op(self) -> None:
        raise NotImplementedError

    def problems(self) -> list[str]:
        """Invariants of the last op's results that hold at any seed."""
        raise NotImplementedError

    def artifacts(self) -> dict[str, bytes]:
        """The byte-exact results of the last op, by name."""
        raise NotImplementedError

    def outcomes(self) -> dict[str, int]:
        """TP, FP and ignored detections of the last op (0 when not evaluated)."""
        return {"tp": 0, "fp": 0, "ignored": 0}

    def check(self) -> list[str]:
        """Every problem with the last op; an empty list means it is correct."""
        try:
            found = self.problems()
            expected = self.expected_digests()
            if expected is not None:
                got = {name: sha256(data) for name, data in self.artifacts().items()}
                for name in sorted(set(expected) | set(got)):
                    if expected.get(name) != got.get(name):
                        found.append(f"{name}: digest differs from {DIGESTS.name}")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable result: {type(exc).__name__}: {exc}"]
        return found

    def digest_key(self) -> str:
        return f"{self.name}@{self.n_images}"

    def expected_digests(self) -> dict[str, str] | None:
        """Digests recorded for this workload and size, at the default seed only."""
        if self.seed != DEFAULT_SEED:
            return None
        return json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.digest_key())


class CoverageScan(Workload):
    """stats, coverage with a 5-scale comparison, and rf over 5 archs."""

    name = "coverage-scan"
    full_size = 250
    tiny_size = 6

    def build(self) -> dict[str, str]:
        scene = road_scene(self.seed, self.n_images)
        self.facts = {"n_gt": scene.n_gt}
        return label_files(scene)

    def bind(self) -> None:
        self.labels = self.work / "labels"
        self.out = self.work / "out"

    def op(self) -> None:
        labels, out = str(self.labels), self.out
        run_cli(["stats", labels, "--class", "Car", "--out", str(out / "stats")])
        run_cli(
            ["coverage", labels, "--class", "Car", "--scales", "128,256,512",
             "--compare", "32,64,128,256,512",
             "--thresholds", ",".join(str(t) for t in COVERAGE_THRESHOLDS),
             "--out", str(out / "coverage")]
        )
        for arch in ARCHS:
            run_cli(["rf", arch, "--probe", "rpn_window", "--out", str(out / f"rf_{arch}")])

    def problems(self) -> list[str]:
        n_gt = self.facts["n_gt"]
        found = []
        widths = [r for r in read_csv(self.out / "stats" / "stats.csv")
                  if r["histogram_name"] == "width"]
        if sum(int(r["count"]) for r in widths) != n_gt:
            found.append("stats.csv: width histogram does not count every box")
        rows = read_csv(self.out / "coverage" / "coverage.csv")
        for t in COVERAGE_THRESHOLDS:
            mine = [r for r in rows if float(r["threshold"]) == t]
            overall = [r for r in mine if r["bucket_lo"] == ""]
            buckets = [r for r in mine if r["bucket_lo"] != ""]
            if len(overall) != 1 or int(overall[0]["total"]) != n_gt:
                found.append(f"coverage.csv: overall total at {t} is not {n_gt}")
            if len(buckets) != WIDTH_BUCKETS or sum(int(r["total"]) for r in buckets) != n_gt:
                found.append(f"coverage.csv: bucket totals at {t} do not sum to {n_gt}")
            if any(int(r["matched"]) > int(r["total"]) for r in mine):
                found.append(f"coverage.csv: matched exceeds total at {t}")
        if len(read_csv(self.out / "coverage" / "attribution.csv")) != n_gt:
            found.append(f"attribution.csv: row count is not {n_gt}")
        delta = read_csv(self.out / "coverage" / "delta.csv")
        if len(delta) != len(rows):
            found.append("delta.csv: row count differs from coverage.csv")
        for arch in ARCHS:
            rf = read_csv(self.out / f"rf_{arch}" / "rf.csv")
            if not rf or rf[-1]["layer"] != "rpn_window" or int(rf[-1]["rf"]) < 1:
                found.append(f"rf {arch}: no rpn_window row")
        return found

    def artifacts(self) -> dict[str, bytes]:
        names = ["stats/stats.csv", "coverage/coverage.csv", "coverage/attribution.csv",
                 "coverage/delta.csv"]
        for arch in ARCHS:
            names += [f"rf_{arch}/rf.csv", f"rf_{arch}/findings.txt"]
        return {name: (self.out / name).read_bytes() for name in names}


class EvalKitti(Workload):
    """CLI eval at KITTI scale with the default width buckets and 6 folds."""

    name = "eval-kitti"
    full_size = KITTI_IMAGES
    tiny_size = 12

    def build(self) -> dict[str, str]:
        scene = road_scene(self.seed, self.n_images)
        profile = scaledet("simulate").DetectorProfile(
            detect_prob=((16.0, 0.2), (48.0, 0.55), (128.0, 0.9), (512.0, 1.0)),
            loc_noise_sigma=1.5,
            fp_per_image=2.0,
            seed=self.seed,
        )
        dets = scaledet("simulate").simulate(parse_scene(scene), profile)
        rows = ["image_id,class,x1,y1,x2,y2,score"] + [detection_row(d) for d in dets]
        image_ids = [image_id for image_id, _ in scene.labels]
        self.facts = {"n_gt": scene.n_gt, "n_images": scene.n_images, "n_dets": len(dets)}
        return {
            **label_files(scene),
            "detections.csv": "\n".join(rows) + "\n",
            "folds.csv": fold_manifest(self.seed, image_ids, FOLDS),
        }

    def bind(self) -> None:
        self.labels = self.work / "labels"
        self.dets_csv = self.work / "detections.csv"
        self.folds = self.work / "folds.csv"
        self.out = self.work / "out"

    def op(self) -> None:
        run_cli(["eval", str(self.labels), str(self.dets_csv), "--class", "Car",
                 "--folds", str(self.folds), "--out", str(self.out)])

    def _ap_rows(self):
        rows = read_csv(self.out / "ap.csv")
        return rows[0], rows[1:]

    def problems(self) -> list[str]:
        n_gt, n_dets, n_images = (self.facts[k] for k in ("n_gt", "n_dets", "n_images"))
        found = []
        overall, buckets = self._ap_rows()
        tp, fp = int(overall["tp"]), int(overall["fp"])
        if overall["scope"] != "overall" or int(overall["total_gt"]) != n_gt:
            found.append(f"ap.csv: overall total_gt is not {n_gt}")
        # No DontCare regions are generated, so no detection is ignored overall.
        if tp + fp != n_dets:
            found.append(f"ap.csv: tp + fp = {tp + fp}, expected {n_dets} detections")
        if len(buckets) != WIDTH_BUCKETS or sum(int(r["total_gt"]) for r in buckets) != n_gt:
            found.append(f"ap.csv: bucket total_gt does not sum to {n_gt}")
        if any(int(r["tp"]) > int(r["total_gt"]) for r in buckets):
            found.append("ap.csv: a bucket has more TP than ground truth")
        if len(read_csv(self.out / "pr.csv")) != n_dets:
            found.append(f"pr.csv: row count is not {n_dets}")
        rows = read_csv(self.out / "folds.csv")
        folds = [r for r in rows if r["fold_id"] != "mean"]
        if len(folds) != FOLDS or rows[-1]["fold_id"] != "mean":
            found.append(f"folds.csv: expected {FOLDS} folds and a mean row")
        if sum(int(r["images"]) for r in folds) != n_images:
            found.append(f"folds.csv: fold image counts do not sum to {n_images}")
        # Matching is per image and the folds partition the images.
        for key, want in (("tp", tp), ("fp", fp), ("total_gt", n_gt)):
            if sum(int(r[key]) for r in folds) != want:
                found.append(f"folds.csv: fold {key} does not sum to {want}")
        return found

    def artifacts(self) -> dict[str, bytes]:
        return {name: (self.out / name).read_bytes() for name in ("ap.csv", "pr.csv", "folds.csv")}

    def outcomes(self) -> dict[str, int]:
        overall, buckets = self._ap_rows()
        # Per bucket, detections absorbed by out-of-bucket ground truth.
        ignored = sum(self.facts["n_dets"] - int(r["tp"]) - int(r["fp"]) for r in buckets
                      if int(r["total_gt"]) > 0)
        return {"tp": int(overall["tp"]), "fp": int(overall["fp"]), "ignored": ignored}


class EvalDense(Workload):
    """In memory: simulate 4 seeds, per-image NMS, bucketed evaluation."""

    name = "eval-dense"
    full_size = 500
    tiny_size = 6
    detectors = 4

    def build(self) -> dict[str, str]:
        scene = road_scene(self.seed, self.n_images)
        self.images = parse_scene(scene)
        self.facts = {"n_gt": scene.n_gt}
        self.gts = [a for image in self.images for a in image.annotations]
        profile = scaledet("simulate").DetectorProfile
        self.profiles = [
            profile(
                detect_prob=((16.0, 0.5), (48.0, 0.9), (128.0, 1.0)),
                loc_noise_sigma=3.0,
                fp_per_image=15.0,
                seed=self.seed * self.detectors + k,
            )
            for k in range(self.detectors)
        ]
        return {}

    def attach(self, facts: dict[str, int]) -> None:
        self.build()  # the inputs live in memory only
        if self.facts != facts:
            raise OpError(f"rebuilt inputs differ: {self.facts} != {facts}")

    def op(self) -> None:
        sim, evaluation = scaledet("simulate"), scaledet("evaluation")
        by_image: dict[str, list] = {}
        for profile in self.profiles:
            for d in sim.simulate(self.images, profile):
                by_image.setdefault(d.image_id, []).append(d)
        self.n_in = sum(len(dets) for dets in by_image.values())
        self.kept = [d for image_id in sorted(by_image)
                     for d in evaluation.nms(by_image[image_id], 0.5)]
        self.report = evaluation.evaluate_detections(
            self.kept, self.gts, class_name="Car", bucket_edges=DENSE_BUCKETS
        )

    def problems(self) -> list[str]:
        r, n_gt = self.report, self.facts["n_gt"]
        found = []
        if r.total_gt != n_gt:
            found.append(f"total_gt is {r.total_gt}, expected {n_gt}")
        if r.tp + r.fp != len(self.kept):
            found.append(f"tp + fp = {r.tp + r.fp}, expected {len(self.kept)} kept detections")
        if not 0 < len(self.kept) <= self.n_in:
            found.append(f"nms kept {len(self.kept)} of {self.n_in}")
        if r.tp > n_gt or len(r.pr_points) != len(self.kept):
            found.append("PR curve does not match the TP/FP counts")
        if sum(b.total_gt for b in r.per_bucket) != n_gt:
            found.append(f"bucket total_gt does not sum to {n_gt}")
        previous: dict[str, float] = {}
        for d in self.kept:
            if d.score > previous.get(d.image_id, math.inf):
                found.append(f"nms output for {d.image_id} is not score-sorted")
                break
            previous[d.image_id] = d.score
        return found

    def artifacts(self) -> dict[str, bytes]:
        r = self.report
        lines = [f"nms {self.n_in} {len(self.kept)}",
                 f"overall {r.ap!r} {r.tp} {r.fp} {r.total_gt}"]
        lines += [f"bucket {b.bucket_lo!r} {b.bucket_hi!r} {b.ap!r} {b.tp} {b.fp} {b.total_gt}"
                  for b in r.per_bucket]
        lines += [f"pr {rec!r} {prec!r}" for rec, prec in r.pr_points]
        kept = "\n".join(detection_row(d) for d in self.kept)
        return {"report": "\n".join(lines).encode(), "kept": kept.encode()}

    def outcomes(self) -> dict[str, int]:
        r = self.report
        scopes = [(r.tp, r.fp)] + [(b.tp, b.fp) for b in r.per_bucket if b.total_gt > 0]
        ignored = sum(len(self.kept) - tp - fp for tp, fp in scopes)
        return {"tp": r.tp, "fp": r.fp, "ignored": ignored}


WORKLOADS = {w.name: w for w in (CoverageScan, EvalKitti, EvalDense)}
