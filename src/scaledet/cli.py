"""Command-line interface.

Subcommands: ``stats``, ``coverage``, ``rf``, ``eval``, ``simulate``. Every
run writes its artifacts (CSV plus SVG where a plot makes sense) into an
output directory along with ``run_config.txt``, the effective configuration
after applying precedence flags > config file > defaults. Re-running any
subcommand with identical inputs and seed reproduces byte-identical outputs.

Exit codes: 0 success, 1 usage/config error, 2 input parse error,
3 internal invariant violation.

The default output directory comes from ``SCALEDET_OUTPUT_DIR`` when set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from collections import Counter
from pathlib import Path

from . import anchors as anchors_mod
from . import datasets as datasets_mod
from . import evaluation as eval_mod
from . import netgraph as netgraph_mod
from . import svgplot
from .errors import ConfigError, InvalidBoxError, ParseError
from .simulate import load_profile, simulate as run_detector

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

_ENV_OUTPUT_DIR = "SCALEDET_OUTPUT_DIR"


def _parse_float(value, flag: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{flag}: {value!r} is not a number") from None


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    values = tuple(_parse_float(p.strip(), flag) for p in text.split(",") if p.strip())
    if not values:
        raise ConfigError(f"{flag}: empty list")
    return values


def _parse_size(text: str, flag: str) -> tuple[int, int]:
    try:
        w_s, h_s = text.lower().split("x")
        w, h = int(w_s), int(h_s)
    except ValueError:
        raise ConfigError(f"{flag} expects WxH, got {text!r}") from None
    if w < 1 or h < 1:
        raise ConfigError(f"{flag} must be positive, got {text!r}")
    return w, h


def _read_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(file.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{file.name} line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args, filecfg: dict[str, str], key: str, default):
    """flags > config file > default; flags use None as the 'unset' marker."""
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    if key in filecfg:
        return filecfg[key]
    return default


def _resolve_floats(args, filecfg: dict[str, str], key: str, default) -> tuple[float, ...]:
    """A comma-separated number list from the flag ``--key`` or the config file."""
    value = _resolve(args, filecfg, key, None)
    return default if value is None else _parse_float_list(value, f"--{key}")


def _out_dir(args, filecfg: dict[str, str]) -> Path:
    out = _resolve(args, filecfg, "out", None)
    if out is None:
        out = os.environ.get(_ENV_OUTPUT_DIR, "scaledet_out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_run_config(out_dir: Path, settings: dict) -> None:
    lines = [f"{key}={settings[key]}" for key in sorted(settings)]
    (out_dir / "run_config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_dataset(args, filecfg) -> tuple[list[datasets_mod.ImageAnnotations], dict]:
    """Load the dataset and return it with the effective loader settings."""
    fmt = _resolve(args, filecfg, "format", "kitti")
    size = _resolve(args, filecfg, "image_size", None)
    image_w, image_h = (
        _parse_size(size, "--image-size") if size is not None
        else (datasets_mod.KITTI_IMAGE_W, datasets_mod.KITTI_IMAGE_H)
    )
    skip_bad = bool(getattr(args, "skip_bad", False))
    images, skipped = datasets_mod.load_dataset(
        args.dataset_dir, fmt, image_w=image_w, image_h=image_h, skip_bad=skip_bad
    )
    for message in skipped:
        print(f"skipped: {message}", file=sys.stderr)
    if not images:
        raise ParseError(f"no parseable annotation files in {args.dataset_dir}")
    settings = {
        "dataset_dir": args.dataset_dir,
        "format": fmt,
        "image_size": f"{image_w:g}x{image_h:g}",
        "skip_bad": skip_bad,
    }
    return images, settings


# ---------------------------------------------------------------- stats ----


def cmd_stats(args) -> int:
    filecfg = _read_config_file(args.config)
    out_dir = _out_dir(args, filecfg)
    images, loader_settings = _load_dataset(args, filecfg)
    class_filter = _resolve(args, filecfg, "class_filter", None)
    edges = _resolve_floats(args, filecfg, "bins", datasets_mod.DEFAULT_WIDTH_BIN_EDGES)

    annotations = [a for image in images for a in image.annotations]
    stats = datasets_mod.compute_stats(
        annotations, class_filter=class_filter, bin_edges=edges, image_count=len(images)
    )
    rows = [
        [name, _fmt(lo), _fmt(hi), count]
        for name, lo, hi, count in datasets_mod.stats_csv_rows(stats)
    ]
    _write_csv(out_dir / "stats.csv", ["histogram_name", "bin_lo", "bin_hi", "count"], rows)
    for name in ("width", "height", "sqrt_area", "aspect"):
        hist = getattr(stats, f"{name}_histogram")
        svg = svgplot.bar_chart(f"{name} distribution", hist.bin_edges, hist.counts)
        (out_dir / f"{name}_histogram.svg").write_text(svg, encoding="utf-8")
    _write_run_config(
        out_dir,
        {
            "subcommand": "stats",
            **loader_settings,
            "class_filter": class_filter or "",
            "bins": ",".join(_fmt(e) for e in edges),
        },
    )
    modal = stats.width_histogram.modal_bin()
    print(f"images: {stats.image_count}")
    print(f"annotations (after filter): {stats.annotation_count}")
    for name, count in stats.per_class.items():
        print(f"class {name}: {count}")
    print(f"modal width bin: [{modal[0]:g}, {modal[1]:g})")
    print(f"wrote {out_dir / 'stats.csv'}")
    return EXIT_OK


# ------------------------------------------------------------- coverage ----


def _anchor_config(args, filecfg, scales_override=None) -> anchors_mod.AnchorConfig:
    stride = _resolve(args, filecfg, "stride", None)
    drop_border = getattr(args, "drop_border", None)
    if drop_border is None:
        raw = filecfg.get("allow_border")
        allow_border = raw is None or raw.lower() not in ("false", "0", "no")
    else:
        allow_border = not drop_border
    return anchors_mod.AnchorConfig(
        scales=(
            _parse_float_list(scales_override, "--compare")
            if scales_override
            else _resolve_floats(args, filecfg, "scales", anchors_mod.SCALES_BASELINE)
        ),
        ratios=_resolve_floats(args, filecfg, "ratios", anchors_mod.RATIOS_DEFAULT),
        stride=_parse_float(stride, "--stride") if stride is not None else 16.0,
        allow_border=allow_border,
    )


def cmd_coverage(args) -> int:
    filecfg = _read_config_file(args.config)
    out_dir = _out_dir(args, filecfg)
    images, loader_settings = _load_dataset(args, filecfg)
    config = _anchor_config(args, filecfg)
    thresholds = _resolve_floats(args, filecfg, "thresholds", (0.5, 0.7))
    buckets = _resolve_floats(args, filecfg, "buckets", datasets_mod.DEFAULT_WIDTH_BIN_EDGES)
    class_filter = _resolve(args, filecfg, "class_filter", None)

    report = anchors_mod.coverage(
        config, images, thresholds=thresholds, buckets=buckets, class_filter=class_filter
    )
    header = ["threshold", "bucket_lo", "bucket_hi", "matched", "total", "recall"]
    _write_csv(
        out_dir / "coverage.csv",
        header,
        [
            [_fmt(r.threshold), _fmt(r.bucket_lo), _fmt(r.bucket_hi), r.matched, r.total,
             _fmt(r.recall)]
            for r in report.rows
        ],
    )
    _write_csv(
        out_dir / "attribution.csv",
        ["gt_width", "best_scale", "best_ratio", "best_iou", "image_id"],
        [
            [_fmt(a.gt_width), _fmt(a.best_scale), _fmt(a.best_ratio), _fmt(a.best_iou), a.image_id]
            for a in report.attribution
        ],
    )

    compare = _resolve(args, filecfg, "compare", None)
    if compare is not None:
        alt_config = _anchor_config(args, filecfg, scales_override=compare)
        alt = anchors_mod.coverage(
            alt_config, images, thresholds=thresholds, buckets=buckets, class_filter=class_filter
        )
        _write_csv(
            out_dir / "delta.csv",
            ["threshold", "bucket_lo", "bucket_hi", "recall_base", "recall_compare", "delta"],
            [
                [_fmt(a.threshold), _fmt(a.bucket_lo), _fmt(a.bucket_hi), _fmt(a.recall),
                 _fmt(b.recall),
                 _fmt(None if a.recall is None or b.recall is None else b.recall - a.recall)]
                for a, b in zip(report.rows, alt.rows)
            ],
        )

    _write_run_config(
        out_dir,
        {
            "subcommand": "coverage",
            **loader_settings,
            "class_filter": class_filter or "",
            "scales": ",".join(_fmt(s) for s in config.scales),
            "ratios": ",".join(_fmt(r) for r in config.ratios),
            "stride": config.stride,
            "allow_border": config.allow_border,
            "thresholds": ",".join(_fmt(t) for t in thresholds),
            "buckets": ",".join(_fmt(b) for b in buckets),
            "compare": compare or "",
        },
    )
    for t in report.thresholds:
        recall = report.overall_recall(t)
        print(f"recall@{t:g}: {recall if recall is not None else 'undefined'}")
    print(f"anchors per image: {report.anchors_per_image:g}")
    print(f"wrote {out_dir / 'coverage.csv'}")
    return EXIT_OK


# ------------------------------------------------------------------- rf ----


def cmd_rf(args) -> int:
    filecfg = _read_config_file(args.config)
    out_dir = _out_dir(args, filecfg)
    arch_path = Path(args.arch)
    if arch_path.is_file():
        graph = netgraph_mod.load_arch(arch_path)
        arch_label = str(arch_path)
    else:
        try:
            graph = netgraph_mod.parse_arch(netgraph_mod.builtin_arch(args.arch))
        except KeyError:
            raise ParseError(
                f"{args.arch!r} is neither a file nor a builtin architecture "
                f"({', '.join(netgraph_mod.builtin_arch_names())})"
            ) from None
        arch_label = f"builtin:{args.arch}"

    input_size = _parse_size(_resolve(args, filecfg, "input_size", "1392x512"), "--input-size")

    probe = _resolve(args, filecfg, "probe", None)
    if probe is not None and probe not in graph.layers:
        graph = netgraph_mod.with_probe_window(graph, probe_name=probe)

    infos, findings = netgraph_mod.analyze_with_findings(graph, input_size)

    rows = []
    for name in graph.topo_order:
        info = infos[name]
        out_w, out_h = info.spatial_dims or (None, None)
        rows.append([name, info.receptive_field, info.cumulative_stride,
                     "|".join(str(r) for r in sorted(info.rf_set)),
                     _fmt(info.channels), _fmt(out_w), _fmt(out_h)])
    _write_csv(
        out_dir / "rf.csv",
        ["layer", "rf", "stride", "rf_set", "channels", "out_w", "out_h"],
        rows,
    )
    findings_text = (
        "\n".join(("ok  " if f.ok else "BAD ") + f.message for f in findings)
        if findings
        else "no merge nodes"
    )
    (out_dir / "findings.txt").write_text(findings_text + "\n", encoding="utf-8")
    _write_run_config(
        out_dir,
        {
            "subcommand": "rf",
            "arch": arch_label,
            "input_size": f"{input_size[0]}x{input_size[1]}",
            "probe": probe or "",
        },
    )
    report_layers = [probe] if probe else graph.sinks()
    for name in report_layers:
        info = infos[name]
        rf_set = "{" + ", ".join(str(r) for r in sorted(info.rf_set)) + "}"
        print(
            f"{name}: rf={info.receptive_field} stride={info.cumulative_stride} rf_set={rf_set}"
        )
    bad = [f for f in findings if not f.ok]
    print(f"findings: {len(findings)} merge node(s), {len(bad)} violation(s)")
    print(f"wrote {out_dir / 'rf.csv'}")
    return EXIT_OK


# ----------------------------------------------------------------- eval ----


def _read_folds_manifest(path) -> dict[str, str]:
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"folds manifest not found: {path}")
    mapping: dict[str, str] = {}
    with open(file, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["image_id", "fold_id"]:
            raise ParseError(f"{file.name}: expected header image_id,fold_id")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{file.name}: line {lineno}: expected 2 columns")
            mapping[row[0]] = row[1]
    if not mapping:
        raise ParseError(f"{file.name}: no folds")
    return mapping


def cmd_eval(args) -> int:
    filecfg = _read_config_file(args.config)
    out_dir = _out_dir(args, filecfg)
    images, loader_settings = _load_dataset(args, filecfg)
    gts = [a for image in images for a in image.annotations]
    dets = eval_mod.read_detections_csv(args.detections_csv)

    class_name = _resolve(args, filecfg, "class_name", "Car")
    iou_raw = _resolve(args, filecfg, "iou", None)
    iou_threshold = _parse_float(iou_raw, "--iou") if iou_raw is not None else None
    mode = _resolve(args, filecfg, "mode", "all-point")
    buckets = _resolve_floats(args, filecfg, "buckets", datasets_mod.DEFAULT_WIDTH_BIN_EDGES)

    report = eval_mod.evaluate_detections(
        dets, gts, class_name=class_name, iou_threshold=iou_threshold,
        mode=mode, bucket_edges=buckets,
    )

    _write_csv(out_dir / "pr.csv", ["recall", "precision"],
               [[_fmt(r), _fmt(p)] for r, p in report.pr_points])
    _write_csv(
        out_dir / "ap.csv",
        ["scope", "bucket_lo", "bucket_hi", "ap", "tp", "fp", "total_gt"],
        [["overall", "", "", _fmt(report.ap), report.tp, report.fp, report.total_gt]]
        + [["bucket", _fmt(b.bucket_lo), _fmt(b.bucket_hi), _fmt(b.ap), b.tp, b.fp, b.total_gt]
           for b in report.per_bucket],
    )
    (out_dir / "pr.svg").write_text(
        svgplot.line_chart(f"PR curve ({class_name}, IoU {report.iou_threshold:g})",
                           report.pr_points),
        encoding="utf-8",
    )

    folds_path = _resolve(args, filecfg, "folds", None)
    fold_lines = []
    if folds_path is not None:
        mapping = _read_folds_manifest(folds_path)
        images_per_fold = Counter(mapping.values())
        fold_reports = eval_mod.split_report(report, gts, mapping)
        fold_rows = [
            [fold_id, _fmt(r.ap), r.tp, r.fp, r.total_gt, images_per_fold[fold_id]]
            for fold_id, r in fold_reports.items()
        ]
        agg = eval_mod.aggregate_folds([r.ap for r in fold_reports.values()])
        fold_rows.append(["mean", _fmt(agg.mean), "", "", "", ""])
        _write_csv(out_dir / "folds.csv", ["fold_id", "ap", "tp", "fp", "total_gt", "images"],
                   fold_rows)
        fold_lines.append(
            f"folds: n={agg.n_folds} mean={agg.mean!r} min={agg.minimum!r} "
            f"max={agg.maximum!r} stddev={agg.stddev!r}"
        )

    _write_run_config(
        out_dir,
        {
            "subcommand": "eval",
            **loader_settings,
            "detections_csv": args.detections_csv,
            "class_name": class_name,
            "iou_threshold": report.iou_threshold,
            "mode": mode,
            "buckets": ",".join(_fmt(b) for b in buckets),
            "folds": folds_path or "",
        },
    )
    print(f"AP ({mode}, IoU {report.iou_threshold:g}): {report.ap!r}")
    if report.zero_gt:
        print("warning: no ground truth for this class; AP defined as 0", file=sys.stderr)
    for line in fold_lines:
        print(line)
    print(f"wrote {out_dir / 'ap.csv'}")
    return EXIT_OK


# ------------------------------------------------------------- simulate ----


def cmd_simulate(args) -> int:
    filecfg = _read_config_file(args.config)
    out_dir = _out_dir(args, filecfg)
    images, loader_settings = _load_dataset(args, filecfg)
    profile_path = Path(args.profile)
    if not profile_path.is_file():
        raise ConfigError(f"profile file not found: {args.profile}")
    profile = load_profile(profile_path)
    seed_raw = _resolve(args, filecfg, "seed", None)
    if seed_raw is not None:
        try:
            seed = int(seed_raw)
        except ValueError:
            raise ConfigError(f"--seed expects an integer, got {seed_raw!r}") from None
        profile = dataclasses.replace(profile, seed=seed)

    detections = run_detector(images, profile)
    eval_mod.write_detections_csv(out_dir / "detections.csv", detections)
    _write_run_config(
        out_dir,
        {
            "subcommand": "simulate",
            **loader_settings,
            "profile": str(profile_path),
            "seed": profile.seed,
        },
    )
    print(f"detections: {len(detections)}")
    print(f"wrote {out_dir / 'detections.csv'}")
    return EXIT_OK


# ------------------------------------------------------------- plumbing ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaledet",
        description="Scale-aware detection analysis: dataset statistics, anchor "
        "coverage, receptive fields, evaluation, and a deterministic simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (default $SCALEDET_OUTPUT_DIR)")
        p.add_argument("--config", help="key=value config file; flags override it")

    def dataset_args(p):
        p.add_argument("dataset_dir", help="directory of annotation files")
        p.add_argument("--format", choices=["kitti", "voc"], help="annotation format")
        p.add_argument("--image-size", dest="image_size", help="WxH for formats without size info")
        p.add_argument("--skip-bad", dest="skip_bad", action="store_true",
                       help="skip unparseable files instead of failing")

    p = sub.add_parser("stats", help="scale/aspect distribution of a dataset")
    dataset_args(p)
    p.add_argument("--class", dest="class_filter", help="restrict histograms to one class")
    p.add_argument("--bins", help="comma-separated histogram bin edges (inf allowed)")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("coverage", help="anchor-vs-ground-truth recall report")
    dataset_args(p)
    p.add_argument("--class", dest="class_filter", help="restrict ground truth to one class")
    p.add_argument("--scales", help="comma-separated anchor scales (sqrt of area)")
    p.add_argument("--ratios", help="comma-separated h/w aspect ratios")
    p.add_argument("--stride", type=float, help="anchor grid stride in pixels")
    border = p.add_mutually_exclusive_group()
    border.add_argument("--keep-border", dest="drop_border", action="store_false",
                        help="keep anchors that extend beyond the image (default)")
    border.add_argument("--drop-border", dest="drop_border", action="store_true",
                        help="discard anchors that extend beyond the image")
    p.set_defaults(drop_border=False)
    p.add_argument("--thresholds", help="comma-separated IoU thresholds")
    p.add_argument("--buckets", help="comma-separated width bucket edges")
    p.add_argument("--compare", help="alternate scales list; emits delta.csv")
    common(p)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("rf", help="receptive-field report for an architecture file")
    p.add_argument("arch", help="architecture file path or builtin name (e.g. zf)")
    p.add_argument("--input-size", dest="input_size", help="WxH input size (default 1392x512)")
    p.add_argument("--probe", help="layer to report; 'rpn_window' appends a 3x3 window probe")
    common(p)
    p.set_defaults(func=cmd_rf)

    p = sub.add_parser("eval", help="evaluate a detections CSV against ground truth")
    dataset_args(p)
    p.add_argument("detections_csv", help="CSV with header image_id,class,x1,y1,x2,y2,score")
    p.add_argument("--class", dest="class_name", help="class to evaluate (default Car)")
    p.add_argument("--iou", help="IoU threshold (default 0.7 for Car, else 0.5)")
    p.add_argument("--mode", choices=["all-point", "11-point"], help="AP interpolation")
    p.add_argument("--buckets", help="comma-separated width bucket edges")
    p.add_argument("--folds", help="CSV manifest image_id,fold_id for per-fold AP")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="generate synthetic detections from ground truth")
    dataset_args(p)
    p.add_argument("profile", help="detector profile file (key=value lines)")
    p.add_argument("--seed", help="override the profile's random seed")
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, InvalidBoxError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
