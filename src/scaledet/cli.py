"""Command-line interface.

Subcommands: ``stats``, ``coverage``, ``rf``, ``eval``, ``simulate``. Each
has one table in ``SETTINGS`` of ``(key, flag, parse, default, help)`` rows,
read alike by argparse, by ``--config`` files (``key=value`` lines) and by
``run_config.txt``. A setting comes from its flag, else the config file, else
the default; flag and file text go through the same parser, so a bad value
is a config error either way. Config keys outside the table are rejected,
and booleans take ``true`` or ``false``.

Every run writes its artifacts (CSV plus SVG where a plot makes sense) into
an output directory along with ``run_config.txt``, every resolved setting.
Re-running any subcommand with identical inputs and seed reproduces
byte-identical outputs.

Exit codes: 0 success, 1 usage/config error, 2 input parse error,
3 internal invariant violation. A config file, profile or folds manifest that
cannot be read is a config error; any other unreadable input a parse error.
Every artifact is written by ``datasets.write_output`` (UTF-8, ``\n`` line
ends); an output file or directory that cannot be written is a config error.

The default output directory comes from ``SCALEDET_OUTPUT_DIR`` when set.

``main`` builds the argparse parser once per process and reuses it for every
call: parsing leaves a parser unchanged, so each call sees only its own argv.
Every subcommand runs in one skeleton: ``main`` resolves its settings, runs
it, and writes the ``run_config.txt`` record it returns. It checks settings,
and reads a profile or folds manifest, before it reads labels or detections.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

from . import anchors as anchors_mod
from . import datasets as datasets_mod
from . import evaluation as eval_mod
from . import netgraph as netgraph_mod
from . import svgplot
from .datasets import write_output
from .errors import ConfigError, ParseError
from .simulate import parse_profile, read_key_values, simulate_table
# Unused here; scalebench's tracer test still patches cli.run_detector.
from .simulate import simulate as run_detector  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

_ENV_OUTPUT_DIR = "SCALEDET_OUTPUT_DIR"
_AGGREGATE = "mean"  # fold_id of the aggregate row of folds.csv, which no fold may take


# ---------------------------------------------------------- value parsers ----
# Each takes the raw text and the name to report, and raises ConfigError.


def _text(text: str, name: str) -> str:
    return text


def _number(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{name}: {text!r} is not a number") from None


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} expects an integer, got {text!r}") from None


def _numbers(text: str, name: str) -> tuple[float, ...]:
    values = tuple(_number(p.strip(), name) for p in text.split(",") if p.strip())
    if not values:
        raise ConfigError(f"{name}: empty list")
    return values


def _size(text: str, name: str) -> tuple[int, int]:
    try:
        w_s, h_s = text.lower().split("x")
        w, h = int(w_s), int(h_s)
    except ValueError:
        raise ConfigError(f"{name} expects WxH, got {text!r}") from None
    if not (1 <= w <= sys.float_info.max and 1 <= h <= sys.float_info.max):
        raise ConfigError(f"{name} must be positive and finite, got {text!r}")
    return w, h


def _boolean(text: str, name: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ConfigError(f"{name}: {text!r} is not true or false")
    return text.lower() == "true"


def _record(value, parse) -> str:
    """A resolved setting as ``run_config.txt`` writes it."""
    if parse is _numbers and value is not None:
        return ",".join(map(repr, value))
    if parse is _size:
        return "%dx%d" % value
    return "" if value is None else str(value)


# --------------------------------------------------------------- settings ----


def _settings(args) -> tuple[Path, dict]:
    """The output directory and every setting of the subcommand's table.

    Each value is the flag's, else the ``--config`` file's, else the row's
    default; flag and file text both go through the row's parser.
    """
    rows = SETTINGS[args.subcommand][2]
    from_file: dict[str, tuple[int, str]] = {}
    if args.config is not None:
        where = Path(args.config).name
        keys = {key for key, flag, *_ in rows if flag.startswith("-")}
        from_file = read_key_values(datasets_mod.read_input(args.config, ConfigError), where, keys)
    settings = {"subcommand": args.subcommand}
    for key, flag, parse, default, _ in rows:
        if getattr(args, key) is not None:
            settings[key] = parse(getattr(args, key), flag)
        elif key in from_file:
            lineno, text = from_file[key]
            settings[key] = parse(text, f"{where} line {lineno}: {key} ({flag})")
        else:
            settings[key] = default
    out = settings.pop("out")
    out = Path(os.environ.get(_ENV_OUTPUT_DIR, "scaledet_out") if out is None else out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {str(out)!r}: {exc}") from None
    return out, settings


def _write_run_config(out_dir: Path, settings: dict) -> None:
    parsers = {key: parse for key, _, parse, _, _ in SETTINGS[settings["subcommand"]][2]}
    write_output(out_dir / "run_config.txt", "".join(
        f"{key}={_record(settings[key], parsers.get(key))}\n" for key in sorted(settings)))


def _load_dataset(s: dict):
    """The dataset as one LabelTable; a skipped file is reported on stderr."""
    image_w, image_h = s["image_size"]
    table, skipped = datasets_mod.load_label_table(
        s["dataset_dir"], s["format"], image_w=image_w, image_h=image_h, skip_bad=s["skip_bad"]
    )
    for message in skipped:
        print(f"skipped: {message}", file=sys.stderr)
    if not table.image_ids:
        raise ParseError(f"no parseable annotation files in {s['dataset_dir']}")
    return table


# ---------------------------------------------------------------- stats ----


def cmd_stats(out_dir: Path, s: dict) -> dict:
    datasets_mod.check_edges(s["bins"])
    stats = datasets_mod.compute_stats(_load_dataset(s), class_filter=s["class_filter"],
                                       bin_edges=s["bins"])
    hists = [(name, getattr(stats, f"{name}_histogram"))
             for name in ("width", "height", "sqrt_area", "aspect")]
    write_output(out_dir / "stats.csv",
                 ((name, *hist.bin_bounds(i), count)
                  for name, hist in hists for i, count in enumerate(hist.counts)),
                 ["histogram_name", "bin_lo", "bin_hi", "count"])
    for name, hist in hists:
        write_output(out_dir / f"{name}_histogram.svg",
                     svgplot.bar_chart(f"{name} distribution", hist.bin_edges, hist.counts))
    modal = stats.width_histogram.modal_bin()
    print(f"images: {stats.image_count}")
    print(f"annotations (after filter): {stats.width_histogram.total}")
    for name, count in stats.per_class.items():
        print(f"class {name}: {count}")
    print(f"modal width bin: [{modal[0]:g}, {modal[1]:g})")
    print(f"wrote {out_dir / 'stats.csv'}")
    return s


# ------------------------------------------------------------- coverage ----


def cmd_coverage(out_dir: Path, s: dict) -> dict:
    families = [
        anchors_mod.AnchorConfig(scales=scales, ratios=s["ratios"], stride=s["stride"],
                                 allow_border=s["allow_border"])
        for scales in (s["scales"], s["compare"]) if scales is not None
    ]
    anchors_mod._check_thresholds(s["thresholds"])
    datasets_mod.check_edges(s["buckets"])
    labels = _load_dataset(s)
    report, *alt = anchors_mod._coverage(families, labels, s["thresholds"], s["buckets"],
                                         s["class_filter"])
    write_output(out_dir / "coverage.csv",
                 ([r.threshold, r.bucket_lo, r.bucket_hi, r.matched, r.total, r.recall]
                  for r in report.rows),
                 ["threshold", "bucket_lo", "bucket_hi", "matched", "total", "recall"])
    write_output(out_dir / "attribution.csv",
                 zip(report.gt_width.tolist(), report.best_scale.tolist(),
                     report.best_ratio.tolist(), report.best_iou.tolist(), report.image_ids),
                 ["gt_width", "best_scale", "best_ratio", "best_iou", "image_id"])
    if alt:
        write_output(out_dir / "delta.csv",
                     ([a.threshold, a.bucket_lo, a.bucket_hi, a.recall, b.recall,
                       None if a.recall is None or b.recall is None else b.recall - a.recall]
                      for a, b in zip(report.rows, alt[0].rows)),
                     ["threshold", "bucket_lo", "bucket_hi", "recall_base", "recall_compare",
                      "delta"])
    rows, counted = len(labels.classes), len(report.image_ids)
    dontcare = labels.classes.count(datasets_mod.DONTCARE_CLASS)
    print(f"ground truth: rows={rows} counted={counted} dontcare={dontcare} "
          f"filtered={rows - counted - dontcare}")
    for t in s["thresholds"]:
        recall = report.overall_recall(t)
        print(f"recall@{t:g}: {recall if recall is not None else 'undefined'}")
    print(f"anchors per image: {report.anchors_per_image:g}")
    print(f"wrote {out_dir / 'coverage.csv'}")
    return s


# ------------------------------------------------------------------- rf ----


def cmd_rf(out_dir: Path, s: dict) -> dict:
    arch_path = Path(s["arch"])
    if arch_path.is_file():
        graph = netgraph_mod.parse_arch(datasets_mod.read_input(arch_path))
        arch_label = str(arch_path)
    else:
        try:
            graph = netgraph_mod.parse_arch(netgraph_mod.builtin_arch(s["arch"]))
        except KeyError:
            raise ParseError(
                f"{s['arch']!r} is neither a file nor a builtin architecture "
                f"({', '.join(netgraph_mod.builtin_arch_names())})"
            ) from None
        arch_label = f"builtin:{s['arch']}"

    probe = s["probe"]
    if probe is not None and probe not in graph.layers:
        if probe != netgraph_mod.PROBE_NAME:
            raise ConfigError(f"--probe: {arch_label} has no layer {probe!r}")
        graph = netgraph_mod.with_probe_window(graph)

    infos, findings = netgraph_mod.analyze(graph, s["input_size"])

    rows = []
    for name in graph.topo_order:
        info = infos[name]
        rows.append([name, info.receptive_field, info.cumulative_stride,
                     "|".join(str(r) for r in sorted(info.rf_set)), info.channels,
                     *(info.spatial_dims or (None, None))])
    write_output(out_dir / "rf.csv", rows,
                 ["layer", "rf", "stride", "rf_set", "channels", "out_w", "out_h"])
    findings_text = "\n".join(("ok  " if f.ok else "BAD ") + f.message for f in findings)
    write_output(out_dir / "findings.txt", (findings_text or "no merge nodes") + "\n")
    report_layers = [probe] if probe else graph.sinks()
    for name in report_layers:
        info = infos[name]
        rf_set = "{" + ", ".join(str(r) for r in sorted(info.rf_set)) + "}"
        print(
            f"{name}: rf={info.receptive_field} stride={info.cumulative_stride} rf_set={rf_set}"
        )
    merges = sum(spec.kind in ("concat", "resadd") for spec in graph.layers.values())
    bad = [f for f in findings if not f.ok]
    print(f"findings: {merges} merge node(s), {len(bad)} violation(s)")
    print(f"wrote {out_dir / 'rf.csv'}")
    return {**s, "arch": arch_label}


# ----------------------------------------------------------------- eval ----


def cmd_eval(out_dir: Path, s: dict) -> dict:
    class_name, mode, iou = s["class_name"], s["mode"], s.pop("iou")
    eval_mod._check_mode(mode)
    if iou is not None:
        eval_mod._check_iou(iou)
    datasets_mod.check_edges(s["buckets"])
    folds = None
    if s["folds"] is not None:
        folds, name = {}, Path(s["folds"]).name
        rows = datasets_mod.read_csv_rows(s["folds"], ("image_id", "fold_id"), ConfigError)
        for lineno, (image_id, fold_id) in rows:
            if image_id in folds:
                raise ParseError(f"{name}: line {lineno}: image {image_id!r} listed twice")
            if fold_id == _AGGREGATE:
                raise ParseError(f"{name}: line {lineno}: fold id {fold_id!r} is reserved for "
                                 "the aggregate row")
            folds[image_id] = fold_id
        if not folds:
            raise ParseError(f"{name}: no folds")
    labels = _load_dataset(s)
    dets = eval_mod.read_detection_table(s["detections_csv"])
    report = eval_mod.evaluate_detections(dets, labels, class_name=class_name, iou_threshold=iou,
                                          mode=mode, bucket_edges=s["buckets"], folds=folds)

    points = report.pr_points  # Python floats: "%r" writes each as csv.writer does
    write_output(out_dir / "pr.csv", "recall,precision\n"
                 + "%r,%r\n" * len(points) % tuple(chain.from_iterable(points)))
    write_output(out_dir / "ap.csv",
                 [["overall", None, None, report.ap, report.tp, report.fp, report.total_gt]]
                 + [["bucket", b.bucket_lo, b.bucket_hi, b.ap, b.tp, b.fp, b.total_gt]
                    for b in report.per_bucket],
                 ["scope", "bucket_lo", "bucket_hi", "ap", "tp", "fp", "total_gt"])
    write_output(out_dir / "pr.svg",
                 svgplot.line_chart(f"PR curve ({class_name}, IoU {report.iou_threshold:g})",
                                    report.pr_points))

    if folds is not None:
        images_per_fold = Counter(folds.values())
        agg = eval_mod.aggregate_folds([r.ap for _, r in report.per_fold])
        fold_rows = [[fold_id, r.ap, r.tp, r.fp, r.total_gt, images_per_fold[fold_id]]
                     for fold_id, r in report.per_fold]
        fold_rows.append([_AGGREGATE, agg.mean, None, None, None, None])
        write_output(out_dir / "folds.csv", fold_rows,
                     ["fold_id", "ap", "tp", "fp", "total_gt", "images"])

    print(f"AP ({mode}, IoU {report.iou_threshold:g}): {report.ap!r}")
    n_class = dets.classes.count(class_name)
    print(f"detections: read={len(dets.classes)} class={n_class} tp={report.tp} fp={report.fp} "
          f"ignored={n_class - report.tp - report.fp}")
    zero_gt = "no ground truth for this class; AP defined as 0"
    if report.total_gt == 0:
        print(f"warning: {zero_gt}", file=sys.stderr)
    for fold_id, r in report.per_fold:
        if r.total_gt == 0:
            print(f"warning: fold {fold_id!r}: {zero_gt}", file=sys.stderr)
    known = set(labels.image_ids)
    for source, ids in (("detection", set(dets.image_ids)),
                        ("folds manifest", set(folds or ()))):
        if ids - known:
            print(f"warning: {len(ids - known)} {source} image id(s) not in the dataset",
                  file=sys.stderr)
    if folds is not None:
        print(f"folds: n={len(report.per_fold)} mean={agg.mean!r} min={agg.minimum!r} "
              f"max={agg.maximum!r} stddev={agg.stddev!r}")
    print(f"wrote {out_dir / 'ap.csv'}")
    return {**s, "iou_threshold": report.iou_threshold}


# ------------------------------------------------------------- simulate ----


def cmd_simulate(out_dir: Path, s: dict) -> dict:
    profile = parse_profile(datasets_mod.read_input(s["profile"], ConfigError))
    if s["seed"] is not None:
        profile = dataclasses.replace(profile, seed=s["seed"])
    detections = simulate_table(_load_dataset(s), profile)
    eval_mod.write_detections_csv(out_dir / "detections.csv", detections)
    # run_config.txt records the profile path normalised by Path ("./p.txt" as "p.txt"),
    # and every field of the resolved profile in profile syntax (a float's str is its repr).
    knots = ",".join(f"{w!r}:{p!r}" for w, p in profile.detect_prob)
    record = {**dataclasses.asdict(profile), "detect_prob": knots,
              "fp_size_range": "%r,%r" % profile.fp_size_range}
    print(f"detections: {len(detections.scores)}")
    print(f"wrote {out_dir / 'detections.csv'}")
    return {**s, **record, "profile": Path(s["profile"])}


# ------------------------------------------------------- settings table ----
# (key, flag, parse, default, help). ``key`` is the argparse dest, the config
# key and the run_config.txt key. A flag without a leading dash is a
# positional argument, which a config file cannot set. A boolean row's flag
# stores "true"; its "--on/--off" form adds a flag that stores "false".

_DATASET = (
    ("dataset_dir", "dataset_dir", _text, None, "directory of annotation files"),
    ("format", "--format", _text, "kitti", "annotation format: kitti or voc"),
    ("image_size", "--image-size", _size,
     (datasets_mod.KITTI_IMAGE_W, datasets_mod.KITTI_IMAGE_H),
     "WxH for formats without size info"),
    ("skip_bad", "--skip-bad", _boolean, False, "skip unparseable files instead of failing"),
)
_BUCKETS = ("buckets", "--buckets", _numbers, datasets_mod.DEFAULT_WIDTH_BIN_EDGES,
            "comma-separated width bucket edges")
_OUT = ("out", "--out", _text, None, "output directory (default $SCALEDET_OUTPUT_DIR)")

SETTINGS = {
    "stats": (cmd_stats, "scale/aspect distribution of a dataset", _DATASET + (
        ("class_filter", "--class", _text, None, "restrict histograms to one class"),
        ("bins", "--bins", _numbers, datasets_mod.DEFAULT_WIDTH_BIN_EDGES,
         "comma-separated histogram bin edges (inf allowed)"),
        _OUT,
    )),
    "coverage": (cmd_coverage, "anchor-vs-ground-truth recall report", _DATASET + (
        ("class_filter", "--class", _text, None, "restrict ground truth to one class"),
        ("scales", "--scales", _numbers, anchors_mod.SCALES_BASELINE,
         "comma-separated anchor scales (sqrt of area)"),
        ("ratios", "--ratios", _numbers, anchors_mod.RATIOS_DEFAULT,
         "comma-separated h/w aspect ratios"),
        ("stride", "--stride", _number, 16.0, "anchor grid stride in pixels"),
        ("allow_border", "--keep-border/--drop-border", _boolean, True,
         "keep anchors that extend beyond the image (default)"),
        ("thresholds", "--thresholds", _numbers, (0.5, 0.7), "comma-separated IoU thresholds"),
        _BUCKETS,
        ("compare", "--compare", _numbers, None, "alternate scales list; emits delta.csv"),
        _OUT,
    )),
    "rf": (cmd_rf, "receptive-field report for an architecture file", (
        ("arch", "arch", _text, None, "architecture file path or builtin name (e.g. zf)"),
        ("input_size", "--input-size", _size, (1392, 512), "WxH input size (default 1392x512)"),
        ("probe", "--probe", _text, None,
         "layer to report; 'rpn_window' appends a 3x3 window probe, any other must exist"),
        _OUT,
    )),
    "eval": (cmd_eval, "evaluate a detections CSV against ground truth", _DATASET + (
        ("detections_csv", "detections_csv", _text, None,
         "CSV with header image_id,class,x1,y1,x2,y2,score"),
        ("class_name", "--class", _text, "Car", "class to evaluate (default Car)"),
        ("iou", "--iou", _number, None, "IoU threshold (default 0.7 for Car, else 0.5)"),
        ("mode", "--mode", _text, "all-point", "AP interpolation: all-point or 11-point"),
        _BUCKETS,
        ("folds", "--folds", _text, None, "CSV manifest image_id,fold_id for per-fold AP"),
        _OUT,
    )),
    "simulate": (cmd_simulate, "generate synthetic detections from ground truth", _DATASET + (
        ("profile", "profile", _text, None, "detector profile file (key=value lines)"),
        ("seed", "--seed", _integer, None, "override the profile's random seed"),
        _OUT,
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaledet",
        description="Scale-aware detection analysis: dataset statistics, anchor "
        "coverage, receptive fields, evaluation, and a deterministic simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, rows) in SETTINGS.items():
        p = sub.add_parser(name, help=help_text)
        for key, flag, parse, _, text in rows:
            if not flag.startswith("-"):
                p.add_argument(key, help=text)
            elif parse is _boolean:
                on, _, off = flag.partition("/")
                group = p.add_mutually_exclusive_group()
                group.add_argument(on, dest=key, action="store_const", const="true", help=text)
                if off:
                    group.add_argument(off, dest=key, action="store_const", const="false",
                                       help=f"the opposite of {on}")
            else:
                p.add_argument(flag, dest=key, help=text)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        out_dir, s = _settings(args)
        _write_run_config(out_dir, args.func(out_dir, s))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
