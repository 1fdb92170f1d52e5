"""Per-layer spans and counts for the traced run.

The tracer replaces public functions of scaledet's modules with wrappers
while one op runs, then restores them. It patches every scaledet module
attribute that holds the original function, which also covers names bound
by ``from ... import`` (``scaledet.evaluation.iou``,
``scaledet.anchors.iou_matrix``, ``scaledet.cli.run_detector``) and the
package's re-export of ``simulate``, which hides the ``scaledet.simulate``
module, so modules are always taken from ``sys.modules``.

A span is recorded only for the outermost call of a name, so a layer's time
is never counted twice. Counters run after the wrapped call returns, and
the costly one (pairs per image) runs after the op, so neither lands inside
a span it measures. The scalar ``iou`` runs millions of times per op: it is
only counted, never given a span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Span name -> per-layer time metric. The ``cli`` span gives ``cli.self_s``
# and ``evaluation.evaluate`` only marks a boundary for it.
SPAN_TIMES = {
    "svgplot.render": "svgplot.render_s",
    "datasets.load": "datasets.load_s",
    "datasets.stats": "datasets.stats_s",
    "anchors.coverage": "anchors.coverage_s",
    "geometry.iou_matrix": "geometry.iou_matrix_s",
    "netgraph.analyze": "netgraph.analyze_s",
    "evaluation.csv_read": "evaluation.csv_read_s",
    "evaluation.match": "evaluation.match_s",
    "evaluation.bucketed": "evaluation.bucketed_s",
    "evaluation.ap": "evaluation.ap_s",
    "evaluation.nms": "evaluation.nms_s",
    "simulate.simulate": "simulate.simulate_s",
}


def _count_load(tracer, args, kwargs, result):
    images, skipped = result
    tracer.counts["datasets.files"] += len(images) + len(skipped)
    tracer.counts["datasets.boxes"] += sum(len(image.annotations) for image in images)


def _count_coverage(tracer, args, kwargs, result):
    tracer.counts["anchors.coverage_calls"] += 1
    tracer.counts["anchors.anchors_per_image"] += result.anchors_per_image


def _count_iou_matrix(tracer, args, kwargs, result):
    tracer.counts["geometry.iou_matrix_calls"] += 1
    tracer.counts["geometry.iou_matrix_pairs"] += result.size


def _count_analyze(tracer, args, kwargs, result):
    infos = result[0] if isinstance(result, tuple) else result
    tracer.counts["netgraph.layers"] += len(infos)


def _count_csv_read(tracer, args, kwargs, result):
    tracer.counts["evaluation.csv_rows"] += len(result)


def _count_match(tracer, args, kwargs, result):
    dets, gts = args[0], args[1]

    def pairs():
        per_image = Counter(g.source_image for g in gts)
        return sum(per_image[d.image_id] for d in dets)

    tracer.counts["evaluation.match_calls"] += 1
    tracer.deferred.append(("evaluation.det_gt_pairs", pairs))


def _count_nms(tracer, args, kwargs, result):
    tracer.counts["evaluation.nms_in"] += len(args[0])
    tracer.counts["evaluation.nms_kept"] += len(result)


def _count_simulate(tracer, args, kwargs, result):
    tracer.counts["simulate.dets"] += len(result)


# (module, function, span name, counter)
WRAPPED = (
    ("cli", "main", "cli", None),
    ("svgplot", "bar_chart", "svgplot.render", None),
    ("svgplot", "line_chart", "svgplot.render", None),
    ("datasets", "load_dataset", "datasets.load", _count_load),
    ("datasets", "compute_stats", "datasets.stats", None),
    ("anchors", "coverage", "anchors.coverage", _count_coverage),
    ("geometry", "iou_matrix", "geometry.iou_matrix", _count_iou_matrix),
    ("netgraph", "analyze", "netgraph.analyze", _count_analyze),
    ("netgraph", "analyze_with_findings", "netgraph.analyze", _count_analyze),
    ("evaluation", "read_detections_csv", "evaluation.csv_read", _count_csv_read),
    ("evaluation", "evaluate_detections", "evaluation.evaluate", None),
    ("evaluation", "match_detections", "evaluation.match", _count_match),
    ("evaluation", "scale_bucketed_ap", "evaluation.bucketed", None),
    ("evaluation", "average_precision", "evaluation.ap", None),
    ("evaluation", "nms", "evaluation.nms", _count_nms),
    ("simulate", "simulate", "simulate.simulate", _count_simulate),
)
COUNTED_ONLY = (("geometry", "iou", "geometry.iou_calls"),)


class Tracer:
    """Spans and counts of one op; use as a context manager around it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.deferred: list = []
        self.errors: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer.depth[name] == 0
            if outer:
                parent = tracer.stack[-1] if tracer.stack else -1
                tracer.stack.append(len(tracer.spans))
                span = [name, time.perf_counter(), 0.0, parent]
                tracer.spans.append(span)
            tracer.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.depth[name] -= 1
                if outer:
                    span[2] = time.perf_counter()
                    tracer.stack.pop()
            if count is not None:
                try:
                    count(tracer, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError) as exc:
                    tracer.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        replacements = {}
        for module, attr, name, count in WRAPPED:
            fn = getattr(sys.modules.get(f"scaledet.{module}"), attr, None)
            if callable(fn):
                replacements[id(fn)] = self._span(fn, name, count)
        for module, attr, name in COUNTED_ONLY:
            fn = getattr(sys.modules.get(f"scaledet.{module}"), attr, None)
            if callable(fn):
                replacements[id(fn)] = self._counter(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "scaledet" and not mod_name.startswith("scaledet."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        return self

    def __exit__(self, *exc_info):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer times and counts of the traced op."""
        for name, compute in self.deferred:
            try:
                self.counts[name] += compute()
            except (AttributeError, TypeError) as exc:
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        self.deferred.clear()
        times: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            times[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        out = {metric: times[span] for span, metric in SPAN_TIMES.items()}
        out["cli.self_s"] = sum(
            end - start - child_time[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == "cli"
        )
        out.update(self.counts)
        kept = out.pop("evaluation.nms_kept", 0)
        nms_in = out.get("evaluation.nms_in", 0)
        out["evaluation.nms_kept_frac"] = kept / nms_in if nms_in else 0.0
        return out
