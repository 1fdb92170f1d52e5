"""Scale-aware detection analysis toolkit.

Non-learned building blocks for studying how detector design interacts with
object scale: box geometry, KITTI/VOC annotation parsing with scale
statistics, anchor-family generation and ground-truth coverage, receptive-
field arithmetic over declarative layer graphs, detection evaluation
(NMS, PR, AP, scale-bucketed AP, fold aggregation), and a deterministic
synthetic detector for end-to-end runs.
"""

from .anchors import (
    AnchorConfig,
    CoverageReport,
    anchor_shapes,
    coverage,
)
from .datasets import (
    Annotation,
    DatasetStats,
    ImageAnnotations,
    compute_stats,
    load_dataset,
    parse_kitti_label,
    parse_voc_xml,
    split_folds,
)
from .errors import ConfigError, IncompatibleMergeError, InvalidBoxError, ParseError
from .evaluation import (
    Detection,
    EvalReport,
    aggregate_folds,
    average_precision,
    evaluate_detections,
    match_detections,
    nms,
    scale_bucketed_ap,
)
from .geometry import Box, iou
from .netgraph import (
    NetGraph,
    RFInfo,
    builtin_arch,
    parse_arch,
    receptive_field,
    validate_variant,
)
from .simulate import DetectorProfile, parse_profile, simulate

__version__ = "0.1.0"

__all__ = [
    "AnchorConfig",
    "Annotation",
    "Box",
    "ConfigError",
    "CoverageReport",
    "DatasetStats",
    "Detection",
    "DetectorProfile",
    "EvalReport",
    "ImageAnnotations",
    "IncompatibleMergeError",
    "InvalidBoxError",
    "NetGraph",
    "ParseError",
    "RFInfo",
    "aggregate_folds",
    "anchor_shapes",
    "average_precision",
    "builtin_arch",
    "compute_stats",
    "coverage",
    "evaluate_detections",
    "iou",
    "load_dataset",
    "match_detections",
    "nms",
    "parse_arch",
    "parse_kitti_label",
    "parse_profile",
    "parse_voc_xml",
    "receptive_field",
    "scale_bucketed_ap",
    "simulate",
    "split_folds",
    "validate_variant",
]
