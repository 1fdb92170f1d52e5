"""Deterministic synthetic detector.

Generates scored detections from ground truth under a scale-dependent
detection profile, so the coverage and evaluation stack can be exercised
end-to-end without a trained model. Every random draw comes from a
per-image substream derived from (seed, image_id), which makes the output
independent of processing order: identical dataset + profile means
byte-identical detections.

Profile files are plain ``key=value`` lines; ``detect_prob`` is a
comma-separated list of ``width:probability`` knots interpreted as a
piecewise-linear function of ground-truth width (clamped beyond the
outermost knots), e.g.::

    detect_prob=16:0.0,48:0.6,128:0.95,512:1.0
    loc_noise_sigma=1.5
    score_mean_tp=0.8
    score_mean_fp=0.3
    score_sigma=0.08
    fp_per_image=2.0
    fp_size_range=20,120
    seed=42
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .datasets import LabelTable, as_label_table
from .errors import ConfigError
from .evaluation import Detection, DetectionTable, _detections, _order
from .geometry import Box, valid_boxes

__all__ = ["DetectorProfile", "parse_profile", "simulate", "simulate_table"]

# Floor on generated detection extent after localization jitter.
_MIN_SIZE = 0.25
# Bounds on fp_per_image, far above any detector's output per image (tests and
# the benchmark use at most 15), and on loc_noise_sigma in pixels, far beyond
# any image side.
_MAX_FP, _MAX_JITTER = 1000.0, 1e6


@dataclass(frozen=True)
class DetectorProfile:
    """Scale-dependent behavior of the synthetic detector."""

    detect_prob: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    loc_noise_sigma: float = 0.0
    score_mean_tp: float = 0.8
    score_mean_fp: float = 0.3
    score_sigma: float = 0.08
    fp_per_image: float = 0.0
    fp_size_range: tuple[float, float] = (20.0, 120.0)
    seed: int = 0

    def __post_init__(self) -> None:
        knots = tuple((float(w), float(p)) for w, p in self.detect_prob)
        object.__setattr__(self, "detect_prob", knots)
        object.__setattr__(self, "fp_size_range", tuple(float(v) for v in self.fp_size_range))
        for key in ("detect_prob", "loc_noise_sigma", "score_mean_tp", "score_mean_fp",
                    "score_sigma", "fp_per_image", "fp_size_range"):
            if not np.isfinite(getattr(self, key)).all():
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if not knots:
            raise ConfigError("detect_prob needs at least one knot")
        if any(b[0] <= a[0] for a, b in zip(knots, knots[1:])):
            raise ConfigError(f"detect_prob knot widths must be strictly increasing: {knots}")
        if any(not 0 <= p <= 1 for _, p in knots):
            raise ConfigError(f"detect_prob probabilities must lie in [0, 1]: {knots}")
        if self.loc_noise_sigma < 0 or self.score_sigma < 0:
            raise ConfigError("sigmas must be >= 0")
        if self.loc_noise_sigma > _MAX_JITTER:
            raise ConfigError(f"loc_noise_sigma must be <= {_MAX_JITTER:g}")
        if not 0 <= self.fp_per_image <= _MAX_FP:
            raise ConfigError(f"fp_per_image must be in [0, {_MAX_FP:g}], got {self.fp_per_image}")
        lo, hi = self.fp_size_range
        if not 0 < lo <= hi:
            raise ConfigError(f"fp_size_range must satisfy 0 < min <= max, got {self.fp_size_range}")
        if self.score_mean_tp <= self.score_mean_fp:
            raise ConfigError(
                f"score_mean_tp ({self.score_mean_tp}) must exceed "
                f"score_mean_fp ({self.score_mean_fp})"
            )

    def prob_at(self, width):
        """``detect_prob`` at ``width``: a float64, or an array for an array of widths."""
        return np.interp(width, *zip(*self.detect_prob))


def read_key_values(text: str, where: str, keys) -> dict[str, tuple[int, str]]:
    """``key=value`` lines as ``{key: (line number, value)}``; the last repeat wins.

    ``#`` starts a comment and blank lines are skipped. A line without ``=``
    or with a key not in ``keys`` raises ConfigError naming ``where`` and
    the line.
    """
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{where} line {lineno}: expected key=value, got {line!r}")
        if key not in keys:
            raise ConfigError(f"{where} line {lineno}: unknown key {key!r}")
        values[key] = (lineno, value.strip())
    return values


def _knots(value: str) -> tuple[tuple[float, float], ...]:
    return tuple((float(w), float(p)) for w, _, p in (k.partition(":") for k in value.split(",")))


def _pair(value: str) -> tuple[float, float]:
    lo, _, hi = value.partition(",")
    return float(lo), float(hi)


_PROFILE_KEYS = {
    "detect_prob": _knots,
    "loc_noise_sigma": float,
    "score_mean_tp": float,
    "score_mean_fp": float,
    "score_sigma": float,
    "fp_per_image": float,
    "fp_size_range": _pair,
    "seed": int,
}


def parse_profile(text: str) -> DetectorProfile:
    """Parse key=value profile text; unknown keys are rejected."""
    values: dict[str, object] = {}
    for key, (lineno, value) in read_key_values(text, "profile", _PROFILE_KEYS).items():
        try:
            values[key] = _PROFILE_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"profile line {lineno}: bad value for {key}: {value!r}") from None
    return DetectorProfile(**values)


def _image_rng(seed: int, image_id: str) -> np.random.Generator:
    digest = hashlib.sha256(image_id.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), key]))


def _score_law(mean: float, sigma: float):
    """``(draws, scores)`` of N(mean, sigma) truncated to [0, 1]: whether a score draws a
    uniform, and the scores of draws, one row each (for ``sigma`` 0 or a window under
    1e-12 none draws, and each is ``mean`` clamped to [0, 1])."""
    if sigma != 0.0:
        dist = NormalDist(mean, sigma)
        lo, hi = dist.cdf(0.0), dist.cdf(1.0)
        if hi - lo >= 1e-12:
            return True, lambda u: np.array([dist.inv_cdf(lo + v * (hi - lo))
                                             for v in u.ravel().tolist()])
    return False, lambda u: np.full(len(u), min(max(mean, 0.0), 1.0))


def simulate_table(labels: LabelTable, profile: DetectorProfile) -> DetectionTable:
    """Run the synthetic detector over the rows of a LabelTable.

    Per counted ground-truth box (not DontCare) a detection fires with
    probability ``detect_prob(width)``, carrying the jittered box and a
    truncated-normal score; Poisson-distributed false positives (labeled
    with the dataset's most common class) are placed uniformly per image.
    A far edge lies above its near edge by at least the next float. The rows
    are in canonical order: image id, then ``Detection.sort_key``.
    """
    rows = labels.counted()
    rows = rows[np.argsort(labels.image[rows], kind="stable")]  # per image, in row order
    prob = profile.prob_at(labels.boxes[rows, 2] - labels.boxes[rows, 0]).tolist()
    ends = np.cumsum(np.bincount(labels.image[rows], minlength=len(labels.image_ids))).tolist()
    tp_draws, tp_scores = _score_law(profile.score_mean_tp, profile.score_sigma)
    fp_draws, fp_scores = _score_law(profile.score_mean_fp, profile.score_sigma)
    sigma, rate, k = profile.loc_noise_sigma, profile.fp_per_image, 4 + fp_draws
    fired, noise, uniform = np.zeros(len(rows), bool), np.empty((len(rows), 4)), np.empty(len(rows))
    fp_counts, fp_uniforms, start = [], [np.empty(0)], 0
    # Each image draws from its own stream: per counted box a uniform, and for a box that
    # fires its jitter and score uniform; then the false-positive count, and their uniforms
    # in one call (the stream of as many scalar draws). The rest is column arithmetic.
    for image_id, end in zip(labels.image_ids, ends):
        rng = _image_rng(profile.seed, image_id)
        for j in range(start, end):
            if rng.random() < prob[j]:
                fired[j] = True
                if sigma > 0:
                    noise[j] = rng.normal(0.0, sigma, 4)
                if tp_draws:
                    uniform[j] = rng.random()
        start = end
        if rate > 0:
            fp_counts.append(int(rng.poisson(rate)))
            fp_uniforms.append(rng.random(fp_counts[-1] * k))

    tp_rows, u = rows[fired], np.concatenate(fp_uniforms).reshape(-1, k)  # w, h, x1, y1[, score]
    tp_boxes = labels.boxes[tp_rows]
    if sigma > 0:
        tp_boxes += noise[fired]
        near = tp_boxes[:, :2]
        tp_boxes[:, 2:] = np.maximum(np.maximum(tp_boxes[:, 2:], near + _MIN_SIZE),
                                     np.nextafter(near, np.inf))
    fp_image = np.repeat(np.arange(len(fp_counts)), fp_counts)
    size = np.array(labels.sizes, dtype=np.float64).reshape(-1, 2)[fp_image]
    lo, hi = profile.fp_size_range
    extent = np.minimum(lo + u[:, :2] * (hi - lo), size)
    near = u[:, 2:4] * np.maximum(size - extent, 0.0)
    far = np.maximum(near + extent, np.nextafter(near, np.inf))
    boxes = np.concatenate((tp_boxes, np.hstack((near, far))))
    bad = np.flatnonzero(~valid_boxes(boxes))
    if len(bad):
        Box(*boxes[bad[0]].tolist())  # raises InvalidBoxError naming the box
    scores = np.concatenate((tp_scores(uniform[fired]), fp_scores(u[:, 4:])))

    counts = Counter(labels.classes[i] for i in rows.tolist())
    # False positives take the highest count's class, the first name on ties.
    classes = labels.classes + [min(counts, key=lambda c: (-counts[c], c), default="object")]
    image = np.concatenate((labels.image[tp_rows], fp_image))
    cls = np.concatenate((tp_rows, np.full(len(u), len(labels.classes))))  # into classes
    # Indexing object arrays of the strings makes no per-row objects.
    ids = np.array(labels.image_ids, dtype=object)[image]
    names = np.array(classes, dtype=object)[cls]
    order = _order(DetectionTable(ids.tolist(), names.tolist(), boxes, scores), by_image=True)
    return DetectionTable(ids[order].tolist(), names[order].tolist(), boxes[order], scores[order])


def simulate(dataset, profile: DetectorProfile) -> list[Detection]:
    """``simulate_table`` as Detection objects, of a LabelTable or what ``as_label_table`` takes."""
    return _detections(simulate_table(as_label_table(dataset), profile))
