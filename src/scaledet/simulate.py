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
import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .datasets import ImageAnnotations
from .errors import ConfigError
from .evaluation import Detection
from .geometry import Box

__all__ = ["DetectorProfile", "parse_profile", "simulate"]

# Floor on generated detection extent after localization jitter.
_MIN_SIZE = 0.25


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
        if not knots:
            raise ConfigError("detect_prob needs at least one knot")
        if any(b[0] <= a[0] for a, b in zip(knots, knots[1:])):
            raise ConfigError(f"detect_prob knot widths must be strictly increasing: {knots}")
        if any(not 0 <= p <= 1 for _, p in knots):
            raise ConfigError(f"detect_prob probabilities must lie in [0, 1]: {knots}")
        if self.loc_noise_sigma < 0 or self.score_sigma < 0:
            raise ConfigError("sigmas must be >= 0")
        if self.fp_per_image < 0:
            raise ConfigError(f"fp_per_image must be >= 0, got {self.fp_per_image}")
        lo, hi = self.fp_size_range
        if not 0 < lo <= hi:
            raise ConfigError(f"fp_size_range must satisfy 0 < min <= max, got {self.fp_size_range}")
        if self.score_mean_tp <= self.score_mean_fp:
            raise ConfigError(
                f"score_mean_tp ({self.score_mean_tp}) must exceed "
                f"score_mean_fp ({self.score_mean_fp})"
            )

    def prob_at(self, width: float) -> float:
        xs = [w for w, _ in self.detect_prob]
        ps = [p for _, p in self.detect_prob]
        return float(np.interp(width, xs, ps))


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


def _truncated_score(rng: np.random.Generator, mean: float, sigma: float) -> float:
    if sigma == 0.0:
        return min(max(mean, 0.0), 1.0)
    dist = NormalDist(mean, sigma)
    lo, hi = dist.cdf(0.0), dist.cdf(1.0)
    if hi - lo < 1e-12:
        return min(max(mean, 0.0), 1.0)
    return dist.inv_cdf(lo + rng.random() * (hi - lo))


def _jittered(box: Box, noise: np.ndarray) -> Box:
    x1 = box.x1 + noise[0]
    y1 = box.y1 + noise[1]
    x2 = max(box.x2 + noise[2], x1 + _MIN_SIZE)
    y2 = max(box.y2 + noise[3], y1 + _MIN_SIZE)
    return Box(x1, y1, x2, y2)


def _modal_class(dataset: list[ImageAnnotations]) -> str:
    counts = Counter(
        a.class_name for image in dataset for a in image.annotations if not a.is_dontcare
    )
    if not counts:
        return "object"
    # Highest count, alphabetical tie-break, independent of input order.
    return min(counts, key=lambda name: (-counts[name], name))


def simulate(dataset: list[ImageAnnotations], profile: DetectorProfile) -> list[Detection]:
    """Run the synthetic detector over a dataset.

    Per ground-truth box a detection fires with probability
    ``detect_prob(width)``, carrying the jittered box and a truncated-normal
    score; Poisson-distributed false positives (labeled with the dataset's
    most common class) are placed uniformly per image. The output is
    canonically ordered by (image_id, score desc, box).
    """
    fp_class = _modal_class(dataset)
    detections: list[Detection] = []
    for image in dataset:
        rng = _image_rng(profile.seed, image.image_id)
        for ann in image.annotations:
            if ann.is_dontcare:
                continue
            if rng.random() >= profile.prob_at(ann.box.width):
                continue
            if profile.loc_noise_sigma > 0:
                box = _jittered(ann.box, rng.normal(0.0, profile.loc_noise_sigma, 4))
            else:
                box = ann.box
            score = _truncated_score(rng, profile.score_mean_tp, profile.score_sigma)
            detections.append(
                Detection(image_id=image.image_id, class_name=ann.class_name, box=box, score=score)
            )
        if profile.fp_per_image > 0:
            lo, hi = profile.fp_size_range
            for _ in range(int(rng.poisson(profile.fp_per_image))):
                w = min(lo + rng.random() * (hi - lo), image.image_w)
                h = min(lo + rng.random() * (hi - lo), image.image_h)
                x1 = rng.random() * max(image.image_w - w, 0.0)
                y1 = rng.random() * max(image.image_h - h, 0.0)
                score = _truncated_score(rng, profile.score_mean_fp, profile.score_sigma)
                detections.append(
                    Detection(
                        image_id=image.image_id,
                        class_name=fp_class,
                        box=Box(x1, y1, x1 + w, y1 + h),
                        score=score,
                    )
                )
    detections.sort(key=lambda d: (d.image_id,) + d.sort_key())
    return detections
