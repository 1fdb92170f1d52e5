"""Deterministic synthetic detector.

Generates scored detections from ground truth under a scale-dependent
detection profile, so the coverage and evaluation stack can be exercised
end-to-end without a trained model. Each image draws from its own stream,
``PCG64`` seeded by ``SeedSequence([seed mod 2^64, key])`` with ``key`` the
first 8 bytes of the SHA-256 of the UTF-8 image id read little-endian, all
derived 1,024 images per pass: the output does not depend on processing order.
"""

from __future__ import annotations

import hashlib
import numbers
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from statistics import NormalDist

import numpy as np

from .datasets import LabelTable, as_label_table
from .errors import ConfigError
from .evaluation import Detection, DetectionTable, _detections, _order
from .geometry import valid_boxes

__all__ = ["DetectorProfile", "simulate", "simulate_table"]

# Floor on generated detection extent after localization jitter.
_MIN_SIZE = 0.25
# Bounds on fp_per_image, far above any detector's output per image (tests and
# the benchmark use at most 15), and on loc_noise_sigma in pixels, far beyond
# any image side.
_MAX_FP, _MAX_JITTER = 1000.0, 1e6
# NumPy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
# Images seeded per pass: bounds the temporary columns and Python ints (in one
# pass over 7,481 images they raised the peak RSS by about 7 MB).
_SEED_BATCH = 1024


def _floats(name: str, values, count: int) -> tuple[float, ...]:
    """``values`` as ``count`` floats; anything else raises ConfigError naming ``name``."""
    try:
        floats = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        floats = ()
    if len(floats) != count:
        raise ConfigError(f"{name} must be {count} numbers, got {values!r}")
    return floats


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
        if not isinstance(self.seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        knots = tuple(_floats("detect_prob knot", knot, 2) for knot in self.detect_prob)
        object.__setattr__(self, "detect_prob", knots)
        object.__setattr__(self, "fp_size_range", _floats("fp_size_range", self.fp_size_range, 2))
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
            raise ConfigError("loc_noise_sigma and score_sigma must be >= 0")
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


def _hash(value, const: list[int], mult: int):
    """SeedSequence's hash step on uint32 ``value`` (an int, or a uint64 column of uint32
    words): xor the hash constant ``const[0]``, advance it by ``mult``, multiply by it."""
    value = value ^ const[0]
    const[0] = const[0] * mult & _M32
    value = value * const[0] & _M32
    return value ^ value >> 16


def _seed_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """uint64 [n, 4]: ``SeedSequence([seed mod 2^64, key]).generate_state(4, np.uint64)``
    for each uint64 ``key``. NumPy's fixed hash runs on uint32 words held in uint64
    columns, one pass per entropy length (a key below 2^32 is one word)."""
    seed = int(seed) & (2**64 - 1)
    words = np.empty((len(keys), 8), np.uint64)
    for rows, key_words in ((keys <= _M32, 1), (keys > _M32, 2)):
        k = keys[rows]
        entropy = [seed & _M32, seed >> 32][: 1 + (seed > _M32)] + [k & _M32, k >> 32][:key_words]
        const = [_INIT_A]
        pool = [_hash(v, const, _MULT_A) for v in entropy + [0] * (4 - len(entropy))]
        for src, dst in permutations(range(4), 2):
            mixed = (_MIX_L * pool[dst] - _MIX_R * _hash(pool[src], const, _MULT_A)) & _M32
            pool[dst] = mixed ^ mixed >> 16
        const = [_INIT_B]
        for d in range(8):  # generate_state: 8 uint32 words, little-endian pairs per uint64
            words[rows, d] = _hash(pool[d % 4], const, _MULT_B)
    return words[:, 0::2] | words[:, 1::2] << 32


def _streams(seed: int, keys: np.ndarray):
    """Per key in turn, one Generator reloaded with ``SeedSequence([seed mod 2^64, key])``'s
    ``PCG64`` stream, as ``default_rng`` seeds it."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for start in range(0, len(keys), _SEED_BATCH):
        for w0, w1, w2, w3 in _seed_states(seed, keys[start : start + _SEED_BATCH]).tolist():
            # PCG64's seeding from the state words: state 0, step, add initstate, step.
            inc = ((w2 << 64 | w3) << 1 | 1) & _M128
            state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


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
    are in canonical order: image id, then ``Detection.sort_key``. A box whose
    width, height or area overflows the float range raises ConfigError.
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
    keys = np.frombuffer(b"".join(hashlib.sha256(i.encode("utf-8")).digest()[:8]
                                  for i in labels.image_ids), "<u8").astype(np.uint64)
    for rng, end in zip(_streams(profile.seed, keys), ends):
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
        raise ConfigError(f"simulated box {tuple(boxes[bad[0]].tolist())} has no finite extent; "
                          "lower loc_noise_sigma, fp_size_range or the image size")
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
