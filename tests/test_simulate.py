import dataclasses
import hashlib
import math
import sys
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import synthetic_vehicle_dataset
from scaledet.cli import _read_profile as parse_profile
from scaledet.datasets import Annotation, ImageAnnotations, as_label_table
from scaledet.errors import ConfigError
from scaledet.evaluation import (
    IGNORED,
    TP,
    Detection,
    evaluate_detections,
    match_detections,
    scale_bucketed_ap,
)
from scaledet.geometry import Box
from scaledet.simulate import DetectorProfile, _seed_states, _streams, simulate, simulate_table

PERFECT = DetectorProfile(detect_prob=((0.0, 1.0),), loc_noise_sigma=0.0, fp_per_image=0.0)
BLIND = DetectorProfile(
    detect_prob=((0.0, 0.0),), loc_noise_sigma=0.0, fp_per_image=3.0, seed=5
)
# 0 below ~128 px width, 1 above; knots tight around the step.
STEP = DetectorProfile(
    detect_prob=((127.9, 0.0), (128.0, 1.0)), loc_noise_sigma=0.0, fp_per_image=0.0
)


def bimodal_dataset(seed):
    """Half the objects well under 128 px wide, half well over."""

    def sampler(rng):
        return rng.uniform(30, 100) if rng.random() < 0.5 else rng.uniform(160, 400)

    return synthetic_vehicle_dataset(seed=seed, n_images=30, width_sampler=sampler)


class TestProfileParsing:
    def test_full_profile(self):
        text = (
            "detect_prob=16:0.0,48:0.6,128:0.95,512:1.0\n"
            "loc_noise_sigma=1.5\n"
            "score_mean_tp=0.8\n"
            "score_mean_fp=0.3\n"
            "score_sigma=0.08\n"
            "fp_per_image=2.0\n"
            "fp_size_range=20,120\n"
            "seed=42\n"
        )
        profile = parse_profile(text)
        assert profile.seed == 42
        assert profile.detect_prob[0] == (16.0, 0.0)
        assert profile.prob_at(48.0) == pytest.approx(0.6)
        assert profile.prob_at(88.0) == pytest.approx((0.6 + 0.95) / 2)
        assert profile.prob_at(4.0) == 0.0  # clamped below the first knot
        assert profile.prob_at(9000.0) == 1.0

    def test_comments_and_defaults(self):
        profile = parse_profile("# all defaults\nseed=7\n")
        assert profile.seed == 7
        assert profile.prob_at(50.0) == 1.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_profile("detect_probability=0:1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_profile("fp_per_image=lots\n")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"detect_prob": ()},
            {"detect_prob": ((10.0, 0.5), (10.0, 0.7))},
            {"detect_prob": ((0.0, 1.5),)},
            {"loc_noise_sigma": -1.0},
            {"fp_per_image": -0.5},
            {"fp_size_range": (0.0, 10.0)},
            {"fp_size_range": (50.0, 10.0)},
            {"score_mean_tp": 0.3, "score_mean_fp": 0.5},
            {"seed": 1.5},
            {"seed": "7"},
            {"fp_size_range": (1.0, 2.0, 3.0)},
            {"fp_size_range": (5.0,)},
            {"detect_prob": ((16.0, 0.5, 1.0),)},
            {"detect_prob": ((16.0, "x"),)},
        ],
    )
    def test_invalid_profiles(self, kwargs):
        with pytest.raises(ConfigError, match="|".join(kwargs)):
            DetectorProfile(**kwargs)


class TestSimulate:
    def test_perfect_detector_reproduces_gt(self, vehicle_dataset):
        dets = simulate(vehicle_dataset, PERFECT)
        gt_boxes = sorted(
            (i.image_id, *dataclasses.astuple(a.box))
            for i in vehicle_dataset for a in i.annotations
        )
        det_boxes = sorted((d.image_id, *dataclasses.astuple(d.box)) for d in dets)
        assert det_boxes == gt_boxes
        gts = [a for i in vehicle_dataset for a in i.annotations]
        assert evaluate_detections(dets, gts, class_name="Car").ap == 1.0

    def test_blind_detector_only_false_positives(self, vehicle_dataset):
        dets = simulate(vehicle_dataset, BLIND)
        assert dets  # Poisson(3) over 40 images fires
        gts = [a for i in vehicle_dataset for a in i.annotations]
        flags = [label == TP for _, label in match_detections(dets, gts, 0.5) if label != IGNORED]
        assert not any(flags)
        assert evaluate_detections(dets, gts, class_name="Car").ap == 0.0

    def test_determinism_byte_identical(self, vehicle_dataset):
        profile = DetectorProfile(
            detect_prob=((0.0, 0.7),), loc_noise_sigma=2.0, fp_per_image=1.5, seed=123
        )
        a = simulate(vehicle_dataset, profile)
        b = simulate(vehicle_dataset, profile)
        assert a == b
        c = simulate(vehicle_dataset, dataclasses.replace(profile, seed=124))
        assert a != c

    def test_order_independence_via_substreams(self, vehicle_dataset):
        profile = DetectorProfile(detect_prob=((0.0, 0.6),), loc_noise_sigma=1.0, seed=9)
        forward = simulate(vehicle_dataset, profile)
        backward = simulate(list(reversed(vehicle_dataset)), profile)
        assert forward == backward

    def test_scores_in_unit_interval(self, vehicle_dataset):
        profile = DetectorProfile(
            detect_prob=((0.0, 1.0),), score_mean_tp=0.95, score_mean_fp=0.1,
            score_sigma=0.5, fp_per_image=2.0, seed=2,
        )
        for d in simulate(vehicle_dataset, profile):
            assert 0.0 <= d.score <= 1.0

    def test_dontcare_never_detected(self):
        ann = Annotation(class_name="DontCare", box=Box(0, 0, 50, 50), source_image="i")
        car = Annotation(class_name="Car", box=Box(60, 0, 120, 40), source_image="i")
        dataset = [ImageAnnotations("i", 200.0, 100.0, (ann, car))]
        dets = simulate(dataset, PERFECT)
        assert len(dets) == 1
        assert dets[0].box == car.box

    @pytest.mark.parametrize("width", [0.0, -10.0, math.inf, math.nan])
    def test_image_size_not_positive_and_finite_rejected(self, width):
        car = Annotation(class_name="Car", box=Box(0, 0, 30, 30), source_image="a")
        dataset = [ImageAnnotations("a", width, 50.0, (car,))]
        with pytest.raises(ConfigError) as excinfo:
            simulate(dataset, dataclasses.replace(BLIND, fp_per_image=20.0))
        assert str(excinfo.value) == f"image 'a': size ({width}, 50.0) must be positive and finite"

    def test_fp_boxes_stay_inside_image(self, vehicle_dataset):
        dets = simulate(vehicle_dataset, BLIND)
        for d in dets:
            assert 0 <= d.box.x1 < d.box.x2 <= 1392
            assert 0 <= d.box.y1 < d.box.y2 <= 512

    def test_step_profile_bucketed_ap(self):
        dataset = bimodal_dataset(seed=77)
        dets = simulate(dataset, STEP)
        gts = [a for i in dataset for a in i.annotations]
        small, large = scale_bucketed_ap(dets, gts, (0, 128, math.inf), 0.5)
        assert small.total_gt > 20 and large.total_gt > 20
        assert small.ap == 0.0
        assert large.ap == 1.0

    def test_detection_rate_matches_binomial_expectation(self):
        # detect_prob 0.7 everywhere, no FPs: over 30 seeds the pooled hit
        # rate estimates 0.7 with sigma sqrt(p(1-p)/N); allow 4 sigma.
        dataset = synthetic_vehicle_dataset(seed=50, n_images=10)
        total_gt = sum(len(i.annotations) for i in dataset)
        profile = DetectorProfile(detect_prob=((0.0, 0.7),), fp_per_image=0.0)
        hits = 0
        for seed in range(30):
            hits += len(simulate(dataset, dataclasses.replace(profile, seed=seed)))
        n = 30 * total_gt
        rate = hits / n
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(rate - 0.7) < 4 * sigma

    def test_higher_detect_prob_raises_recall_sign_test(self):
        # One-sided sign test over 30 paired seeds at alpha = 1e-3.
        dataset = synthetic_vehicle_dataset(seed=60, n_images=8)
        gts = [a for i in dataset for a in i.annotations]
        low = DetectorProfile(detect_prob=((0.0, 0.35),), fp_per_image=0.0)
        high = DetectorProfile(detect_prob=((0.0, 0.85),), fp_per_image=0.0)
        wins = losses = 0
        for seed in range(30):
            recalls = []
            for profile in (low, high):
                dets = simulate(dataset, dataclasses.replace(profile, seed=seed))
                matches = match_detections(dets, gts, 0.5)
                flags = [label == TP for _, label in matches if label != IGNORED]
                recalls.append(sum(flags) / len(gts))
            if recalls[1] > recalls[0]:
                wins += 1
            elif recalls[1] < recalls[0]:
                losses += 1
        n = wins + losses
        p_value = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n
        assert p_value < 1e-3, (wins, losses)


def truncated_score_oracle(rng, mean, sigma):
    if sigma == 0.0:
        return min(max(mean, 0.0), 1.0)
    dist = NormalDist(mean, sigma)
    lo, hi = dist.cdf(0.0), dist.cdf(1.0)
    if hi - lo < 1e-12:
        return min(max(mean, 0.0), 1.0)
    return dist.inv_cdf(lo + rng.random() * (hi - lo))


def above(near, far):
    """``far``, or the next float above ``near`` where ``far`` is not above it."""
    return max(far, math.nextafter(near, math.inf))


def image_key(image_id):
    return int.from_bytes(hashlib.sha256(image_id.encode("utf-8")).digest()[:8], "little")


def key_rng(seed, key):
    """A stream seeded on its own: what ``simulate_table`` derives for many images per pass."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), key]))


def _image_rng(seed, image_id):
    return key_rng(seed, image_key(image_id))


def simulate_oracle(dataset, profile):
    """The per-box loop that ``simulate`` replaces: one image, one box and one draw at a time."""
    counts = Counter(a.class_name for image in dataset for a in image.annotations
                     if not a.is_dontcare)
    fp_class = min(counts, key=lambda name: (-counts[name], name)) if counts else "object"
    detections = []
    for image in dataset:
        rng = _image_rng(profile.seed, image.image_id)
        for ann in image.annotations:
            if ann.is_dontcare or rng.random() >= profile.prob_at(ann.box.width):
                continue
            box = ann.box
            if profile.loc_noise_sigma > 0:
                noise = rng.normal(0.0, profile.loc_noise_sigma, 4)
                x1, y1 = box.x1 + noise[0], box.y1 + noise[1]
                box = Box(x1, y1, above(x1, max(box.x2 + noise[2], x1 + 0.25)),
                          above(y1, max(box.y2 + noise[3], y1 + 0.25)))
            score = truncated_score_oracle(rng, profile.score_mean_tp, profile.score_sigma)
            detections.append(Detection(image.image_id, ann.class_name, box, score))
        if profile.fp_per_image > 0:
            lo, hi = profile.fp_size_range
            for _ in range(int(rng.poisson(profile.fp_per_image))):
                w = min(lo + rng.random() * (hi - lo), image.image_w)
                h = min(lo + rng.random() * (hi - lo), image.image_h)
                x1 = rng.random() * max(image.image_w - w, 0.0)
                y1 = rng.random() * max(image.image_h - h, 0.0)
                score = truncated_score_oracle(rng, profile.score_mean_fp, profile.score_sigma)
                box = Box(x1, y1, above(x1, x1 + w), above(y1, y1 + h))
                detections.append(Detection(image.image_id, fp_class, box, score))
    detections.sort(key=lambda d: (d.image_id,) + d.sort_key())
    return detections


def bits(detections):
    """Each detection as strings, with every float in hex: equal means equal to the bit."""
    return [(d.image_id, d.class_name,
             *(float(v).hex() for v in (*dataclasses.astuple(d.box), d.score)))
            for d in detections]


@st.composite
def scenes(draw):
    """Images with unique ids in any order, DontCare rows, classes tied or not, and images
    with no counted box."""
    ids = draw(st.lists(st.text("abz019_", min_size=1, max_size=4), max_size=6, unique=True))
    images = []
    for image_id in ids:
        w, h = draw(st.sampled_from([(1392.0, 512.0), (100.0, 60.0), (640, 480)]))
        annotations = []
        for _ in range(draw(st.integers(0, 5))):
            x1, y1 = draw(st.floats(-50, 1400)), draw(st.floats(-50, 500))
            bw, bh = draw(st.floats(0.5, 600)), draw(st.floats(0.5, 300))
            cls = draw(st.sampled_from(["Car", "Car", "Van", "DontCare", "Pedestrian"]))
            annotations.append(Annotation(cls, Box(x1, y1, x1 + bw, y1 + bh), image_id))
        images.append(ImageAnnotations(image_id, w, h, tuple(annotations)))
    return images


@st.composite
def detector_profiles(draw):
    widths = sorted(set(draw(st.lists(st.floats(0, 700), min_size=1, max_size=4))))
    # Score means (tp, fp): both truncation windows wide; the tp window under
    # 1e-12 at sigma 0.08; both under it at 0.08; the fp window under it at 0.5.
    means = draw(st.sampled_from([(0.8, 0.3), (2.0, 0.3), (3.0, 2.0), (0.8, -5.0)]))
    return DetectorProfile(
        detect_prob=tuple((w, draw(st.floats(0, 1))) for w in widths),
        loc_noise_sigma=draw(st.sampled_from([0.0, 1.5, 40.0])),
        score_mean_tp=means[0], score_mean_fp=means[1],
        score_sigma=draw(st.sampled_from([0.0, 0.08, 0.5])),
        fp_per_image=draw(st.sampled_from([0.0, 0.7, 4.0])),
        fp_size_range=draw(st.sampled_from([(20.0, 120.0), (5.0, 3000.0)])),
        seed=draw(st.integers(-2**64 - 5, 2**64 + 5)),
    )


SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, -1, -2**40, 2**64, 2**64 + 2**32 + 7]
# Keys below 2^32 are one entropy word, the rest two.
RAW_KEYS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]


class TestSeeding:
    @given(seed=st.integers(-2**70, 2**70) | st.sampled_from(SEEDS),
           keys=st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1)
                         | st.sampled_from(RAW_KEYS), max_size=8),
           image_ids=st.lists(st.text(max_size=6), max_size=3))
    @settings(max_examples=200, deadline=None)
    @example(seed=0, keys=[], image_ids=[])
    @example(seed=0, keys=RAW_KEYS, image_ids=["000000"])
    @example(seed=2**32 - 1, keys=RAW_KEYS, image_ids=[])
    @example(seed=2**32, keys=RAW_KEYS, image_ids=[])
    @example(seed=2**64 - 1, keys=RAW_KEYS, image_ids=[])
    @example(seed=-3, keys=RAW_KEYS, image_ids=[])
    @example(seed=2**64 + 5, keys=RAW_KEYS, image_ids=[])
    def test_states_and_streams_equal_per_image_seed_sequence(self, seed, keys, image_ids):
        keys = keys + [image_key(i) for i in image_ids]
        array = np.array(keys, dtype=np.uint64)
        words = _seed_states(seed, array)
        assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
        assert words.tolist() == [
            np.random.SeedSequence([int(seed) & (2**64 - 1), key]).generate_state(4, np.uint64)
            .tolist() for key in keys]
        loaded = 0
        for rng, key in zip(_streams(seed, array), keys):
            loaded += 1  # each load reseeds the one Generator: draw before the next
            want = key_rng(seed, key)
            assert rng.random() == want.random()
            assert rng.normal(0.0, 2.5, 4).tolist() == want.normal(0.0, 2.5, 4).tolist()
            assert rng.poisson(3.0) == want.poisson(3.0)
        assert loaded == len(keys)


class TestOracle:
    @given(dataset=scenes(), profile=detector_profiles())
    @settings(max_examples=300, deadline=None)
    @example(dataset=[ImageAnnotations("b", 100.0, 60.0), ImageAnnotations("a", 100.0, 60.0, (
                 Annotation("DontCare", Box(0, 0, 50, 50), "a"),
                 Annotation("Van", Box(5, 5, 40, 30), "a")))],
             profile=DetectorProfile(loc_noise_sigma=1.5, score_mean_tp=2.0, fp_per_image=4.0,
                                     seed=3))
    @example(dataset=[ImageAnnotations("i", 100.0, 60.0, tuple(
                 Annotation("Car", Box(k, k, k + 0.5, k + 0.5), "i") for k in range(8)))],
             profile=DetectorProfile(loc_noise_sigma=40.0, seed=1))
    def test_equals_per_box_loop_bit_for_bit(self, dataset, profile):
        want = bits(simulate_oracle(dataset, profile))
        table = as_label_table(dataset)
        assert bits(simulate(dataset, profile)) == want
        assert bits(simulate(table, profile)) == want
        t = simulate_table(table, profile)
        assert bits(map(Detection, t.image_ids, t.classes, (Box(*b) for b in t.boxes.tolist()),
                        t.scores.tolist())) == want

    def test_equals_per_box_loop_at_scale(self):
        dataset = synthetic_vehicle_dataset(seed=8, n_images=300)[::-1]
        for profile in (DetectorProfile(detect_prob=((16.0, 0.5), (48.0, 0.9), (128.0, 1.0)),
                                        loc_noise_sigma=3.0, fp_per_image=15.0, seed=4),
                        DetectorProfile(detect_prob=((0.0, 0.7),), score_sigma=0.0,
                                        fp_per_image=2.0, seed=5)):
            assert bits(simulate(dataset, profile)) == bits(simulate_oracle(dataset, profile))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_seed_batches_carry_the_streams(self, monkeypatch, batch):
        # More images than a seeding pass takes: each pass picks up where the last ended.
        # The package's ``simulate`` function hides the module of that name.
        monkeypatch.setattr(sys.modules["scaledet.simulate"], "_SEED_BATCH", batch)
        dataset = synthetic_vehicle_dataset(seed=3, n_images=7)
        profile = DetectorProfile(detect_prob=((0.0, 0.7),), loc_noise_sigma=2.0,
                                  fp_per_image=2.0, seed=11)
        assert bits(simulate(dataset, profile)) == bits(simulate_oracle(dataset, profile))

    @given(knots=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0, 1)), min_size=1,
                          max_size=6, unique_by=lambda knot: knot[0]),
           widths=st.lists(st.floats(-1e7, 1e7) | st.sampled_from([0.0, 16.0, 1e300]),
                           max_size=20))
    def test_vector_prob_equals_prob_at_per_row(self, knots, widths):
        profile = DetectorProfile(detect_prob=sorted(knots))
        vector = profile.prob_at(np.array(widths, dtype=np.float64))
        assert [float(p).hex() for p in vector.tolist()] == [
            float(profile.prob_at(w)).hex() for w in widths]
