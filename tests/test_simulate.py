import dataclasses
import math

import pytest

from conftest import synthetic_vehicle_dataset
from scaledet.datasets import Annotation, ImageAnnotations
from scaledet.errors import ConfigError
from scaledet.evaluation import (
    IGNORED,
    TP,
    evaluate_detections,
    match_detections,
    scale_bucketed_ap,
)
from scaledet.geometry import Box
from scaledet.simulate import DetectorProfile, parse_profile, simulate

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
        ],
    )
    def test_invalid_profiles(self, kwargs):
        with pytest.raises(ConfigError):
            DetectorProfile(**kwargs)


class TestSimulate:
    def test_perfect_detector_reproduces_gt(self, vehicle_dataset):
        dets = simulate(vehicle_dataset, PERFECT)
        gt_boxes = sorted(
            (i.image_id,) + a.box.as_tuple() for i in vehicle_dataset for a in i.annotations
        )
        det_boxes = sorted((d.image_id,) + d.box.as_tuple() for d in dets)
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
