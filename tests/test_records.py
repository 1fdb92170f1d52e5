"""The slotted records (``Box``, ``Detection``, ``Annotation``) against frozen
dataclass copies of themselves.

The copies below are the records as frozen dataclasses, checks included. A
record must construct, fail, compare, hash, print and pickle as its copy
does, and stay frozen without a ``__dict__``. The copies share the records'
class names, because a dataclass prints ``__qualname__``.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers
import pickle
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaledet import datasets, evaluation, geometry
from scaledet.datasets import DONTCARE_CLASS
from scaledet.errors import InvalidBoxError


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = coords = (self.x1, self.y1, self.x2, self.y2)
        if (type(x1) is type(y1) is type(x2) is type(y2) is float and x2 > x1 and y2 > y1
                and math.isfinite((x2 - x1) * (y2 - y1))):
            return
        for c in coords:
            if not (isinstance(c, numbers.Real) and math.isfinite(c)):
                raise InvalidBoxError(f"box coordinates must be finite numbers, got {coords}")
        # A numpy scalar is kept, and checked, as the Python number it holds.
        for name, c in zip(("x1", "y1", "x2", "y2"), coords):
            if isinstance(c, (np.integer, np.floating)):
                object.__setattr__(self, name, float(c) if isinstance(c, np.floating) else int(c))
        x1, y1, x2, y2 = (self.x1, self.y1, self.x2, self.y2)
        if x2 <= x1 or y2 <= y1:
            raise InvalidBoxError(f"degenerate box: need x2 > x1 and y2 > y1, got {coords}")
        if not math.isfinite((x2 - x1) * (y2 - y1)):
            raise InvalidBoxError(f"box extent must be finite, got {coords}")


@dataclass(frozen=True)
class Detection:
    image_id: str
    class_name: str
    box: Box
    score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")

    def sort_key(self):
        b = self.box
        return (-self.score, self.image_id, b.x1, b.y1, b.x2, b.y2, self.class_name)


@dataclass(frozen=True)
class Annotation:
    class_name: str
    box: Box
    source_image: str = ""

    def __post_init__(self) -> None:
        if not self.class_name:
            raise ValueError("class_name must be non-empty")


class SubBox(geometry.Box):
    pass


class ReferenceSubBox(Box):
    pass


# Corner values that reach every branch of the checks: exact floats, ints and
# bools, NaN and the infinities, ints past the float range, magnitudes whose
# width or area overflows, and numpy scalars, whose own arithmetic would wrap
# (int64) or overflow (float32) where Python's does not.
EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e154, 1e200, 1.7e308, -1.7e308, math.nan, math.inf,
         -math.inf, True, False, 0, 1, 2**53 + 1, 10**400, np.float32(3e38), np.float32(-3e38),
         np.float32(math.nan), np.int64(2**62), np.int64(-2**62), np.float64(1.5), np.bool_(True)]
corners = st.one_of(st.sampled_from(EDGES), st.floats(-1e3, 1e3), st.integers(-1000, 1000),
                    st.builds(np.float32, st.floats(-1e3, 1e3, width=32)),
                    st.builds(np.int64, st.integers(-1000, 1000)))
valid_corners = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.5, 1e3),
                          st.floats(0.5, 1e3)).map(lambda c: (c[0], c[1], c[0] + c[2], c[1] + c[3]))
scores = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 5),
                   st.booleans(), st.sampled_from([10**400]))
names = st.sampled_from(["", "Car", DONTCARE_CLASS, "a,b", "000001"])


def outcome(make, *args, **kwargs):
    """The record ``make`` builds, or the type and message of what it raises."""
    try:
        return make(*args, **kwargs)
    except Exception as exc:  # the oracle compares every error with the copy's
        return type(exc), str(exc)


def frozen_errors(obj, name) -> list[str]:
    """The messages of assigning and of deleting ``obj.name``, each a FrozenInstanceError."""
    messages = []
    for change in (lambda: setattr(obj, name, 1), lambda: delattr(obj, name)):
        with pytest.raises(FrozenInstanceError) as info:
            change()
        messages.append(str(info.value))
    return messages


def same(record, reference) -> None:
    """``record`` and its dataclass copy's ``reference`` behave alike."""
    if isinstance(reference, tuple):
        assert record == reference  # the same error type and message
        return
    assert type(record).__name__ == type(reference).__name__
    assert repr(record) == repr(reference)
    assert hash(record) == hash(reference)
    assert type(record).__match_args__ == type(reference).__match_args__
    if isinstance(record, evaluation.Detection):
        assert record.sort_key() == reference.sort_key()
    assert not hasattr(record, "__dict__")
    for name in type(reference).__match_args__ + ("other",):
        assert frozen_errors(record, name) == frozen_errors(reference, name)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
        assert hash(twin) == hash(record)


def make_box(corners, reference=False):
    return outcome(Box if reference else geometry.Box, *corners)


class TestBoxOracle:
    @given(st.tuples(corners, corners, corners, corners))
    @settings(max_examples=400, deadline=None)
    def test_construction_and_behaviour(self, coords):
        same(make_box(coords), make_box(coords, reference=True))

    @given(valid_corners)
    @settings(max_examples=100, deadline=None)
    def test_keywords(self, coords):
        kwargs = dict(zip("x1 y1 x2 y2".split(), coords))
        same(geometry.Box(**kwargs), Box(**kwargs))

    @given(st.tuples(corners, corners, corners, corners), st.tuples(corners, corners, corners,
                                                                    corners))
    @settings(max_examples=200, deadline=None)
    def test_equality(self, a, b):
        # Ints equal floats; boxes of different classes, a subclass included, never do.
        pairs = [(make_box(a), make_box(b)), (make_box(a, True), make_box(b, True))]
        if not any(isinstance(x, tuple) for pair in pairs for x in pair):
            assert (pairs[0][0] == pairs[0][1]) == (pairs[1][0] == pairs[1][1])
            assert (pairs[0][0] != pairs[0][1]) == (pairs[1][0] != pairs[1][1])
            assert pairs[0][0] != pairs[1][0] and pairs[0][0] != tuple(a)
            assert pairs[0][0] != SubBox(*a) and pairs[1][0] != ReferenceSubBox(*a)


class TestNumpyCorners:
    @pytest.mark.parametrize("scalar, kind", [(np.float32, float), (np.int64, int),
                                              (np.float64, float), (np.longdouble, float)])
    def test_numpy_scalars_are_real_numbers(self, scalar, kind):
        box = geometry.Box(*map(scalar, (1, 2, 3, 4)))
        assert box == geometry.Box(1.0, 2.0, 3.0, 4.0)
        assert [type(c) for c in dataclasses.astuple(box)] == [kind] * 4
        assert repr(box) == repr(geometry.Box(*map(kind, (1, 2, 3, 4))))

    def test_numpy_arithmetic_does_not_decide(self):
        # int64 widths that wrap, and float32 extents that overflow, are fine as Python numbers.
        wide = geometry.Box(np.int64(-2**62), np.int64(0), np.int64(2**62), np.int64(1))
        assert wide.width == 2**63 and wide.area == 2**63
        assert geometry.Box(*map(np.float32, (-3e38, 0, 3e38, 1))).width > 6e38
        with pytest.raises(InvalidBoxError, match="degenerate box"):
            geometry.Box(*map(np.int64, (0, 0, 0, 1)))
        with pytest.raises(InvalidBoxError, match="finite numbers"):
            geometry.Box(np.float32(math.inf), 0, 1, 1)


class TestDetectionOracle:
    @given(valid_corners, names, names, scores)
    @settings(max_examples=300, deadline=None)
    def test_construction_and_behaviour(self, coords, image_id, class_name, score):
        same(outcome(evaluation.Detection, image_id, class_name, geometry.Box(*coords), score),
             outcome(Detection, image_id, class_name, Box(*coords), score))

    @given(valid_corners, names, scores)
    @settings(max_examples=100, deadline=None)
    def test_keywords_and_equality(self, coords, image_id, score):
        def kwargs(box_type):
            return dict(image_id=image_id, class_name="Car", box=box_type(*coords), score=score)

        got, want = outcome(evaluation.Detection, **kwargs(geometry.Box)), outcome(
            Detection, **kwargs(Box))
        same(got, want)
        if not isinstance(want, tuple):
            twin = evaluation.Detection(image_id, "Car", geometry.Box(*coords), score)
            assert got == twin and hash(got) == hash(twin)
            assert got != evaluation.Detection(image_id, "Van", geometry.Box(*coords), score)


class TestAnnotationOracle:
    @given(valid_corners, names, st.one_of(st.none(), names))
    @settings(max_examples=200, deadline=None)
    def test_construction_and_behaviour(self, coords, class_name, source):
        # None stands for the default source_image.
        extra = {} if source is None else {"source_image": source}
        got = outcome(datasets.Annotation, class_name, geometry.Box(*coords), **extra)
        same(got, outcome(Annotation, class_name, Box(*coords), **extra))
        if not isinstance(got, tuple):
            assert got.source_image == ("" if source is None else source)
            assert got.is_dontcare == (class_name == DONTCARE_CLASS)
            assert got == datasets.Annotation(class_name=class_name, box=geometry.Box(*coords),
                                              **extra)


class TestFieldChecks:
    def test_box_must_be_a_box(self):
        for bad in (None, (0.0, 0.0, 1.0, 1.0), Box(0.0, 0.0, 1.0, 1.0)):
            with pytest.raises(TypeError, match="detection box must be a Box"):
                evaluation.Detection("a", "Car", bad, 0.5)
            with pytest.raises(TypeError, match="annotation box must be a Box"):
                datasets.Annotation("Car", bad)

    def test_score_must_be_a_number(self):
        box = geometry.Box(0.0, 0.0, 1.0, 1.0)
        for bad in ("0.5", None, [0.5]):
            with pytest.raises(TypeError, match=r"detection score must be a real number, got "):
                evaluation.Detection("a", "Car", box, bad)

    @pytest.mark.parametrize("make, field", [
        (lambda bad: evaluation.Detection(bad, "Car", geometry.Box(0.0, 0.0, 1.0, 1.0), 0.5),
         "detection image_id"),
        (lambda bad: evaluation.Detection("a", bad, geometry.Box(0.0, 0.0, 1.0, 1.0), 0.5),
         "detection class_name"),
        (lambda bad: datasets.Annotation(bad, geometry.Box(0.0, 0.0, 1.0, 1.0)),
         "annotation class_name"),
        (lambda bad: datasets.Annotation("Car", geometry.Box(0.0, 0.0, 1.0, 1.0), bad),
         "annotation source_image"),
    ], ids=["det-image_id", "det-class_name", "ann-class_name", "ann-source_image"])
    def test_names_must_be_str(self, make, field):
        for bad in (None, 7, b"a"):
            with pytest.raises(TypeError, match=f"^{field} must be a str, got {bad!r}$"):
                make(bad)
        make("0")  # a non-empty str is accepted


def sample_records():
    box = geometry.Box(1.0, 2.0, 3.5, 4.0)
    return [box, evaluation.Detection("a", "Car", box, 0.5),
            datasets.Annotation("Car", box, "000001")]


class TestDataclassApi:
    @pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
    def test_records_are_dataclasses(self, record):
        assert dataclasses.is_dataclass(record) and not hasattr(record, "__dict__")
        names = tuple(f.name for f in dataclasses.fields(record))
        assert names == type(record).__match_args__
        assert dataclasses.replace(record) == record
        assert type(dataclasses.replace(record)) is type(record)

    def test_asdict_nests_the_box(self):
        box, det, ann = sample_records()
        corners = {"x1": 1.0, "y1": 2.0, "x2": 3.5, "y2": 4.0}
        assert dataclasses.asdict(box) == corners
        assert dataclasses.asdict(det) == {"image_id": "a", "class_name": "Car", "box": corners,
                                           "score": 0.5}
        assert dataclasses.asdict(ann) == {"class_name": "Car", "box": corners,
                                           "source_image": "000001"}

    def test_replace_reruns_the_checks(self):
        box, det, ann = sample_records()
        assert dataclasses.replace(box, x2=9.0) == geometry.Box(1.0, 2.0, 9.0, 4.0)
        assert dataclasses.replace(det, score=0.25).score == 0.25
        with pytest.raises(InvalidBoxError, match="degenerate box"):
            dataclasses.replace(box, x2=box.x1)
        with pytest.raises(ValueError, match="detection score must be finite"):
            dataclasses.replace(det, score=math.nan)
        with pytest.raises(TypeError, match="detection image_id must be a str"):
            dataclasses.replace(det, image_id=None)
        with pytest.raises(ValueError, match="class_name must be non-empty"):
            dataclasses.replace(ann, class_name="")

    def test_building_never_calls_setattr(self, monkeypatch):
        # Records fill their slots through the descriptors, not through assignment.
        calls = []
        monkeypatch.setattr(geometry.Record, "__setattr__",
                            lambda self, name, value: calls.append(name))
        records = sample_records() + [geometry.Box(0, 0, 1, 1)]  # ints take the full checks
        records += [dataclasses.replace(r) for r in records]
        records += [copy.copy(r) for r in records] + pickle.loads(pickle.dumps(records))
        assert calls == []
