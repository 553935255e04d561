"""The result types are immutable records on ``words.Record``: one
instance of each, taken from ``realize`` on the genus-2 action and from
the searches, keeps what a frozen dataclass gave it."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import necsurf
from necsurf import (
    ActionDatum,
    CyclicGroup,
    DihedralGroup,
    NECSignature,
    Word,
    enumerate_smooth_epimorphisms,
    first_smooth_epimorphism,
    realize,
    shape_certificate,
)
from necsurf.presentations import Presentation, certify_frame
from necsurf.words import Record
from reference import abelianization, rebuilt_hom, replace

GENUS2 = ActionDatum(1, (2, 2, 2), 2, (1,), (2, 2, 2))


def _instances():
    cert = realize(GENUS2)
    sub = cert.derived.subgroup
    return [
        cert,
        first_smooth_epimorphism(1, (2, 2, 2), 4),
        cert.k_presentation,
        cert.k_presentation.signature,
        cert.k_presentation.generators[0][1],
        cert.theta,
        cert.theta.target,
        rebuilt_hom(cert.shape, GENUS2, cert.extension).target,
        cert.derived,
        sub,
        sub.frame,
        sub.frame.schreier,
        sub.generators[0],
        sub.generators[0].word,
        cert.lemma,
        shape_certificate(1, (2, 2, 2)),
        cert.extension,
        cert.eta,
        cert.derived.report,
        enumerate_smooth_epimorphisms(1, (2, 2, 2), 4),
        abelianization(cert.derived.presentation),
    ]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("necsurf."):
            yield sub
        yield from _record_classes(sub)


INSTANCES = _instances()
IDS = [type(obj).__name__ for obj in INSTANCES]


def _fields(obj):
    return list(inspect.signature(type(obj)).parameters)


def test_one_instance_of_each_record_class():
    assert sorted(IDS) == sorted(cls.__name__ for cls in _record_classes())
    assert len(IDS) == 21


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name in _fields(obj):
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.undeclared = 1


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
def test_equal_fields_mean_equal_records(obj):
    twin = replace(obj)
    assert twin is not obj and twin == obj and not twin != obj
    try:
        hash(tuple(getattr(obj, name) for name in _fields(obj)))
    except TypeError:  # a dict field, as a frozen dataclass had
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(twin) == hash(obj)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.deepcopy(obj) == obj


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
def test_the_same_values_in_another_class_differ(obj):
    other_class = type(f"Other{type(obj).__name__}", (type(obj),), {"__slots__": ()})
    other = other_class(**{name: getattr(obj, name) for name in _fields(obj)})
    assert other != obj and obj != other
    assert obj != tuple(getattr(obj, name) for name in _fields(obj))


def test_groups_of_one_modulus_differ():
    assert CyclicGroup(4) != DihedralGroup(4)
    assert CyclicGroup(4) == CyclicGroup(4) and hash(CyclicGroup(4)) == hash(CyclicGroup(4))


def test_words_are_set_members():
    letters = (("a", 1), ("b", -1))
    words = {Word(letters), Word(list(letters)), Word()}
    assert words == {Word(letters), Word(())}
    assert Word(letters) in words and Word((("a", 1),)) not in words


def test_derived_slots_stay_out_of_comparison():
    # K, built on its frame's shared tuples, is a plain presentation: it
    # equals, copies and pickles like one built from its fields
    cert = realize(GENUS2)
    K, theta = cert.k_presentation, cert.theta
    fresh = Presentation(K.generators, K.relators, signature=K.signature)
    assert K == fresh and hash(K) == hash(fresh) and repr(K) == repr(fresh)
    for twin in (copy.copy(K), copy.deepcopy(K), pickle.loads(pickle.dumps(K))):
        assert twin == fresh and hash(twin) == hash(fresh)
    assert pickle.dumps(K) == pickle.dumps(fresh)
    assert replace(theta) == theta and "_by_name" not in repr(theta)


def test_a_rebuilt_subgroup_keeps_its_frame_certificate():
    # the frame's certificates are the fields of one record, which the
    # derived subgroup keeps: a replaced, deep-copied or unpickled
    # subgroup keeps an equal record, with every field, the printed rows
    # of an even gamma included
    sub = shape_certificate(2, (3,)).derived.subgroup
    frame = sub.frame
    assert frame is certify_frame(2, 1)
    assert None not in [getattr(frame, name) for name in frame._fields]
    assert len(frame._fields) == 11
    for twin in (replace(sub), copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
        assert twin == sub and twin.frame == frame
    assert replace(sub).frame is frame


def test_repr_is_the_dataclass_text():
    assert repr(Word((("a", 1), ("b", -1)))) == "Word(letters=(('a', 1), ('b', -1)))"
    assert repr(NECSignature(False, 2, [3], [])) == (
        "NECSignature(orientable=False, genus=2, proper_periods=(3,), period_cycles=())"
    )
    assert repr(CyclicGroup(2)) == "CyclicGroup(modulus=2)"
    assert repr(necsurf.GLIDE) == "GeneratorKind(kind='glide', order=None)"


COLD_IMPORT = """
import sys
import argparse, json, fractions, functools, itertools, collections.abc, math
baseline = set(sys.modules)
import necsurf, necsurf.cli
print(" ".join(sorted(baseline & {"dataclasses", "inspect", "typing"})))
print(" ".join(sorted(set(sys.modules) - baseline)))
"""


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # without site, the stdlib that necsurf needs anyway loads none of the
    # three, so none of them may come with necsurf
    env = {**os.environ, "PYTHONPATH": str(Path(necsurf.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT], env=env,
                          capture_output=True, text=True, check=True)
    preloaded, added = done.stdout.split("\n")[:2]
    assert preloaded == ""
    assert {"necsurf", "necsurf.cli"} <= set(added.split())
    assert not set(added.split()) & {"dataclasses", "inspect", "typing"}
