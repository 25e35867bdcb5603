"""The record types are immutable named tuples.

Each record is a `typing.NamedTuple`, so it equals, hashes, unpacks and
sorts like the tuple of its fields.  What a frozen record promised before
still holds: a field cannot be assigned, no new attribute can be set, and
equal records hash equal.  `GenericArrangement` keeps an instance
`__dict__` for its cached `minors` and closes it with `__setattr__`.
"""

from fractions import Fraction

import pytest

import discarr.arrangement as arrangement
from discarr.acceptance import CheckResult
from discarr.arrangement import GenericArrangement
from discarr.braid import BraidWord
from discarr.discriminantal import DiscForm, StratumRecord
from discarr.linalg import QMatrix
from discarr.monodromy import (
    Presentation,
    RelationFamilies,
    SectionLine,
    SectionPlane,
    SingularPoint,
)

RECORDS = [
    GenericArrangement(3, 2, [[1, 0], [0, 1], [1, 1]]),
    BraidWord(3, (1, -2)),
    DiscForm((1, 2, 3), (1, -1, 1)),
    StratumRecord(((1, 2, 3), (1, 2, 4)), "SIMPLE"),
    QMatrix.from_rows([[1, 2], [3, 4]]),
    SectionPlane((1, 2), (3, 4), (5, 6)),
    SectionLine((1, 2, 3), 1, -2, 3),
    SingularPoint(Fraction(1, 2), Fraction(-3), (1, 2)),
    Presentation(2, ((1, 2, -1, -2),)),
    RelationFamilies((), (), ()),
    CheckResult("check", True, 0.5, 10.0, "detail"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_records_hash_equal(record):
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record == tuple(record)
    assert hash(copy) == hash(record) == hash(tuple(record))


def test_minors_are_computed_once(monkeypatch):
    calls = []
    real = arrangement._bareiss_det
    monkeypatch.setattr(
        arrangement, "_bareiss_det", lambda rows: calls.append(rows) or real(rows)
    )
    arr = GenericArrangement(4, 2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    first = arr.minors
    assert len(calls) == 6
    assert arr.minors is first
    assert len(calls) == 6
    with pytest.raises(AttributeError):
        del arr.minors
    assert arr.minors is first


def test_replace_runs_the_constructor_checks():
    arr = GenericArrangement(2, 1, [[1], [2]])
    assert arr._replace(normals=[[3], [4]]).normals == ((3,), (4,))
    with pytest.raises(ValueError, match="n x k"):
        arr._replace(n=3)
    # BraidWord has no constructor checks: its range is checked per half
    # twist in braid_monodromy, and braids_equal checks letters it is handed
    assert BraidWord(3, (1, 2))._replace(strands=2) == (2, (1, 2))
