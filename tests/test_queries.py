"""Query model: validation, zero detection, canonical alignment, rewrites."""
import json

import pytest

from haarmoments.queries import (CanonicalMoment, MomentQuery, alignments,
                                 canonicalize, orient, relabel, transpose)


def test_canonicalize_validates_lengths():
    with pytest.raises(ValueError, match="equal lengths"):
        canonicalize(MomentQuery.make(2, (1,), (1, 2), (1,), (1,)))


def test_canonicalize_validates_range():
    with pytest.raises(ValueError, match=r"outside 1\.\.2"):
        canonicalize(MomentQuery.make(2, (1, 3), (1, 2), (1, 3), (1, 2)))


def test_json_round_trip():
    q = MomentQuery.make(3, (1, 2), (1, 2), (2, 1), (2, 1))
    q2 = MomentQuery.from_json_obj(json.loads(q.to_json()))
    assert q2 == q


def test_from_json_obj_defaults_and_refusals():
    q = MomentQuery.from_json_obj({"I": [1, 3], "J": [2, 1],
                                   "K": [3, 1], "L": [1, 2]})
    assert q == MomentQuery.make(3, (1, 3), (2, 1), (3, 1), (1, 2))
    assert MomentQuery.from_json_obj({}) == MomentQuery.make(1, (), (), (), ())
    for bad in ([1, 2], "q", None, {"I": 5}, {"J": [1, "2"]}, {"K": [1.0]},
                {"L": [False]}, {"n": [2]}, {"n": float("inf")}, {"n": 2.9},
                {"n": True}, {"n": "3"}):
        with pytest.raises(ValueError):
            MomentQuery.from_json_obj(bad)


def test_zero_when_multisets_differ():
    # K not a permutation of I
    m = canonicalize(MomentQuery.make(2, (1,), (1,), (2,), (1,)))
    assert m.zero
    # degree mismatch between conjugated and plain factors
    m = canonicalize(MomentQuery.make(2, (1,), (1,), (1, 1), (1, 1)))
    assert m.zero
    # column multisets differ
    m = canonicalize(MomentQuery.make(3, (1, 2), (1, 2), (1, 2), (1, 3)))
    assert m.zero


def test_canonical_alignment_simple():
    q = MomentQuery.make(3, (1,), (2,), (1,), (2,))
    m = canonicalize(q)
    assert not m.zero
    assert m.p == 1 and m.I == (1,) and m.J == (2,) and m.Q == (0,)


def test_canonical_q_aligns_columns():
    # <(1,2),(1,2)|(1,2),(2,1)>: plain pair a=0 is (1,2)->cols L=(2,1)
    q = MomentQuery.make(2, (1, 2), (1, 2), (1, 2), (2, 1))
    m = canonicalize(q)
    assert not m.zero
    assert m.Q == (1, 0)


def test_alignments_enumerates_all_valid_pairs():
    q = MomentQuery.make(2, (1, 1), (1, 2), (1, 1), (2, 1))
    pairs = list(alignments(q))
    assert len(pairs) == 2  # two valid R, one Q each
    for R, Q in pairs:
        assert sorted(R) == [0, 1] and sorted(Q) == [0, 1]
        for a in range(2):
            assert q.I[R[a]] == q.K[a]


def test_relabel_first_appearance_order():
    m = canonicalize(MomentQuery.make(4, (3, 3, 2), (4, 1, 1),
                                      (3, 3, 2), (4, 1, 1)))
    r = relabel(m)
    assert r.I == (1, 1, 2)
    assert r.J == (1, 2, 2)


def test_transpose_inverts_q():
    q = MomentQuery.make(3, (1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 3, 1))
    m = canonicalize(q)
    t = transpose(m)
    assert t.I == m.J and t.J == m.I
    # Q inverted: composing gives the identity
    from haarmoments.partitions import compose, identity
    assert compose(m.Q, t.Q) == identity(3)


def test_orient_moves_larger_stabilizer_first():
    # I has trivial stabilizer, J fully repeated: orientation should flip
    q = MomentQuery.make(3, (1, 2, 3), (1, 1, 1), (1, 2, 3), (1, 1, 1))
    m = orient(relabel(canonicalize(q)))
    from haarmoments.stabilizer import stabilizer
    assert stabilizer(m.I).order >= stabilizer(m.J).order
    assert m.I == (1, 1, 1)


def test_zero_marker_is_stable_under_rewrites():
    m = canonicalize(MomentQuery.make(2, (1,), (1,), (2,), (1,)))
    assert relabel(m).zero and transpose(m).zero
