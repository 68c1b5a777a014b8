"""Query model: validation, zero detection, the normal form, rewrites."""
import copy
import json
import pickle
import time
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmoments import weingarten
from haarmoments.invariants import moment
from haarmoments.queries import (CanonicalMoment, MomentQuery, _first_fit,
                                 alignments, canonicalize)
from haarmoments.weingarten import PAIR_CAP


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
    not_object = "query must be a JSON object"
    not_int = "n must be an integer"
    for bad, message in (
            ([1, 2], not_object), ("q", not_object), (None, not_object),
            ({"I": 5}, "I must be a list of integers"),
            ({"I": (1, 2)}, "I must be a list of integers"),
            ({"J": [1, "2"]}, "J must be a list of integers"),
            ({"K": [1.0]}, "K must be a list of integers"),
            ({"L": [False]}, "L must be a list of integers"),
            ({"I": [[1]]}, "I must be a list of integers"),
            ({"L": [1, None]}, "L must be a list of integers"),
            # the lists are read before n, in the order I, J, K, L
            ({"n": "x", "K": [1.5], "J": ["x"]}, "J must be a list of integers"),
            ({"n": [2]}, not_int), ({"n": float("inf")}, not_int),
            ({"n": 2.9}, not_int), ({"n": 2.0}, not_int),
            ({"n": True}, not_int), ({"n": "3"}, not_int),
            ({"n": None}, not_int),
            # a given n below 1, also without factors
            ({"n": 0}, "n must be at least 1"),
            ({"n": -3, "I": [], "J": [], "K": [], "L": []},
             "n must be at least 1"),
            ({"n": -3, "I": [1], "J": [1], "K": [1], "L": [1]},
             "n must be at least 1")):
        with pytest.raises(ValueError) as refused:
            MomentQuery.from_json_obj(bad)
        assert str(refused.value) == message, bad


def test_from_json_obj_takes_int_subclasses_but_not_bools():
    class Index(int):
        pass

    q = MomentQuery.from_json_obj({"I": [1, Index(4)], "J": [Index(2), 1],
                                   "K": [Index(4), 1], "L": [1, 2]})
    assert q == MomentQuery.make(4, (1, 4), (2, 1), (4, 1), (1, 2))
    assert isinstance(q.I, tuple) and isinstance(q.L, tuple)
    with pytest.raises(ValueError, match="K must be a list of integers"):
        MomentQuery.from_json_obj({"K": [Index(1), True]})


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


def test_canonical_form_simple():
    # row 1 and column 2 are renamed 1: the form keeps no index names
    q = MomentQuery.make(3, (1,), (2,), (1,), (2,))
    m = canonicalize(q)
    assert not m.zero
    assert m.n == 3 and m.p == 1 and m.I == (1,) and m.J == (1,)
    assert m.L == (1,)


def test_canonical_q_aligns_columns():
    # <(1,2),(1,2)|(1,2),(2,1)>: plain pair a=0 is (1,2)->cols L=(2,1),
    # which J = (1, 2) takes in the order Q = (1, 0)
    q = MomentQuery.make(2, (1, 2), (1, 2), (1, 2), (2, 1))
    m = canonicalize(q)
    assert not m.zero
    assert m.L == (2, 1) and m.Q == (1, 0)


def test_alignments_enumerates_all_valid_pairs():
    q = MomentQuery.make(2, (1, 1), (1, 2), (1, 1), (2, 1))
    pairs = list(alignments(q))
    assert len(pairs) == 2  # two valid R, one Q each
    for R, Q in pairs:
        assert sorted(R) == [0, 1] and sorted(Q) == [0, 1]
        for a in range(2):
            assert q.I[R[a]] == q.K[a]


def test_normal_form_numbers_rows_then_columns_by_first_appearance():
    r = canonicalize(MomentQuery.make(4, (3, 3, 2), (4, 1, 1),
                                      (3, 3, 2), (4, 1, 1)))
    assert r.I == (1, 1, 2)
    assert r.J == (1, 2, 2)
    # rows 2, 1 become 1, 2; the columns are numbered in that row order
    # (5, 6 in row 1, then 7), and both pair lists come out sorted
    m = canonicalize(MomentQuery.make(7, (2, 1, 2), (5, 7, 6),
                                      (1, 2, 2), (6, 5, 7)))
    assert (m.n, m.p, m.I, m.J, m.L) == (7, 3, (1, 1, 2), (1, 2, 3),
                                         (1, 3, 2))


def test_normal_form_transposes_when_the_columns_repeat_more():
    # |S_J| = 2 > |S_I| = 1: the rows of the form are the query's columns,
    # and the plain pairs are transposed with the conjugated ones
    q = MomentQuery.make(3, (1, 2, 3), (1, 1, 2), (1, 2, 3), (1, 2, 1))
    m = canonicalize(q)
    assert (m.I, m.J, m.L) == ((1, 1, 2), (1, 2, 3), (1, 3, 2))
    transposed = MomentQuery.make(3, q.J, q.I, q.L, q.K)
    assert canonicalize(transposed) == m


def test_normal_form_puts_the_larger_stabilizer_first():
    # I has trivial stabilizer, J fully repeated: the form is transposed
    q = MomentQuery.make(3, (1, 2, 3), (1, 1, 1), (1, 2, 3), (1, 1, 1))
    m = canonicalize(q)
    assert m.I == (1, 1, 1) and m.J == (1, 2, 3)


def test_zero_marker_is_stable_under_rewrites():
    m = canonicalize(MomentQuery.make(2, (1,), (1,), (2,), (1,)))
    assert m.zero and (m.I, m.J, m.L) == ((), (), ())
    assert CanonicalMoment(m.n, m.p, m.I, m.J, m.L, m.zero) == m


def _order(values) -> int:
    return prod(factorial(c) for c in Counter(values).values())


@st.composite
def _presentations(draw):
    """A nonzero query of degree p <= 6 at n = p, and the same moment with
    its rows and its columns renamed injectively into 1..2p."""
    p = draw(st.integers(1, 6))
    labels = st.integers(1, draw(st.integers(1, p)))
    I = draw(st.lists(labels, min_size=p, max_size=p))
    J = draw(st.lists(labels, min_size=p, max_size=p))
    K, L = draw(st.permutations(I)), draw(st.permutations(J))
    rows = draw(st.permutations(range(1, 2 * p + 1)))
    cols = draw(st.permutations(range(1, 2 * p + 1)))
    q = MomentQuery.make(p, I, J, K, L)
    renamed = MomentQuery.make(2 * p, [rows[i - 1] for i in I],
                               [cols[j - 1] for j in J],
                               [rows[k - 1] for k in K],
                               [cols[l - 1] for l in L])
    return q, renamed


def _value(I, J, Q):
    """The moment <I,J | I,J_Q> as a rational function of n, from the class
    counts of the aligned triple as given: no normal form is taken."""
    return weingarten._fold_symbolic(
        weingarten._weights(weingarten.class_counts(I, J, Q)), len(I))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_presentations())
def test_normal_form_property(queries):
    q, renamed = queries
    form = canonicalize(q)
    assert _value(form.I, form.J, _first_fit(form.J, form.L)) == _value(
        q.I, q.J, _first_fit_alignment(q))
    again = canonicalize(renamed)
    assert (again.I, again.J, again.L) == (form.I, form.J, form.L)
    if _order(q.I) != _order(q.J):
        transposed = MomentQuery.make(q.n, q.J, q.I, q.L, q.K)
        assert canonicalize(transposed) == form
    if form.p <= 4:
        # the constructor gives the same form from every alignment, its
        # plain columns carried onto the rows I as L = J∘Q
        for _, Q in alignments(q):
            L = tuple(q.J[b] for b in Q)
            assert CanonicalMoment(q.n, form.p, q.I, q.J, L) == form


@st.composite
def _aligned_triples(draw):
    """An aligned triple (I, J, Q) of degree p <= 6 over the labels 1..2p,
    a normal form or not."""
    p = draw(st.integers(1, 6))
    labels = st.integers(1, draw(st.integers(1, 2 * p)))
    I = draw(st.lists(labels, min_size=p, max_size=p))
    J = draw(st.lists(labels, min_size=p, max_size=p))
    return tuple(I), tuple(J), tuple(draw(st.permutations(range(p))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_aligned_triples())
def test_every_canonical_moment_is_its_own_normal_form(triple):
    # the constructor and canonicalize build the same form, and building it
    # again from the form's own fields, or unpickling it, changes nothing
    I, J, Q = triple
    p = len(I)
    L = tuple(J[b] for b in Q)
    m = CanonicalMoment(2 * p, p, I, J, L)
    q = MomentQuery.make(2 * p, I, J, I, L)
    assert canonicalize(q) == m
    assert CanonicalMoment(m.n, m.p, m.I, m.J, m.L) == m
    assert pickle.loads(pickle.dumps(m)) == m
    assert set(m.I) == set(range(1, max(m.I) + 1))
    assert set(m.J) == set(range(1, max(m.J) + 1))
    conj, plain = list(zip(m.I, m.J)), list(zip(m.I, m.L))
    assert conj == sorted(conj) and plain == sorted(plain)
    assert _order(m.I) >= _order(m.J)


# ---------------------------------------------------------------------------
# canonicalize against the first-fit reference


def _first_fit_alignment(q: MomentQuery) -> tuple[int, ...]:
    """The Q of a nonzero query's first alignment, by two quadratic
    first-fit loops: R takes each plain row to the first free equal row of
    I, and Q each plain column, carried along R, to the first free equal
    column of J."""
    p = len(q.I)
    used = [False] * p
    R = []
    for a in range(p):
        for b in range(p):
            if not used[b] and q.I[b] == q.K[a]:
                R.append(b)
                used[b] = True
                break
    Rinv = [0] * p
    for a, b in enumerate(R):
        Rinv[b] = a
    aligned_L = tuple(q.L[Rinv[a]] for a in range(p))
    used = [False] * p
    Q = []
    for a in range(p):
        for b in range(p):
            if not used[b] and q.J[b] == aligned_L[a]:
                Q.append(b)
                used[b] = True
                break
    return tuple(Q)


def _first_fit_canonicalize(q: MomentQuery) -> CanonicalMoment:
    """Validate, test for zero and align in plain loops, and take the form
    by the constructor: the reference for ``canonicalize``, which builds
    the form from the pairs without an alignment."""
    if len(q.I) != len(q.J) or len(q.K) != len(q.L):
        raise ValueError("row and column lists must have equal lengths")
    for name, seq in (("I", q.I), ("J", q.J), ("K", q.K), ("L", q.L)):
        for v in seq:
            if not 1 <= v <= q.n:
                raise ValueError(f"{name} contains index {v} outside 1..{q.n}")
    p = len(q.I)
    if (len(q.K) != p or Counter(q.K) != Counter(q.I)
            or Counter(q.L) != Counter(q.J)):
        return CanonicalMoment(q.n, p, (), (), (), zero=True)
    L = tuple(q.J[b] for b in _first_fit_alignment(q))
    return CanonicalMoment(q.n, p, q.I, q.J, L)


@st.composite
def _raw_queries(draw):
    """Queries of degree <= 7 over n <= 4: aligned (K, L rearrangements of
    I, J), free (any K, L: mostly zero), of unequal lengths, or with one
    index outside 1..n."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(0, 7))
    index = st.integers(1, n)
    I = draw(st.lists(index, min_size=p, max_size=p))
    J = draw(st.lists(index, min_size=p, max_size=p))
    kind = draw(st.sampled_from(("aligned", "free", "length", "range")))
    if kind == "aligned":
        K, L = draw(st.permutations(I)), draw(st.permutations(J))
    else:
        K = draw(st.lists(index, min_size=p, max_size=p))
        L = draw(st.lists(index, min_size=p, max_size=p))
    lists = [I, J, K, L]
    if kind == "length":
        lists[draw(st.integers(0, 3))].append(1)
    elif kind == "range":
        seq = lists[draw(st.integers(0, 3))]
        seq.insert(draw(st.integers(0, len(seq))),
                   draw(st.sampled_from((0, -1, n + 1, n + 5))))
    return MomentQuery.make(n, *lists)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_raw_queries())
def test_canonicalize_matches_first_fit_reference(q):
    try:
        want = _first_fit_canonicalize(q)
    except ValueError as e:
        with pytest.raises(ValueError) as refused:
            canonicalize(q)
        assert str(refused.value) == str(e)
        return
    got = canonicalize(q)
    assert got == want and got.zero == want.zero


def test_canonicalize_large_degree_is_fast_and_still_refused():
    k = 10_000
    q = MomentQuery.make(2, (1, 2) * k, (1, 2) * k, (2, 1) * k, (1, 2) * k)
    start = time.perf_counter()
    m = canonicalize(q)
    assert time.perf_counter() - start < 3.0
    assert not m.zero and m.p == 2 * k
    # the form sorts both pair lists: conjugated (1,1)^k (2,2)^k, plain
    # (1,2)^k (2,1)^k
    assert m.I == m.J == (1,) * k + (2,) * k
    assert m.L == (2,) * k + (1,) * k
    with pytest.raises(ValueError, match=rf"\(cap {PAIR_CAP}\)"):
        moment(q)


# ---------------------------------------------------------------------------
# the records


_RECORDS = [
    (MomentQuery, ("n", "I", "J", "K", "L"),
     (3, (1, 2), (1, 2), (2, 1), (2, 1))),
    (CanonicalMoment, ("n", "p", "I", "J", "L", "zero"),
     (3, 2, (1, 2), (1, 2), (2, 1), False)),
]


@pytest.mark.parametrize("cls, fields, values", _RECORDS,
                         ids=[r[0].__name__ for r in _RECORDS])
def test_records_are_immutable_values(cls, fields, values):
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert tuple(getattr(a, f) for f in fields) == values
    assert a == b and a is not b and hash(a) == hash(b) == hash(values)
    assert len({a, b}) == 1
    other = cls(*values[:-1], ())
    assert a != other and not a == other
    assert a != values and values != a
    assert repr(a) == cls.__name__ + "(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, f) for f in fields) == values
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    assert copy.deepcopy(a) == a


def test_canonical_moment_is_nonzero_by_default():
    m = CanonicalMoment(2, 1, (1,), (1,), (1,))
    assert m.zero is False and m == CanonicalMoment(2, 1, (1,), (1,), (1,),
                                                    False)
    assert m != CanonicalMoment(2, 1, (1,), (1,), (1,), zero=True)


@pytest.mark.parametrize("L", [(1, 1), (1, 3), (2, 1, 2)])
def test_constructor_refuses_a_malformed_triple(L):
    # L must be a rearrangement of J with p entries; without the check,
    # (2, 1, 2) would be read as the moment -1/24 at n = 3
    with pytest.raises(ValueError, match="rearrangement of J"):
        CanonicalMoment(3, 2, (1, 2), (1, 2), L)
    assert CanonicalMoment(3, 2, (), (), (), zero=True).zero
