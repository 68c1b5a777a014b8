"""Moment queries and their normal form.

A query asks for the Haar average of a monomial: the product of p conjugated
matrix elements, picked out by row list I and column list J, and p plain
elements picked out by K and L.  The average is zero unless K is a
permutation of I and L is a permutation of J.  Otherwise it depends only on
two pair tables, the conjugated pairs (I[a], J[a]) and the plain pairs
(K[a], L[a]), up to renaming rows and columns and transposing both.
``canonicalize`` builds the moment's normal form from them directly: the
pairs renamed and sorted, stored as the sorted rows I, the conjugated
columns J and the plain columns L, so that the conjugated pairs are
zip(I, J) and the plain pairs zip(I, L).  Queries that differ only in
naming, in the order of the plain factors or (mostly) in orientation share
one form, which the closed-form matcher and the group engine read as it is
and the engine keys its cache on.  ``CanonicalMoment`` builds the same form
from any (I, J, L), L a rearrangement of J, so no record holds anything
else.

Every ``moment --batch`` line passes through here once, so each step takes
one pass: ``MomentQuery.from_json_obj`` checks each list's entries once,
and ``canonicalize`` checks the index range with ``min``/``max``, tests for
zero on sorted lists and sorts the renamed pairs, O(p log p) in all.  The
records are plain ``__slots__`` classes (``_record``), so importing this
module does not import ``dataclasses``.
"""
from __future__ import annotations

import json
from math import factorial, prod
from operator import itemgetter
from typing import Sequence

from ._record import Record, _set
from .partitions import Perm, inverse

Indices = tuple[int, ...]


def is_int(v) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(seq) -> bool:
    """True for a list of JSON integers.  Entries of type exactly int take
    the fast check; anything else is judged by ``is_int``."""
    if not isinstance(seq, list):
        return False
    for v in seq:
        if type(v) is not int:
            return all(map(is_int, seq))
    return True


class MomentQuery(Record):
    __slots__ = ("n", "I", "J", "K", "L")

    def __init__(self, n: int, I: Indices, J: Indices, K: Indices,
                 L: Indices):
        _set(self, "n", n)
        _set(self, "I", I)
        _set(self, "J", J)
        _set(self, "K", K)
        _set(self, "L", L)

    @classmethod
    def make(cls, n: int, I: Sequence[int], J: Sequence[int],
             K: Sequence[int], L: Sequence[int]) -> "MomentQuery":
        return cls(n, tuple(I), tuple(J), tuple(K), tuple(L))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "I": list(self.I), "J": list(self.J),
                "K": list(self.K), "L": list(self.L)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MomentQuery":
        """Read a decoded JSON query object.  Absent lists are empty; an
        absent n is the largest index used (1 if there is none), and a
        given n must be at least 1.  Raises ValueError on anything that is
        not such an object."""
        if not isinstance(obj, dict):
            raise ValueError("query must be a JSON object")
        lists = []
        for name in "IJKL":
            seq = obj.get(name, [])
            if not _is_int_list(seq):
                raise ValueError(f"{name} must be a list of integers")
            lists.append(tuple(seq))
        if "n" not in obj:
            n = max((max(seq) for seq in lists if seq), default=1)
        elif is_int(obj["n"]):
            n = obj["n"]
            if n < 1:
                raise ValueError("n must be at least 1")
        else:
            raise ValueError("n must be an integer")
        return cls(n, *lists)


class CanonicalMoment(Record):
    """Either the zero marker, or the moment's normal form: conjugated pairs
    (I[a], J[a]) and plain pairs (I[a], L[a]), both sorted.

    The constructor takes any (I, J, L) and stores the normal form of the
    moment with those pairs (``_normal``), so every nonzero record is its
    own normal form; the zero marker is stored as given.  Unless ``zero``
    is set, it raises ValueError when I, J and L do not all have p entries
    or L is not a rearrangement of J."""
    __slots__ = ("n", "p", "I", "J", "L", "zero")

    def __init__(self, n: int, p: int, I: Indices, J: Indices, L: Indices,
                 zero: bool = False):
        if not zero and (not len(I) == len(J) == len(L) == p
                         or sorted(L) != sorted(J)):
            raise ValueError("I, J and L must have p entries each, "
                             "and L must be a rearrangement of J")
        if p and not zero:
            I, J, L = _normal(I, J, I, L)
        _fill(self, n, p, I, J, L, zero)

    # perfbench/child.py keys on (m.I, m.J, m.Q), Q the first fit of L in J.
    Q = property(lambda m: _first_fit(m.J, m.L))


def _fill(m: CanonicalMoment, *values) -> CanonicalMoment:
    """Set the record's fields in order: ``canonicalize`` stores the form it
    built without running the constructor's builder a second time."""
    for name, v in zip(m.__slots__, values):
        _set(m, name, v)
    return m


def canonicalize(q: MomentQuery) -> CanonicalMoment:
    """Validate a raw query and return its normal form, or the zero marker.

    Raises ValueError on malformed input (length mismatches, indices outside
    1..n).  Returns the zero marker exactly when the multiset conditions fail:
    unequal degrees, K not a rearrangement of I, or L not one of J.
    Otherwise the form is built from the pairs zip(I, J) and zip(K, L) as
    they are, with no alignment of K onto I.
    """
    I, J, K, L, n = q.I, q.J, q.K, q.L, q.n
    p = len(I)
    if len(J) != p or len(K) != len(L):
        raise ValueError("row and column lists must have equal lengths")
    values = (*I, *J, *K, *L)
    if values and (min(values) < 1 or max(values) > n):
        for name, seq in (("I", I), ("J", J), ("K", K), ("L", L)):
            for v in seq:
                if not 1 <= v <= n:
                    raise ValueError(
                        f"{name} contains index {v} outside 1..{n}")
    if len(K) != p or sorted(K) != sorted(I) or sorted(L) != sorted(J):
        return CanonicalMoment(n, p, (), (), (), zero=True)
    if not p:
        return CanonicalMoment(n, 0, (), (), ())
    return _fill(CanonicalMoment.__new__(CanonicalMoment), n, p,
                 *_normal(I, J, K, L), False)


def _normal(I, J, K, L) -> tuple[Indices, Indices, Indices]:
    """The normal form (I, J, L) of the moment with conjugated pairs
    (I[a], J[a]) and plain pairs (K[a], L[a]), p >= 1.

    The moment depends only on which factors share a row or a column, so
    the form renames them: transposed first when |S_J| > |S_I|, rows
    numbered 1.. by first appearance in I, columns numbered 1.. by first
    appearance once the conjugated pairs are stably in row order, and both
    pair lists sorted.  Then I holds the sorted rows, J the conjugated
    columns and L the plain columns, both in row order.  The form is
    idempotent, does not depend on how the plain factors are ordered or on
    how rows and columns are named, and is the same for a query and its
    transpose when their stabilizers differ in size.  The matcher reads it
    as it is, and the engine keys its shape weights on it
    (``weingarten._shape_weights``); the tabloid route reads its pairs as
    they are.
    """
    if _order(J) > _order(I):
        I, J, K, L = J, I, L, K
    numbers = range(1, len(I) + 1)
    rows = dict(zip(dict.fromkeys(I), numbers)).__getitem__
    in_row_order = sorted(zip(map(rows, I), J), key=itemgetter(0))
    cols = dict(zip(dict.fromkeys(map(itemgetter(1), in_row_order)),
                    numbers)).__getitem__
    I, J = map(tuple, zip(*sorted(zip(map(rows, I), map(cols, J)))))
    plain = sorted(zip(map(rows, K), map(cols, L)))
    return I, J, tuple(map(itemgetter(1), plain))


def _first_fit(source: Sequence[int], target: Sequence[int]) -> Perm:
    """For each a in order, the smallest position b not yet taken with
    source[b] == target[a].  Each value's positions in ``source`` form a
    queue, taken from the front.  ``target`` must be a rearrangement of
    ``source``."""
    queues: dict[int, list[int]] = {}
    for b, v in enumerate(source):
        if v in queues:
            queues[v].append(b)
        else:
            queues[v] = [b]
    fronts = {v: iter(bs) for v, bs in queues.items()}
    return tuple([next(fronts[v]) for v in target])


def _order(values: Sequence) -> int:
    """|S_values|, the product of the factorials of the multiplicities."""
    return prod(map(factorial, _counts(values).values()))


def _counts(values) -> dict:
    """How often each value occurs; absent values occur 0 times."""
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


# perfbench/child.py keys on orient(relabel(m)); every form is already one.
relabel = orient = lambda m: m


def alignments(q: MomentQuery):
    """All valid (R, Q) alignment pairs for a nonzero query: R takes the
    plain rows K onto I and Q the plain columns, carried along R, onto J,
    so the plain pairs are (I[a], J[Q[a]]) and the form's constructor takes
    L = tuple(J[b] for b in Q).

    Exponentially many in the repetition structure — intended for the
    choice-independence checks on small queries only.
    """
    p = len(q.I)
    from itertools import permutations as allperms

    for R in allperms(range(p)):
        if all(q.I[R[a]] == q.K[a] for a in range(p)):
            aligned_L = [q.L[b] for b in inverse(R)]
            yield from ((R, Q) for Q in allperms(range(p))
                        if all(q.J[Q[a]] == aligned_L[a] for a in range(p)))
