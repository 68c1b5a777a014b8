"""Moment queries and their canonical form.

A query asks for the Haar average of a monomial: the product of p conjugated
matrix elements, picked out by row list I and column list J, and p plain
elements picked out by K and L.  The average is zero unless K is a
permutation of I and L is a permutation of J; otherwise the monomial can be
rewritten so the plain rows equal I exactly, leaving a single permutation Q
that says how the plain columns are matched against J.  That (I, J, Q) triple
is what the closed-form matcher reads.  The group engine reads the moment's
``normal_form``: its conjugated and plain pairs, renamed and sorted, so that
queries that differ only in naming, alignment or (mostly) orientation share
one form and one cache key.

Every ``moment --batch`` line passes through here once, so each step takes
one pass: ``MomentQuery.from_json_obj`` checks each list's entries once,
and ``canonicalize`` checks the index range with ``min``/``max``, tests for
zero on sorted lists and takes each first-fit match from a per-value queue
of positions, O(p log p) in all.  The records are plain ``__slots__``
classes (``_record``), so importing this module does not import
``dataclasses``.
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
    """Either the zero marker, or the aligned form <I,J | I,J_Q>."""
    __slots__ = ("n", "p", "I", "J", "Q", "zero")

    def __init__(self, n: int, p: int, I: Indices, J: Indices, Q: Perm,
                 zero: bool = False):
        _set(self, "n", n)
        _set(self, "p", p)
        _set(self, "I", I)
        _set(self, "J", J)
        _set(self, "Q", Q)
        _set(self, "zero", zero)


def canonicalize(q: MomentQuery) -> CanonicalMoment:
    """Validate a raw query and align it, or mark it as zero.

    Raises ValueError on malformed input (length mismatches, indices outside
    1..n).  Returns the zero marker exactly when the multiset conditions fail:
    unequal degrees, K not a rearrangement of I, or L not one of J.
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
    # lexicographically smallest R with K[a] == I[R[a]], and L carried
    # along it: aligned_L[R[a]] = L[a]
    aligned_L = [0] * p
    for a, b in enumerate(_first_fit(I, K)):
        aligned_L[b] = L[a]
    # stable first-fit Q with J[Q[a]] == aligned_L[a]
    return CanonicalMoment(n, p, I, J, _first_fit(J, aligned_L))


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


def normal_form(m: CanonicalMoment) -> CanonicalMoment:
    """The moment's two pair tables, conjugated pairs (I[a], J[a]) and plain
    pairs (I[a], J[Q[a]]), as one aligned form.

    The moment depends only on which factors share a row or a column, so
    the form renames them: transposed first when |S_J| > |S_I|, rows
    numbered 1.. by first appearance, columns numbered 1.. by first
    appearance once the pairs are stably in row order, and both pair lists
    sorted.  Then I holds the sorted rows, J the conjugated columns and Q
    the first fit of the sorted plain columns into J.  The form is
    idempotent, does not depend on the alignment ``canonicalize`` picked or
    on how rows and columns are named, and is the same for a query and its
    transpose when their stabilizers differ in size.  The engine keys its
    shape weights (``weingarten._shape_weights``) on it and prices both
    routes from it; the tabloid route reads its pairs as they are.
    """
    if m.zero or not m.p:
        return m
    conj = list(zip(m.I, m.J))
    plain = [(i, m.J[b]) for i, b in zip(m.I, m.Q)]
    if _order(m.J) > _order(m.I):
        conj, plain = [(j, i) for i, j in conj], [(j, i) for i, j in plain]
    rows = {v: k for k, v in enumerate(dict.fromkeys(i for i, _ in conj), 1)}
    conj = sorted([(rows[i], j) for i, j in conj], key=itemgetter(0))
    cols = {v: k for k, v in enumerate(dict.fromkeys(j for _, j in conj), 1)}
    conj = sorted([(i, cols[j]) for i, j in conj])
    plain = sorted([(rows[i], cols[j]) for i, j in plain])
    I, J = map(tuple, zip(*conj))
    return CanonicalMoment(m.n, m.p, I, J, _first_fit(J, [j for _, j in plain]))


def _order(values: Sequence) -> int:
    """|S_values|, the product of the factorials of the multiplicities."""
    return prod(map(factorial, _counts(values).values()))


def _counts(values) -> dict:
    """How often each value occurs; absent values occur 0 times."""
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


# perfbench/child.py imports both names: orient(relabel(m)) is the engine's key.
relabel = orient = normal_form


def alignments(q: MomentQuery):
    """All valid (R, Q) alignment pairs for a nonzero query.

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
