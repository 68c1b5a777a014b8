"""Moment queries and their canonical form.

A query asks for the Haar average of a monomial: the product of p conjugated
matrix elements, picked out by row list I and column list J, and p plain
elements picked out by K and L.  The average is zero unless K is a
permutation of I and L is a permutation of J; otherwise the monomial can be
rewritten so the plain rows equal I exactly, leaving a single permutation Q
that says how the plain columns are matched against J.  That (I, J, Q) triple
is what the group engine consumes.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .partitions import Perm, inverse
from .stabilizer import stabilizer

Indices = tuple[int, ...]


def is_int(v) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class MomentQuery:
    n: int
    I: Indices
    J: Indices
    K: Indices
    L: Indices

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
        absent n is the largest index used (1 if there is none).  Raises
        ValueError on anything that is not such an object."""
        if not isinstance(obj, dict):
            raise ValueError("query must be a JSON object")
        lists = []
        for name in "IJKL":
            seq = obj.get(name, [])
            if not isinstance(seq, list) or not all(map(is_int, seq)):
                raise ValueError(f"{name} must be a list of integers")
            lists.append(seq)
        if "n" not in obj:
            n = max((v for seq in lists for v in seq), default=1)
        elif is_int(obj["n"]):
            n = obj["n"]
        else:
            raise ValueError("n must be an integer")
        return cls.make(n, *lists)


@dataclass(frozen=True)
class CanonicalMoment:
    """Either the zero marker, or the aligned form <I,J | I,J_Q>."""
    n: int
    p: int
    I: Indices
    J: Indices
    Q: Perm
    zero: bool = False


def canonicalize(q: MomentQuery) -> CanonicalMoment:
    """Validate a raw query and align it, or mark it as zero.

    Raises ValueError on malformed input (length mismatches, indices outside
    1..n).  Returns the zero marker exactly when the multiset conditions fail:
    unequal degrees, K not a rearrangement of I, or L not one of J.
    """
    if len(q.I) != len(q.J) or len(q.K) != len(q.L):
        raise ValueError("row and column lists must have equal lengths")
    for name, seq in (("I", q.I), ("J", q.J), ("K", q.K), ("L", q.L)):
        for v in seq:
            if not 1 <= v <= q.n:
                raise ValueError(f"{name} contains index {v} outside 1..{q.n}")
    p = len(q.I)
    if len(q.K) != p or Counter(q.K) != Counter(q.I) or Counter(q.L) != Counter(q.J):
        return CanonicalMoment(q.n, p, (), (), (), zero=True)

    # lexicographically smallest R with K[a] == I[R[a]]
    used = [False] * p
    R = []
    for a in range(p):
        for b in range(p):
            if not used[b] and q.I[b] == q.K[a]:
                R.append(b)
                used[b] = True
                break
    Rperm = tuple(R)
    Rinv = inverse(Rperm)
    aligned_L = tuple(q.L[Rinv[a]] for a in range(p))

    # stable first-fit Q with J[Q[a]] == aligned_L[a]
    used = [False] * p
    Q = []
    for a in range(p):
        for b in range(p):
            if not used[b] and q.J[b] == aligned_L[a]:
                Q.append(b)
                used[b] = True
                break
    return CanonicalMoment(q.n, p, q.I, q.J, tuple(Q))


def relabel(m: CanonicalMoment) -> CanonicalMoment:
    """Rename row and column values by first appearance (1, 2, ...).

    The value of the moment depends only on the coincidence pattern, so this
    maps equivalent queries to one representative (and one cache key).
    """
    if m.zero:
        return m
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    newI = tuple(rows.setdefault(v, len(rows) + 1) for v in m.I)
    newJ = tuple(cols.setdefault(v, len(cols) + 1) for v in m.J)
    return CanonicalMoment(m.n, m.p, newI, newJ, m.Q)


def transpose(m: CanonicalMoment) -> CanonicalMoment:
    """Swap row and column roles; the moment is invariant under this."""
    if m.zero:
        return m
    return CanonicalMoment(m.n, m.p, m.J, m.I, inverse(m.Q))


def orient(m: CanonicalMoment) -> CanonicalMoment:
    """Transpose when that makes the first stabilizer the larger one.  The
    engine keys its shape-weight cache (``weingarten._shape_weights``) on
    this form; which factor of the double coset it holds and which it
    streams, it picks by size itself."""
    if m.zero:
        return m
    if stabilizer(m.J).order > stabilizer(m.I).order:
        return relabel(transpose(m))
    return m


def alignments(q: MomentQuery):
    """All valid (R, Q) alignment pairs for a nonzero query.

    Exponentially many in the repetition structure — intended for the
    choice-independence checks on small queries only.
    """
    p = len(q.I)
    from itertools import permutations as allperms

    for R in allperms(range(p)):
        if any(q.I[R[a]] != q.K[a] for a in range(p)):
            continue
        Rinv = inverse(R)
        aligned_L = tuple(q.L[Rinv[a]] for a in range(p))
        for Q in allperms(range(p)):
            if any(q.J[Q[a]] != aligned_L[a] for a in range(p)):
                continue
            yield R, Q
