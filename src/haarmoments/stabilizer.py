"""Young subgroups: the permutations of slots that fix an index sequence.

The subgroup of all R with values[R[a]] == values[a] is a direct product of
symmetric groups on the position blocks of equal values.  It is never
materialized as a whole: ``coset_reps`` streams its elements, or one
representative of each right coset modulo the finer Young subgroup that also
fixes a second sequence.  The orders of both are ``queries._order``.
"""
from __future__ import annotations

from itertools import chain, combinations, permutations, product
from math import comb
from typing import Hashable, Iterator, Sequence

from .partitions import Perm


def coset_reps(values: Sequence[Hashable],
               labels: Sequence[Hashable] | None = None) -> Iterator[Perm]:
    """One R from each right coset H∘R in the stabilizer of ``values``, H the
    subgroup that also fixes ``labels``; every element when ``labels`` is
    None.  There are _order(values) // _order(zip(values, labels)) of them.

    The coset H∘R is fixed by which H-block R sends each position to, so the
    representatives are the placements of each block of ``values``'s H-blocks
    onto its positions, each H-block's members kept in increasing order: a
    multinomial number per block.
    """
    if labels is None:
        labels = range(len(values))
    moving = [groups for groups in (_split(block, labels) for block
                                    in _split(range(len(values)), values))
              if len(groups) > 1]
    # Stream the largest block's placements and hold the others: each held
    # list is at most the square root of the count long.
    moving.sort(key=_placement_count, reverse=True)
    slots = [sorted(chain.from_iterable(groups)) for groups in moving]
    held = [tuple(_placements(groups)) for groups in moving[1:]]
    base = list(range(len(values)))
    for head in _placements(moving[0]) if moving else [()]:
        for tail in product(*held):
            img = base[:]
            for block, targets in zip(slots, (head,) + tail):
                for pos, tgt in zip(block, targets):
                    img[pos] = tgt
            yield tuple(img)


def _split(block: Sequence[int],
           labels: Sequence[Hashable]) -> tuple[tuple[int, ...], ...]:
    groups: dict[Hashable, list[int]] = {}
    for pos in block:
        groups.setdefault(labels[pos], []).append(pos)
    return tuple(map(tuple, groups.values()))


def _placement_count(groups: Sequence[Sequence[int]]) -> int:
    k = 0
    out = 1
    for g in groups:
        k += len(g)
        out *= comb(k, len(g))
    return out


def _placements(groups: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Images of a block's positions, in increasing order: each group fills
    some set of the slots with its members in increasing order."""
    if max(map(len, groups)) == 1:
        return permutations([g[0] for g in groups])
    if len(groups) == 1:
        return iter([tuple(groups[0])])
    return _shuffles(groups)


def _shuffles(groups: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    head, rest = groups[0], groups[1:]
    k = sum(map(len, groups))
    for chosen in combinations(range(k), len(head)):
        others = [i for i in range(k) if i not in chosen]
        for sub in _placements(rest):
            img = [0] * k
            for i, tgt in zip(chosen, head):
                img[i] = tgt
            for i, tgt in zip(others, sub):
                img[i] = tgt
            yield tuple(img)
