"""Young subgroups: the permutations of slots that fix an index sequence.

The subgroup of all R with values[R[a]] == values[a] is a direct product of
symmetric groups on the position blocks of equal values.  It is never
materialized as a whole; elements stream lazily, as do representatives of its
right cosets modulo a finer Young subgroup (``YoungSubgroup.cosets``).
"""
from __future__ import annotations

from itertools import chain, combinations, permutations, product
from math import comb, factorial, prod
from typing import Hashable, Iterator, Sequence

from ._record import Record, _set
from .partitions import Perm


class YoungSubgroup(Record):
    __slots__ = ("degree", "blocks")

    def __init__(self, degree: int, blocks: tuple[tuple[int, ...], ...]):
        _set(self, "degree", degree)
        _set(self, "blocks", blocks)

    @property
    def order(self) -> int:
        return prod(map(factorial, map(len, self.blocks)))

    def cosets(self, labels: Sequence[Hashable]) -> CosetReps:
        """One element R from each right coset H∘R, where H is the subgroup
        that also fixes ``labels``; |H| == order // cosets(labels).order."""
        return CosetReps(self.degree,
                         tuple([_split(block, labels) for block in self.blocks]))

    def __iter__(self) -> Iterator[Perm]:
        trivial = tuple(tuple((x,) for x in b) for b in self.blocks)
        return iter(CosetReps(self.degree, trivial))


class CosetReps(Record):
    """Right-coset representatives of a Young subgroup H in a Young subgroup
    G containing it.

    ``blocks`` holds G's blocks, each split into the blocks of H inside it.
    The coset H∘R is fixed by which H-block R sends each position to, so the
    representatives are the placements of each G-block's H-blocks onto its
    positions, each H-block's members kept in increasing order: a
    multinomial number per G-block.
    """
    __slots__ = ("degree", "blocks")

    def __init__(self, degree: int,
                 blocks: tuple[tuple[tuple[int, ...], ...], ...]):
        _set(self, "degree", degree)
        _set(self, "blocks", blocks)

    @property
    def order(self) -> int:
        return prod(map(_placement_count, self.blocks))

    def __iter__(self) -> Iterator[Perm]:
        moving = [groups for groups in self.blocks if len(groups) > 1]
        # Stream the largest block's placements and hold the others: each
        # held list is at most the square root of the order long.
        moving.sort(key=_placement_count, reverse=True)
        slots = [sorted(chain.from_iterable(groups)) for groups in moving]
        held = [tuple(_placements(groups)) for groups in moving[1:]]
        base = list(range(self.degree))
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


def stabilizer(values: Sequence[Hashable]) -> YoungSubgroup:
    return YoungSubgroup(len(values), _split(range(len(values)), values))
