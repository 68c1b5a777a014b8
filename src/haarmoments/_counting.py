"""Cycle-type counting: how many of the compositions a∘b, with a from a
stream of permutations and b from a held list, fall in each cycle type.

The cycle type of a composition with m_l cycles of length l is named by the
mixed-radix integer key Σ_l m_l·r[l], r[l] = ∏_{k<l} (p//k + 1) (m_l <= p//l,
so keys are distinct).  Both paths count keys and decode each distinct key
once.

Products of at most _LOOP_MAX compositions take a tuple loop: each b is an
``itemgetter`` that composes a∘b in one call, and one walk over the points
adds r[l] for each cycle.  So does every p whose largest key would not fit
in int64 (p >= 36).  This path needs nothing beyond the standard library.

Larger products are counted a tile at a time in numpy, which is imported on
the first tile call.  One gather, ``a[:, b]``, composes a tile of at most
_TILE pairs.  Every point of every composition then learns the smallest
point of its cycle by pointer doubling, in ⌈log₂ p⌉ gather steps,
``np.bincount`` of those leaders gives each cycle's length at its leader,
and ``np.unique`` counts the keys of the tile.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .partitions import Partition, Perm

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 14    # stream permutations turned into one array at a time
# Points per tile, p per composition: each scratch array stays near 128 KiB.
# Tiles of 4096 compositions at p = 9 (288 KiB arrays) ran no faster and
# raised the peak RSS of a batch by about 1.4 MB.
_TILE = 1 << 14
# Measured on whole-process time at p = 7, 9 and 12: the loop takes 1.2-2.2 us
# a composition, and the first tile call of a process pays numpy's import,
# about 0.15 s, before 0.2-0.5 us a composition.  The tiles won from
# 110,000-150,000 compositions on; below that bound a process that has
# numpy loaded anyway pays at most about 0.1 s more on the loop.
_LOOP_MAX = 1 << 16
_INT64_MAX = (1 << 63) - 1


def count_compositions(stream: Iterable[Perm], length: int,
                       held: Sequence[Perm]) -> Counter[Partition]:
    """Cycle-type counts of a∘b over every a in ``stream``, which holds
    ``length`` permutations, and every b in ``held`` (nonempty)."""
    radix = _radix(len(held[0]))
    # the tiles hold keys in int64; the largest is 2·r[p] - 1
    if length * len(held) <= _LOOP_MAX or 2 * radix[-1] - 1 > _INT64_MAX:
        keys = _count_loop(stream, held, radix)
    else:
        keys = _count_tiles(stream, held, radix)
    return Counter({_decode(key, radix): c for key, c in keys.items()})


def _count_loop(A: Iterable[Perm], B: Sequence[Perm],
                radix: tuple[int, ...]) -> dict[int, int]:
    """The key counts of a∘b over A × B, one tuple at a time."""
    p = len(B[0])
    if p <= 1:
        # itemgetter of one index returns the item, not a 1-tuple; the one
        # permutation is the identity, whose key is p (r[1] = 1)
        return {p: len(B) * sum(1 for _ in A)}
    keys: dict[int, int] = {}
    get = keys.get
    getters = [itemgetter(*b) for b in B]
    points = range(p)
    for a in A:
        for compose in getters:
            t = compose(a)
            seen = [False] * p
            key = 0
            # A walk from the smallest point of a cycle returns to it; the
            # points it passes are marked, since a later start may meet them.
            for start in points:
                if seen[start]:
                    continue
                x = t[start]
                ln = 1
                while x != start:
                    seen[x] = True
                    x = t[x]
                    ln += 1
                key += radix[ln]
            keys[key] = get(key, 0) + 1
    return keys


def _count_tiles(A: Iterable[Perm], B: Sequence[Perm],
                 radix: tuple[int, ...]) -> dict[int, int]:
    """The key counts of a∘b over A × B, a tile at a time, A turned into an
    array _CHUNK permutations at a time."""
    import numpy as np

    held = np.array(B, dtype=np.intp)
    radix_row = np.array(radix, dtype=np.int64)
    nb, p = held.shape
    per_tile = max(1, _TILE // max(p, 1))
    rows = max(1, per_tile // nb)
    keys: Counter[int] = Counter()
    A = iter(A)
    while chunk := list(islice(A, _CHUNK)):
        stream = np.array(chunk, dtype=np.intp)
        for i in range(0, len(stream), rows):
            a = stream[i:i + rows]
            for j in range(0, nb, per_tile):
                b = held[j:j + per_tile]
                t = a[:, b].reshape(len(a) * len(b), p)
                ks, cs = np.unique(_cycle_keys(t, radix_row),
                                   return_counts=True)
                for k, c in zip(ks.tolist(), cs.tolist()):
                    keys[k] += c
    return keys


def _cycle_keys(t: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """The cycle-type key of each row of ``t``, a permutation of 0..p-1;
    ``radix`` is ``_radix(p)`` as an int64 array."""
    import numpy as np

    rows, p = t.shape
    # Flat index of each point's image, so one gather serves every row.
    nxt = (t + p * np.arange(rows)[:, None]).ravel()
    lead = np.arange(rows * p)
    for _ in range((p - 1).bit_length()):
        lead = np.minimum(lead, lead[nxt])
        nxt = nxt[nxt]
    sizes = np.bincount(lead, minlength=rows * p)
    return radix[sizes].reshape(rows, p).sum(axis=1)


@lru_cache(maxsize=None)
def _radix(p: int) -> tuple[int, ...]:
    """r[0] = 0 and r[l] = ∏_{k<l} (p//k + 1) for 1 <= l <= p.  The largest
    key, ∏_{k<=p} (p//k + 1) - 1 = 2·r[p] - 1, fits in int64 up to p = 35."""
    r, step = [0], 1
    for k in range(1, p + 1):
        r.append(step)
        step *= p // k + 1
    return tuple(r)


def _decode(key: int, radix: tuple[int, ...]) -> Partition:
    """The cycle type that ``key`` names."""
    p = len(radix) - 1
    parts: list[int] = []
    for ln in range(p, 0, -1):
        parts += [ln] * (key // radix[ln] % (p // ln + 1))
    return tuple(parts)
