"""Cycle-type counting: how many of the compositions a∘b, with a from a
stream of permutations and b from a held list, fall in each cycle type.

Large products are counted a tile at a time in numpy.  One gather,
``a[:, b]``, composes a tile of at most _TILE pairs.  Every point of every
composition then learns the smallest point of its cycle by pointer doubling,
in ⌈log₂ p⌉ gather steps, and ``np.bincount`` of those leaders gives each
cycle's length at its leader.  The cycle type of a composition with m_l
cycles of length l is named by the mixed-radix integer key Σ_l m_l·r[l],
r[l] = ∏_{k<l} (p//k + 1) (m_l <= p//l, so keys are distinct), and
``np.unique`` counts the keys of the tile.

Products of at most _LOOP_MAX pairs take the tuple loop instead: there the
fixed cost of the numpy calls exceeds the work.  So does every p whose
largest key would not fit in int64 (p >= 36).
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .partitions import Partition, Perm, cycle_type

_CHUNK = 1 << 14    # stream permutations turned into one array at a time
# Points per tile, p per composition: each scratch array stays near 128 KiB.
# Tiles of 4096 compositions at p = 9 (288 KiB arrays) ran no faster and
# raised the peak RSS of a batch by about 1.4 MB.
_TILE = 1 << 14
# Measured crossover: the loop was faster up to 24-48 compositions per call
# at p = 4..9, and the tiles from 48-64 on.
_LOOP_MAX = 48


def count_compositions(stream: Iterable[Perm],
                       held: Sequence[Perm]) -> Counter[Partition]:
    """Cycle-type counts of a∘b over every a in ``stream`` and b in ``held``
    (``held`` is nonempty)."""
    p = len(held[0])
    radix = _radix(p)
    out: Counter[Partition] = Counter()
    keys: Counter[int] = Counter()
    held_rows = None
    stream = iter(stream)
    while chunk := list(islice(stream, _CHUNK)):
        if radix is None or len(chunk) * len(held) <= _LOOP_MAX:
            _count_loop(chunk, held, out)
            continue
        if held_rows is None:
            held_rows = np.array(held, dtype=np.intp)
        _count_tiles(np.array(chunk, dtype=np.intp), held_rows, radix, keys)
    for key, c in keys.items():
        out[_decode(key, radix)] += c
    return out


def _count_loop(A: Sequence[Perm], B: Sequence[Perm],
                out: Counter[Partition]) -> None:
    """Add the cycle-type counts of a∘b over A × B, one tuple at a time."""
    for a in A:
        for b in B:
            out[cycle_type(tuple(a[x] for x in b))] += 1


def _count_tiles(A: np.ndarray, B: np.ndarray, radix: np.ndarray,
                 keys: Counter[int]) -> None:
    """Add the key counts of a∘b over the rows of A × B, a tile at a time."""
    nb, p = B.shape
    per_tile = max(1, _TILE // max(p, 1))
    rows = max(1, per_tile // nb)
    for i in range(0, len(A), rows):
        a = A[i:i + rows]
        for j in range(0, nb, per_tile):
            b = B[j:j + per_tile]
            t = a[:, b].reshape(len(a) * len(b), p)
            ks, cs = np.unique(_cycle_keys(t, radix), return_counts=True)
            for k, c in zip(ks.tolist(), cs.tolist()):
                keys[k] += c


def _cycle_keys(t: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """The cycle-type key of each row of ``t``, a permutation of 0..p-1."""
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
def _radix(p: int) -> np.ndarray | None:
    """r[0] = 0 and r[l] for 1 <= l <= p, or None when the largest key,
    ∏_{k<=p} (p//k + 1) - 1, does not fit in int64."""
    r, step = [0], 1
    for k in range(1, p + 1):
        r.append(step)
        step *= p // k + 1
    if step - 1 > np.iinfo(np.int64).max:
        return None
    return np.array(r, dtype=np.int64)


def _decode(key: int, radix: np.ndarray) -> Partition:
    """The cycle type that ``key`` names."""
    p = len(radix) - 1
    parts: list[int] = []
    for ln in range(p, 0, -1):
        parts += [ln] * (key // int(radix[ln]) % (p // ln + 1))
    return tuple(parts)
