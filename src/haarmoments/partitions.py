"""Integer partitions, symmetric-group conjugacy data, irreducible characters
and dimensions.

Permutations throughout the package are tuples of 0-based images: ``perm[x]``
is where x goes.  Partitions are weakly decreasing tuples of positive ints.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

from .ratfun import Poly, RationalFunction, expand

Partition = tuple[int, ...]
Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations

def identity(p: int) -> Perm:
    return tuple(range(p))


def compose(f: Perm, g: Perm) -> Perm:
    """(f o g)(x) = f(g(x)) — g acts first."""
    return tuple(f[g[x]] for x in range(len(f)))


def inverse(f: Perm) -> Perm:
    inv = [0] * len(f)
    for i, v in enumerate(f):
        inv[v] = i
    return tuple(inv)


def cycle_type(perm: Perm) -> Partition:
    p = len(perm)
    seen = [False] * p
    lens = []
    for start in range(p):
        if seen[start]:
            continue
        ln = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            ln += 1
        lens.append(ln)
    lens.sort(reverse=True)
    return tuple(lens)


# ---------------------------------------------------------------------------
# partitions

@lru_cache(maxsize=None)
def partitions_of(p: int) -> tuple[Partition, ...]:
    """All partitions of p in reverse lexicographic order: (p) first."""
    if p == 0:
        return ((),)
    out: list[Partition] = []

    def gen(rem: int, mx: int, prefix: list[int]) -> None:
        if rem == 0:
            out.append(tuple(prefix))
            return
        for first in range(min(rem, mx), 0, -1):
            prefix.append(first)
            gen(rem - first, first, prefix)
            prefix.pop()

    gen(p, p, [])
    return tuple(out)


def conjugate(shape: Partition) -> Partition:
    if not shape:
        return ()
    return tuple(sum(1 for r in shape if r > j) for j in range(shape[0]))


def class_size(ct: Partition) -> int:
    """Number of permutations with the given cycle type."""
    p = sum(ct)
    den = 1
    mult: dict[int, int] = {}
    for ln in ct:
        mult[ln] = mult.get(ln, 0) + 1
    for ln, a in mult.items():
        den *= ln**a * factorial(a)
    return factorial(p) // den


def hook_lengths(shape: Partition) -> list[int]:
    conj = conjugate(shape)
    return [
        (row - j) + (conj[j] - i) - 1
        for i, row in enumerate(shape)
        for j in range(row)
    ]


def contents(shape: Partition) -> list[int]:
    """The content j - i of each cell (i, j) of ``shape``."""
    return [j - i for i, row in enumerate(shape) for j in range(row)]


@lru_cache(maxsize=None)
def _hook_product(shape: Partition) -> int:
    out = 1
    for h in hook_lengths(shape):
        out *= h
    return out


def dim_symmetric(shape: Partition) -> int:
    """Dimension of the symmetric-group irrep labelled by ``shape``."""
    return factorial(sum(shape)) // _hook_product(shape)


@lru_cache(maxsize=None)
def dim_unitary(shape: Partition) -> RationalFunction:
    """Dimension of the U(n) irrep labelled by ``shape``, as a polynomial in n
    over an integer denominator (hook-content product).

    At integer n below the number of rows the value is 0, which callers use to
    drop those shapes from fixed-n sums.
    """
    return RationalFunction.over_linear(Poly(expand(1, contents(shape))), (),
                                        const=_hook_product(shape))


def dim_unitary_at(shape: Partition, n: int) -> Fraction:
    return dim_unitary(shape).eval_at(n)


# ---------------------------------------------------------------------------
# characters and Kostka numbers: Schur expansions, one factor at a time

def character(shape: Partition, ct: Partition) -> int:
    """Irreducible character of the class ``ct`` in the irrep ``shape``."""
    if sum(shape) != sum(ct):
        raise ValueError("shape and cycle type must partition the same p")
    return schur_expansion("p", tuple(sorted(ct, reverse=True))).get(shape, 0)


@lru_cache(maxsize=None)
def schur_expansion(kind: str, parts: Partition) -> dict[Partition, int]:
    """{f: c_f} over the c_f != 0 in p_parts = sum c_f s_f (``kind`` "p") or
    h_parts = sum c_f s_f ("h"), ``parts`` a partition: c_f is the character
    chi_f(parts) or the Kostka number K_{f,parts}.  The largest part is
    multiplied in last, onto the cached expansion of the others, so products
    that share their smaller parts share that work.  s_g p_r adds the border
    strips of r cells to g, with sign (-1)^(rows - 1) (Murnaghan–Nakayama);
    s_g h_r adds the horizontal strips (Pieri).  The dict is the cached one:
    read it, do not change it."""
    if not parts:
        return {(): 1}
    strips = _border_strips if kind == "p" else _horizontal_strips
    out: dict[Partition, int] = {}
    for g, c in schur_expansion(kind, parts[1:]).items():
        for f, sign in strips(g, parts[0]):
            out[f] = out.get(f, 0) + sign * c
    return {f: c for f, c in out.items() if c}


def _border_strips(shape: Partition, r: int) -> Iterator[tuple[Partition, int]]:
    """(f, sign) for each border strip f/shape of r cells: on the
    beta-numbers of ``shape`` padded with r zero rows, the one of row i
    moves up by r past those of rows j..i-1, with sign (-1)^(i-j)."""
    padded = shape + (0,) * r
    beta = [x - i for i, x in enumerate(padded)]
    taken = set(beta)
    for i, b in enumerate(beta):
        if b + r not in taken:
            j = sum(x > b + r for x in beta)
            f = (padded[:j] + (padded[i] + r - i + j,)
                 + tuple(x + 1 for x in padded[j:i]) + padded[i + 1:])
            yield f[:len(f) - f.count(0)], (-1) ** (i - j)


def _horizontal_strips(shape: Partition,
                       r: int) -> Iterator[tuple[Partition, int]]:
    """(f, 1) for each horizontal strip f/shape of r cells: below the first
    row, which takes the rest, shape[i-1] >= f[i] >= shape[i]."""
    padded = shape + (0,)
    grown: list[tuple[Partition, int]] = [((), r)]
    for above, row in zip(padded, padded[1:]):
        grown = [(rows + (row + a,), left - a) for rows, left in grown
                 for a in range(min(above - row, left) + 1)]
    for rows, left in grown:
        f = (padded[0] + left,) + rows
        yield f[:len(f) - f.count(0)], 1
