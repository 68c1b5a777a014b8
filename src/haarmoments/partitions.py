"""Integer partitions, symmetric-group conjugacy data, irreducible characters
and dimensions.

Permutations throughout the package are tuples of 0-based images: ``perm[x]``
is where x goes.  Partitions are weakly decreasing tuples of positive ints.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

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
# characters: Murnaghan–Nakayama on beta-numbers, memoized

@lru_cache(maxsize=None)
def character(shape: Partition, ct: Partition) -> int:
    """Irreducible character of the class ``ct`` in the irrep ``shape``."""
    if sum(shape) != sum(ct):
        raise ValueError("shape and cycle type must partition the same p")
    return _mn(shape, ct)


@lru_cache(maxsize=None)
def _mn(shape: Partition, ct: Partition) -> int:
    if not ct:
        return 1
    k = len(shape)
    beta = tuple(shape[i] + (k - 1 - i) for i in range(k))
    bset = set(beta)
    ell = ct[0]
    rest = ct[1:]
    total = 0
    for b in beta:
        nb = b - ell
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        nbs = sorted(((x if x != b else nb) for x in beta), reverse=True)
        newshape = tuple(
            v for v in (nbs[i] - (k - 1 - i) for i in range(k)) if v > 0
        )
        total += (-1) ** height * _mn(newshape, rest)
    return total
