"""Integer partitions, symmetric-group conjugacy data, irreducible characters
and dimensions.

Permutations throughout the package are tuples of 0-based images: ``perm[x]``
is where x goes.  Partitions are weakly decreasing tuples of positive ints.
Characters and Kostka numbers come from one Schur expansion, which works on
each shape's bead set, an int mask of its beta-numbers (James and Kerber,
*The Representation Theory of the Symmetric Group*, 1981, 2.7), and hands
out tuples.
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
# characters and Kostka numbers: Schur expansions on bead sets

def character(shape: Partition, ct: Partition) -> int:
    """Irreducible character of the class ``ct`` in the irrep ``shape``."""
    if sum(shape) != sum(ct):
        raise ValueError("shape and cycle type must partition the same p")
    return schur_expansion("p", tuple(sorted(ct, reverse=True))).get(shape, 0)


@lru_cache(maxsize=None)
def schur_expansion(kind: str, parts: Partition) -> dict[Partition, int]:
    """{f: c_f} over the c_f != 0 in p_parts = sum c_f s_f (``kind`` "p") or
    h_parts = sum c_f s_f ("h"), ``parts`` a partition: c_f is the character
    chi_f(parts) or the Kostka number K_{f,parts}.  The work is done on bead
    sets by ``_expansion``; each distinct bead set of the answer becomes a
    tuple once.  The dict is the cached one: read it, do not change it."""
    return {_shape(f): c for f, c in _expansion(kind, parts).items()}


@lru_cache(maxsize=None)
def _expansion(kind: str, parts: Partition) -> dict[int, int]:
    """``schur_expansion`` with each shape as its bead mask.  The largest
    part is multiplied in last, onto the cached expansion of the others, so
    products that share their smaller parts, in any degree, share that
    work.  s_g p_r adds the border strips of r cells to g, with sign
    (-1)^(rows - 1) (Murnaghan–Nakayama); s_g h_r adds the horizontal strips
    (Pieri)."""
    if not parts:
        return {0: 1}
    moves = _border_moves if kind == "p" else _horizontal_moves
    r = parts[0]
    out: dict[int, int] = {}
    for g, c in _expansion(kind, parts[1:]).items():
        for f, sign in moves(g, r):
            out[f] = out.get(f, 0) + sign * c
    return {f: c for f, c in out.items() if c}


# A shape is held as the bead set of its beta-numbers on James and Kerber's
# abacus, one bit per place: with as many beads as rows, row i (from the
# top) has a bead with as many free places below it as its length.  Bit 0 of
# a nonempty shape is free and () is 0, so the mask does not depend on the
# degree.  A zero row below the others is a bead at place 0 with every other
# bead moved up one, (g << 1) | 1; the moves pad g with the zero rows that
# the strip can fill and shift them out again.

@lru_cache(maxsize=None)
def _border_moves(g: int, r: int) -> list[tuple[int, int]]:
    """(f, sign) for each border strip f/g of r cells: on g padded with r
    zero rows, one bead moves up r places onto a free place, and the sign is
    the parity of the beads it jumps."""
    beads = (g << r) | ((1 << r) - 1)
    out = []
    movable = beads & ~(beads >> r)
    while movable:
        bead = movable & -movable
        movable ^= bead
        jumped = beads & ((bead << r) - (bead << 1))
        f = beads ^ bead ^ (bead << r)
        out.append((f >> min(bead.bit_length() - 1, r),
                    -1 if jumped.bit_count() & 1 else 1))
    return out


@lru_cache(maxsize=None)
def _horizontal_moves(g: int, r: int) -> list[tuple[int, int]]:
    """(f, 1) for each horizontal strip f/g of r cells: on g padded with one
    zero row, the beads move up r places in all, none reaching the old place
    of the bead above it; the top bead takes the rest."""
    beads = (g << 1) | 1
    top = 1 << (beads.bit_length() - 1)
    grown = [(beads, r)]
    above, rest = top, beads ^ top
    while rest:
        bead = 1 << (rest.bit_length() - 1)
        rest ^= bead
        room = above.bit_length() - bead.bit_length() - 1
        grown = [(m ^ bead ^ (bead << a), left - a) for m, left in grown
                 for a in range(min(room, left) + 1)]
        above = bead
    out = []
    for m, left in grown:
        m ^= top ^ (top << left)
        out.append((m >> (m & 1), 1))
    return out


@lru_cache(maxsize=None)
def _shape(mask: int) -> Partition:
    """The partition of a bead mask: each bead's count of free places
    below it, top bead first."""
    free = mask.bit_length() - mask.bit_count()
    out = []
    for bit in bin(mask)[2:]:
        if bit == "1":
            out.append(free)
        else:
            free -= 1
    return tuple(out)
