"""The group-sum engine for exact unitary moments.

A canonical moment <I,J | I,J_Q> is evaluated as

    sum_c  N(I, J, Q | c) * xi_p(c)

where c runs over cycle types of degree p, N counts the pairs (R, S) over the
stabilizers of I and J whose composition S∘Q∘R falls in class c, and xi_p is
the class integral

    xi_p(c) = sum_f  d_f^2 chi_f(c) / ((p!)^2 dbar_f)

over irreps f of the symmetric group (at fixed dimension n, restricted to f
with at most n rows; symbolically, over all f, valid for n >= p).

Symbolically, (p!)^2 dbar_f = d_f p! P_f(n) where P_f(n) = prod (n + content)
over the cells of f, so every term shares the denominator (p!)^2 D_p(n) with
D_p the lcm of the P_f.  The counts are first folded into one weight per shape,
w_f = sum_c N(c) chi_f(c); the numerator sum_f w_f d_f p! D_p/P_f is then
summed in integers over that denominator and reduced once.

N is not found by enumerating every pair: the composition S∘Q∘R takes each
element of the double coset S_J·Q·S_I exactly |H| times, H = S_J ∩ Q·S_I·Q⁻¹,
so the engine composes each element once and weights its class by |H|.  The
pure-Python counting loop is fast enough for every stated runtime budget; an
optional compiled kernel is used when it was built (HAAR_MOMENTS_PURE=1
forces the pure path).  Queries whose raw pair sum |S_I|·|S_J| exceeds
PAIR_CAP are refused; Monte Carlo estimation is the intended tool there.
"""
from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

import numpy as np

from . import _countpy
from .partitions import (
    Partition,
    Perm,
    character,
    compose,
    dim_symmetric,
    dim_unitary_at,
    partitions_of,
)
from .queries import CanonicalMoment, MomentQuery, canonicalize, orient, relabel
from .ratfun import Poly, RationalFunction
from .stabilizer import stabilizer

PAIR_CAP = 10**8
_CHUNK = 1 << 14

if os.environ.get("HAAR_MOMENTS_PURE"):
    _kernel = None
else:
    try:
        from . import _countkernel as _kernel  # type: ignore[attr-defined]
    except ImportError:
        _kernel = None


def backend_name() -> str:
    return "compiled" if _kernel is not None else "pure-python"


# ---------------------------------------------------------------------------
# class integrals

@lru_cache(maxsize=None)
def _shape_terms(p: int) -> tuple[Poly, tuple[tuple[Partition, Poly], ...]]:
    """The common denominator (p!)^2 D_p(n) and, per shape f of p, the
    numerator d_f p! D_p(n)/P_f(n) of its term d_f^2 / ((p!)^2 dbar_f)."""
    shapes = partitions_of(p)
    contents = [
        Counter(j - i for i, row in enumerate(f) for j in range(row))
        for f in shapes
    ]
    lcm: Counter[int] = Counter()
    for c in contents:
        lcm |= c

    def times_factors(const: int, factors: Counter) -> Poly:
        out = Poly.const(const)
        for k in factors.elements():
            out = out * Poly.n_plus(k)
        return out

    den = times_factors(factorial(p) ** 2, lcm)
    terms = tuple(
        (f, times_factors(dim_symmetric(f) * factorial(p), lcm - c))
        for f, c in zip(shapes, contents)
    )
    return den, terms


def _fold_symbolic(counts: dict[Partition, int], p: int) -> RationalFunction:
    """sum_c counts[c] * xi_p(c) as one reduced rational function, valid for
    n >= p."""
    den, terms = _shape_terms(p)
    num = [0] * len(den.coeffs)
    for f, term in terms:
        w = sum(cnt * character(f, ct) for ct, cnt in counts.items())
        if w:
            for k, c in enumerate(term.coeffs):
                num[k] += w * c
    return RationalFunction(Poly(num), den, p)


@lru_cache(maxsize=None)
def xi_symbolic(ct: Partition) -> RationalFunction:
    """Class integral as a rational function of n, valid for n >= p."""
    return _fold_symbolic({ct: 1}, sum(ct))


@lru_cache(maxsize=None)
def xi_at(ct: Partition, n: int) -> Fraction:
    """Class integral at fixed dimension; shapes with more than n rows drop."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    p = sum(ct)
    fact_sq = factorial(p) ** 2
    total = Fraction(0)
    for f in partitions_of(p):
        if len(f) > n:
            continue
        chi = character(f, ct)
        if not chi:
            continue
        d = dim_symmetric(f)
        total += Fraction(d * d * chi) / (fact_sq * dim_unitary_at(f, n))
    return total


# ---------------------------------------------------------------------------
# stabilizer pair counts

def pair_count(m: CanonicalMoment) -> int:
    """Size of the raw stabilizer pair sum, |S_I|·|S_J|; PAIR_CAP applies to
    it.  The engine composes |S_I|·|S_J|/|H| of these pairs (see
    ``_class_counts_cached``)."""
    return stabilizer(m.I).order * stabilizer(m.J).order


@lru_cache(maxsize=4096)
def _class_counts_cached(I: tuple, J: tuple, Q: tuple) -> dict[Partition, int]:
    p = len(I)
    GI = stabilizer(I)
    GJ = stabilizer(J)
    total = GI.order * GJ.order
    if total > PAIR_CAP:
        raise ValueError(
            f"stabilizer double sum has {total} terms (cap {PAIR_CAP}); "
            "use Monte Carlo estimation for this query"
        )

    # S∘Q∘R == S'∘Q∘R' exactly when R'∘R⁻¹ lies in H' = S_I ∩ Q⁻¹·S_J·Q, the
    # subgroup of S_I that also fixes x -> J[Q[x]].  So S over S_J and R over
    # one element of each right coset H'∘R give every element of S_J·Q·S_I
    # once, and each stands for |H'| pairs.
    reps = GI.cosets([J[Q[x]] for x in range(p)])
    weight = GI.order // reps.order

    # Hold the smaller factor, stream the larger; the composed element is
    # always S∘Q∘R with R a coset representative and S from S_J.
    if reps.order <= GJ.order:
        held = [compose(Q, r) for r in reps]
        stream = GJ
    else:
        held = [compose(s, Q) for s in GJ]
        stream = reps

    def operands(chunk, held):
        """(A, B) for count_pairs, which composes a∘b over A × B."""
        return (chunk, held) if stream is GJ else (held, chunk)

    if _kernel is not None:
        shapes = partitions_of(p)
        base = p + 1
        keys = []
        for ct in shapes:
            k = 0
            for part in ct:
                k = k * base + part
            keys.append(k)
        order = np.argsort(keys)
        keys_arr = np.array([keys[i] for i in order], dtype=np.uint64)
        counts_arr = np.zeros(len(keys), dtype=np.int64)
        held_rows = _packed(held, p)
        for chunk in _chunks(stream):
            _kernel.count_pairs(*operands(_packed(chunk, p), held_rows),
                                keys_arr, counts_arr)
        return {
            shapes[order[i]]: int(c) * weight
            for i, c in enumerate(counts_arr)
            if c
        }

    out: Counter[Partition] = Counter()
    for chunk in _chunks(stream):
        _countpy.count_pairs(*operands(chunk, held), out)
    return {ct: c * weight for ct, c in out.items()}


def _chunks(perms) -> Iterator[list[Perm]]:
    buf: list[Perm] = []
    for perm in perms:
        buf.append(perm)
        if len(buf) == _CHUNK:
            yield buf
            buf = []
    if buf:
        yield buf


def _packed(perms: list[Perm], p: int) -> np.ndarray:
    """Permutations as the rows of a C-contiguous uint8 array."""
    return np.array(perms, dtype=np.uint8).reshape(len(perms), p)


def class_counts(I, J, Q) -> dict[Partition, int]:
    """Counts, by cycle type of S∘Q∘R, of stabilizer pairs (R, S)."""
    return dict(_class_counts_cached(tuple(I), tuple(J), tuple(Q)))


# ---------------------------------------------------------------------------
# moments

def moment_symbolic(m: CanonicalMoment) -> RationalFunction:
    if m.zero:
        return RationalFunction.zero()
    if m.p == 0:
        return RationalFunction.one()
    m = orient(relabel(m))
    return _fold_symbolic(_class_counts_cached(m.I, m.J, m.Q), m.p)


def moment_at(m: CanonicalMoment, n: int | None = None) -> Fraction:
    if m.zero:
        return Fraction(0)
    if n is None:
        n = m.n
    if m.p == 0:
        return Fraction(1)
    m = orient(relabel(m))
    counts = _class_counts_cached(m.I, m.J, m.Q)
    return sum(
        (xi_at(ct, n) * cnt for ct, cnt in counts.items()), Fraction(0)
    )


def evaluate(q: MomentQuery, symbolic: bool = False):
    """Full pipeline: canonicalize, relabel, orient, evaluate.

    Returns a Fraction (fixed n) or a RationalFunction (symbolic, valid for
    n >= p).
    """
    m = canonicalize(q)
    if symbolic:
        return moment_symbolic(m)
    return moment_at(m, q.n)
