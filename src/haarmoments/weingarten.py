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
summed in integers over that denominator and reduced once, by synthetic
division with the linear factors n + content of D_p.

At fixed n, P_f(n) is an integer, zero exactly when f has more than n rows,
and the term is chi_f(c) d_f / (p! P_f(n)).  xi_p(c) is the integer sum
sum_f chi_f(c) d_f L/P_f(n) over the shapes with at most n rows, L the lcm of
their P_f(n), divided once by p! L.

N is not found by enumerating every pair: the composition S∘Q∘R takes each
element of the double coset S_J·Q·S_I exactly |H| times, H = S_J ∩ Q·S_I·Q⁻¹,
so the engine composes each element once and weights its class by |H|.  The
cycle types are counted by ``_counting``: a tile at a time in numpy, or by a
tuple loop for small products.  Queries whose raw pair sum |S_I|·|S_J|
exceeds PAIR_CAP are refused; Monte Carlo estimation is the intended tool
there.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from ._counting import count_compositions
from .partitions import (
    Partition,
    character,
    compose,
    dim_symmetric,
    partitions_of,
)
from .queries import CanonicalMoment, MomentQuery, canonicalize, orient, relabel
from .ratfun import Poly, RationalFunction
from .stabilizer import stabilizer

PAIR_CAP = 10**8


def backend_name() -> str:
    """The counting backend, for benchmark records: there is only one."""
    return "pure-python"


# ---------------------------------------------------------------------------
# class integrals

@lru_cache(maxsize=None)
def _shape_terms(p: int) -> tuple[Poly, tuple[tuple[Partition, Poly], ...]]:
    """The common denominator (p!)^2 D_p(n) and, per shape f of p, the
    numerator d_f p! D_p(n)/P_f(n) of its term d_f^2 / ((p!)^2 dbar_f)."""
    shapes = partitions_of(p)
    contents = [Counter(_contents(f)) for f in shapes]
    lcm_factors: Counter[int] = Counter()
    for c in contents:
        lcm_factors |= c

    def times_factors(const: int, factors: Counter) -> Poly:
        out = Poly.const(const)
        for k in factors.elements():
            out = out * Poly.n_plus(k)
        return out

    den = times_factors(factorial(p) ** 2, lcm_factors)
    terms = tuple(
        (f, times_factors(dim_symmetric(f) * factorial(p), lcm_factors - c))
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
def _fixed_n_terms(
        p: int, n: int) -> tuple[int, tuple[tuple[Partition, int], ...]]:
    """At dimension n: the common denominator p! L, L the lcm of P_f(n) over
    the shapes f of p with at most n rows, and per such f the numerator
    d_f L/P_f(n) of its term d_f^2 / ((p!)^2 dbar_f(n)) = d_f / (p! P_f(n))."""
    shapes = [f for f in partitions_of(p) if len(f) <= n]
    values = [prod(n + c for c in _contents(f)) for f in shapes]
    common = lcm(*values)
    return factorial(p) * common, tuple(
        (f, dim_symmetric(f) * (common // v)) for f, v in zip(shapes, values))


@lru_cache(maxsize=None)
def xi_at(ct: Partition, n: int) -> Fraction:
    """Class integral at fixed dimension; shapes with more than n rows drop."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    den, terms = _fixed_n_terms(sum(ct), n)
    return Fraction(sum(character(f, ct) * w for f, w in terms), den)


def _contents(f: Partition) -> list[int]:
    """The content j - i of each cell (i, j) of f."""
    return [j - i for i, row in enumerate(f) for j in range(row)]


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

    # Hold the smaller factor, stream the larger.  Streaming R against held
    # S∘Q composes R∘S∘Q, a conjugate of S∘Q∘R with the same cycle type.
    if reps.order <= GJ.order:
        counts = count_compositions(GJ, [compose(Q, r) for r in reps])
    else:
        counts = count_compositions(reps, [compose(s, Q) for s in GJ])
    return {ct: c * weight for ct, c in counts.items()}


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
