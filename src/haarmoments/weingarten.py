"""The group-sum engine for exact unitary moments.

A canonical moment <I,J | I,J_Q> is evaluated as

    sum_c  N(I, J, Q | c) * xi_p(c)

where c runs over cycle types of degree p, N counts the pairs (R, S) over the
stabilizers of I and J whose composition S∘Q∘R falls in class c, and xi_p is
the class integral

    xi_p(c) = sum_f  d_f^2 chi_f(c) / ((p!)^2 dbar_f)

over irreps f of the symmetric group (at fixed dimension n, restricted to f
with at most n rows; symbolically, over all f, valid for n >= p).

The engine never sums over classes: it folds the counts once into the shape
weights w_f = sum_c N(c) chi_f(c), a tuple in ``partitions_of(p)`` order, and
keeps only these per query (``_shape_weights``, the one per-query cache).  The
moment is then sum_f w_f d_f^2 / ((p!)^2 dbar_f), folded on one of two routes
with per-shape numerators over a common denominator, in the same order:

* symbolically, (p!)^2 dbar_f = d_f p! P_f(n) where P_f(n) = prod (n + content)
  over the cells of f, so every term shares the denominator (p!)^2 D_p(n) with
  D_p the lcm of the P_f.  ``_fold_symbolic`` sums the numerators
  w_f d_f p! D_p/P_f in integers over that denominator and reduces once, by
  synthetic division with the linear factors n + content of D_p.
* at fixed n, P_f(n) is an integer, zero exactly when f has more than n rows,
  and the term is w_f d_f / (p! P_f(n)).  ``_fold_at`` sums w_f d_f L/P_f(n)
  over the shapes with at most n rows, L the lcm of their P_f(n), and divides
  once by p! L.

A class integral xi_p(c) is the same fold of the characters chi_f(c) alone.

The weights are found on one of two routes, never by enumerating every
pair, and both give the same integers:

* compositions: S∘Q∘R takes each element of the double coset S_J·Q·S_I
  exactly |H| times, H = S_J ∩ Q·S_I·Q⁻¹, so the engine composes each
  element once, weights its class by |H| and folds the class counts with
  the characters.  The cycle types are counted by ``_counting``: by a
  tuple loop up to ``_counting._LOOP_MAX`` (2^16) compositions, and above
  that a tile at a time in numpy, whose import only such products repay.
* tabloids: Young's rule gives w_f from counts of nu-tabloids, for the
  shapes nu that dominate the block shapes of both I and J, except the
  last, whose weight the regular character gives (``_tabloids``).  No
  character table is needed.

``_shape_weights`` takes the route with the smaller estimated cost, in
compositions: |S_I|·|S_J|/|H| for the first, and for the second
``_tabloids.TABLOID_WEIGHT`` times the number of tabloids it counts, which
depends on the block shapes alone.  The weight was measured against the
tuple loop, so an exact query imports numpy only when the compositions are
both cheaper and more than 2^16.  A query whose cheaper route still costs
more than PAIR_CAP is refused; Monte Carlo estimation is the intended tool
there.  ``class_counts``, the public enumeration, keeps its own cap on the
raw pair sum |S_I|·|S_J|.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from . import _tabloids
from ._counting import count_compositions
from .partitions import (
    Partition,
    compose,
    contents,
    dim_symmetric,
    partitions_of,
    schur_expansion,
)
from .queries import CanonicalMoment, MomentQuery, canonicalize, orient, relabel
from .ratfun import Poly, RationalFunction, expand
from .stabilizer import stabilizer

PAIR_CAP = 10**8


def backend_name() -> str:
    """The counting backend, for benchmark records: there is only one."""
    return "pure-python"


# ---------------------------------------------------------------------------
# shape weights and the two folds

def _characters(ct: Partition) -> tuple[int, ...]:
    """chi_f(ct) for every shape f, in ``partitions_of(p)`` order: a column
    of the cached power-sum expansion."""
    chi = schur_expansion("p", ct)
    return tuple(chi.get(f, 0) for f in partitions_of(sum(ct)))


def _weights(counts: dict[Partition, int], p: int) -> tuple[int, ...]:
    """The shape weights w_f = sum_c counts[c] chi_f(c), in
    ``partitions_of(p)`` order."""
    w = [0] * len(partitions_of(p))
    for ct, cnt in counts.items():
        w = [a + cnt * chi for a, chi in zip(w, _characters(ct))]
    return tuple(w)


@lru_cache(maxsize=None)
def _shape_terms(p: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The shifts k of D_p(n) = prod(n + k) and, per shape f of p in
    ``partitions_of(p)`` order, the coefficients of the numerator
    d_f p! D_p(n)/P_f(n) of its term d_f^2 / ((p!)^2 dbar_f)."""
    shapes = partitions_of(p)
    cells = [Counter(contents(f)) for f in shapes]
    lcm_factors: Counter[int] = Counter()
    for c in cells:
        lcm_factors |= c
    terms = tuple(
        tuple(expand(dim_symmetric(f) * factorial(p),
                     (lcm_factors - c).elements()))
        for f, c in zip(shapes, cells)
    )
    return tuple(lcm_factors.elements()), terms


def _fold_symbolic(weights: tuple[int, ...], p: int) -> RationalFunction:
    """sum_f weights[f] d_f^2 / ((p!)^2 dbar_f) as one reduced rational
    function, valid for n >= p."""
    shifts, terms = _shape_terms(p)
    num = [0] * (len(shifts) + 1)
    for w, term in zip(weights, terms):
        if w:
            for k, c in enumerate(term):
                num[k] += w * c
    return RationalFunction.over_linear(Poly(num), shifts, p, factorial(p) ** 2)


@lru_cache(maxsize=4096)
def _fixed_n_terms(p: int, n: int) -> tuple[int, tuple[int, ...]]:
    """At dimension n: the common denominator p! L, L the lcm of P_f(n) over
    the shapes f of p with at most n rows, and per shape f in
    ``partitions_of(p)`` order the numerator d_f L/P_f(n) of its term
    d_f^2 / ((p!)^2 dbar_f(n)) = d_f / (p! P_f(n)); 0 for a shape with more
    than n rows, whose P_f(n) is 0."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    shapes = partitions_of(p)
    values = [prod(n + c for c in contents(f)) for f in shapes]
    common = lcm(*(v for v in values if v))
    return factorial(p) * common, tuple(
        dim_symmetric(f) * (common // v) if v else 0
        for f, v in zip(shapes, values))


def _fold_at(weights: tuple[int, ...], p: int, n: int) -> Fraction:
    """sum_f weights[f] d_f^2 / ((p!)^2 dbar_f(n)) over the shapes with at
    most n rows."""
    den, terms = _fixed_n_terms(p, n)
    return Fraction(sum(w * t for w, t in zip(weights, terms)), den)


@lru_cache(maxsize=None)
def xi_symbolic(ct: Partition) -> RationalFunction:
    """Class integral as a rational function of n, valid for n >= p."""
    return _fold_symbolic(_characters(ct), sum(ct))


@lru_cache(maxsize=4096)
def xi_at(ct: Partition, n: int) -> Fraction:
    """Class integral at fixed dimension; shapes with more than n rows drop."""
    return _fold_at(_characters(ct), sum(ct), n)


# ---------------------------------------------------------------------------
# stabilizer pair counts and the two routes to the shape weights

def pair_count(m: CanonicalMoment) -> int:
    """Size of the raw stabilizer pair sum, |S_I|·|S_J|; ``class_counts``
    caps it.  The engine composes |S_I|·|S_J|/|H| of these pairs, or counts
    tabloids instead (see ``_shape_weights``)."""
    return stabilizer(m.I).order * stabilizer(m.J).order


def class_counts(I, J, Q) -> dict[Partition, int]:
    """Counts, by cycle type of S∘Q∘R, of stabilizer pairs (R, S)."""
    GI, GJ, reps = _double_coset(I, J, Q)
    total = GI.order * GJ.order
    if total > PAIR_CAP:
        raise ValueError(
            f"stabilizer double sum has {total} terms (cap {PAIR_CAP}); "
            "use Monte Carlo estimation for this query"
        )
    return _enumerate(GI, GJ, reps, Q)


def _double_coset(I, J, Q):
    """S_I, S_J and one R from each right coset H'∘R in S_I.

    S∘Q∘R == S'∘Q∘R' exactly when R'∘R⁻¹ lies in H' = S_I ∩ Q⁻¹·S_J·Q, the
    subgroup of S_I that also fixes x -> J[Q[x]].  So S over S_J and R over
    the representatives give every element of S_J·Q·S_I once, and each
    stands for |H'| pairs."""
    GI = stabilizer(I)
    return GI, stabilizer(J), GI.cosets([J[Q[x]] for x in range(len(I))])


def _enumerate(GI, GJ, reps, Q) -> dict[Partition, int]:
    """Class counts of the stabilizer pairs, one composition per element of
    the double coset, each weighted by |H'|."""
    weight = GI.order // reps.order
    # Hold the smaller factor, stream the larger.  Streaming R against held
    # S∘Q composes R∘S∘Q, a conjugate of S∘Q∘R with the same cycle type.
    if reps.order <= GJ.order:
        counts = count_compositions(GJ, GJ.order,
                                    [compose(Q, r) for r in reps])
    else:
        counts = count_compositions(reps, reps.order,
                                    [compose(s, Q) for s in GJ])
    return {ct: c * weight for ct, c in counts.items()}


def _costs(GI, GJ, reps) -> tuple[int, int]:
    """The work of the two routes, in compositions: the double coset's size
    |S_I|·|S_J|/|H|, and the tabloid route's estimate, summed only until it
    passes the smaller of that size and PAIR_CAP, which is all the choice
    needs.  Both depend on block sizes and |H| alone."""
    compositions = reps.order * GJ.order
    return compositions, _tabloids.cost(GI.shape, GJ.shape,
                                        min(compositions, PAIR_CAP))


@lru_cache(maxsize=4096)
def _shape_weights(I: tuple, J: tuple, Q: tuple) -> tuple[int, ...]:
    """The shape weights of <I,J | I,J_Q>, keyed on its oriented form, by
    the cheaper route; refused when both cost more than PAIR_CAP."""
    GI, GJ, reps = _double_coset(I, J, Q)
    compositions, tabloids = _costs(GI, GJ, reps)
    if min(compositions, tabloids) > PAIR_CAP:
        raise ValueError(
            f"shape weights cost {min(compositions, tabloids)} compositions "
            f"or their worth in tabloids (cap {PAIR_CAP}); "
            "use Monte Carlo estimation for this query"
        )
    p = len(I)
    if tabloids < compositions:
        weights = _tabloids.shape_weights(I, J, Q)
        return tuple(weights.get(f, 0) for f in partitions_of(p))
    return _weights(_enumerate(GI, GJ, reps, Q), p)


# ---------------------------------------------------------------------------
# moments

def moment_symbolic(m: CanonicalMoment) -> RationalFunction:
    if m.zero:
        return RationalFunction.zero()
    if m.p == 0:
        return RationalFunction.one()
    m = orient(relabel(m))
    return _fold_symbolic(_shape_weights(m.I, m.J, m.Q), m.p)


def moment_at(m: CanonicalMoment, n: int | None = None) -> Fraction:
    if m.zero:
        return Fraction(0)
    if n is None:
        n = m.n
    if m.p == 0:
        return Fraction(1)
    m = orient(relabel(m))
    return _fold_at(_shape_weights(m.I, m.J, m.Q), m.p, n)


def evaluate(q: MomentQuery, symbolic: bool = False):
    """Full pipeline: canonicalize, relabel, orient, evaluate.

    Returns a Fraction (fixed n) or a RationalFunction (symbolic, valid for
    n >= p).
    """
    m = canonicalize(q)
    if symbolic:
        return moment_symbolic(m)
    return moment_at(m, q.n)
