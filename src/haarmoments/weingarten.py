"""The group-sum engine for exact unitary moments.

A canonical moment <I,J | I,L>, the normal form that
``queries.canonicalize`` and ``queries.CanonicalMoment`` build, with
conjugated pairs (I[a], J[a]) and plain pairs (I[a], L[a]), is evaluated as

    sum_c  N(I, J, Q | c) * xi_p(c)

where Q is any permutation with J[Q[a]] == L[a], c runs over cycle types of
degree p, N counts the pairs (R, S) over the stabilizers of I and J whose
composition S∘Q∘R falls in class c, and xi_p is the class integral

    xi_p(c) = sum_f  d_f^2 chi_f(c) / ((p!)^2 dbar_f)

over irreps f of the symmetric group (at fixed dimension n, restricted to f
with at most n rows; symbolically, over all f, valid for n >= p).

The engine never sums over classes: it folds the counts once into the shape
weights w_f = sum_c N(c) chi_f(c), a dict {f: w_f} of the nonzero ones, and
keeps only these per query (``_shape_weights``, the one per-query cache).
They are nonzero only on shapes that dominate both block shapes, and a
p-cycle's characters only on the p hooks, so the dict is often far smaller
than the partitions of p.  The moment is sum_f w_f d_f^2 / ((p!)^2 dbar_f),
and each route folds it over the dict alone, one term per shape in it:

* symbolically, (p!)^2 dbar_f = d_f p! P_f(n) where P_f(n) = prod (n + content)
  over the cells of f, so every term shares the denominator (p!)^2 D_p(n) with
  D_p the lcm of the P_f, whose factors have a closed form (``_lcm``).
  ``_fold_symbolic`` sums the numerators w_f d_f p! D_p/P_f, cached per shape
  (``_term``), in integers over that denominator and reduces once, by
  synthetic division with the linear factors n + content of D_p.
* at fixed n, P_f(n) is an integer, zero exactly when f has more than n rows,
  and the term is w_f / (H_f P_f(n)), H_f = p!/d_f the hook product of f.
  ``_fold_at`` sums w_f L/(H_f P_f(n)) over the shapes in the dict with at
  most n rows, L the lcm of their H_f P_f(n), and divides once by L.

A class integral xi_p(c) is the same fold of the character column
{f: chi_f(c)} alone.

The weights are found on one of two routes, never by enumerating every
pair, and both give the same integers:

* compositions: S∘Q∘R takes each element of the double coset S_J·Q·S_I
  exactly |H| times, H = S_J ∩ Q·S_I·Q⁻¹, so the engine takes Q as the
  first fit of L into J (the only route that needs a Q), composes each
  element once, weights its class by |H| and folds the class counts with
  the characters.  The cycle types are counted by ``_counting``: by a
  tuple loop up to ``_counting._LOOP_MAX`` (2^16) compositions, and above
  that a tile at a time in numpy, whose import only such products repay.
* tabloids: Young's rule gives w_f from counts of nu-tabloids, for the
  shapes nu that dominate the block shapes of both I and J, except the
  last, whose weight the regular character gives (``_tabloids``).  No
  character table is needed.

``_shape_weights`` is keyed on the form's (I, J, L) as they come, since
every ``CanonicalMoment`` is a normal form, and takes the route with the
smaller estimated cost, in compositions, priced from the form's
multiplicities alone: |S_I|·|S_J|/|H| for the first, and for the second
``_tabloids.TABLOID_WEIGHT`` times the number of tabloids it counts, which
depends on the block shapes alone (``_tabloids.cost``, cached per shape
pair).  The weight was measured against the tuple loop, so an exact query
imports numpy only when the compositions are both cheaper and more than
2^16.  A query whose cheaper route still costs more than PAIR_CAP is
refused; Monte Carlo estimation is the intended tool there.
``class_counts``, the public enumeration, keeps its own cap on the raw pair
sum |S_I|·|S_J|.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, lcm, perm, prod

from . import _tabloids
from ._counting import count_compositions
from ._tabloids import PAIR_CAP
from .partitions import (
    Partition,
    _hook_product,
    compose,
    contents,
    dim_symmetric,
    schur_expansion,
)
from .queries import (CanonicalMoment, MomentQuery, _first_fit, _order,
                      canonicalize)
from .ratfun import Poly, RationalFunction, _divide_linear, expand
from .stabilizer import coset_reps


def backend_name() -> str:
    """The counting backend, for benchmark records: there is only one."""
    return "pure-python"


# ---------------------------------------------------------------------------
# shape weights and the two folds

def _weights(counts: dict[Partition, int]) -> dict[Partition, int]:
    """The shape weights {f: w_f} over the w_f = sum_c counts[c] chi_f(c)
    that are not 0."""
    w: dict[Partition, int] = {}
    for ct, cnt in counts.items():
        for f, chi in schur_expansion("p", ct).items():
            w[f] = w.get(f, 0) + cnt * chi
    return {f: x for f, x in w.items() if x}


@lru_cache(maxsize=None)
def _lcm(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shifts k of D_p(n) = prod(n + k), the lcm of the P_f(n) over the
    shapes f of p, and the coefficients of p! D_p(n).  Content k occurs m
    times in f exactly when f holds the m x (m + |k|) rectangle that starts
    on k's diagonal, so D_p has the largest such m with m(m + |k|) <= p."""
    shifts = tuple(k for k in range(1 - p, p)
                   for _ in range((isqrt(k * k + 4 * p) - abs(k)) // 2))
    return shifts, tuple(expand(factorial(p), shifts))


@lru_cache(maxsize=None)
def _term(f: Partition) -> tuple[int, ...]:
    """The coefficients of the numerator d_f p! D_p(n)/P_f(n) of the term
    d_f^2 / ((p!)^2 dbar_f) of the shape f of p: p! D_p(n) divided by
    n + c for each content c of f, every division exact."""
    coeffs = list(_lcm(sum(f))[1])
    for c in contents(f):
        coeffs, _ = _divide_linear(coeffs, c)
    d = dim_symmetric(f)
    return tuple(d * x for x in coeffs)


def _fold_symbolic(weights: dict[Partition, int], p: int) -> RationalFunction:
    """sum_f weights[f] d_f^2 / ((p!)^2 dbar_f) as one reduced rational
    function, valid for n >= p."""
    shifts = _lcm(p)[0]
    num = [0] * (len(shifts) + 1)
    for f, w in weights.items():
        for k, c in enumerate(_term(f)):
            num[k] += w * c
    return RationalFunction.over_linear(Poly(num), shifts, p, factorial(p) ** 2)


def _fold_at(weights: dict[Partition, int], n: int) -> Fraction:
    """sum_f weights[f] d_f^2 / ((p!)^2 dbar_f(n)) = weights[f] / (H_f
    P_f(n)), H_f the hook product of f, over the shapes with at most n
    rows, the others' P_f(n) being 0: one division by L, the lcm of their
    H_f P_f(n).  Row i of f gives P_f(n) the factors n - i, ...,
    n - i + f_i - 1."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    terms = [(w, _hook_product(f) * prod(perm(n - i + row - 1, row)
                                         for i, row in enumerate(f)))
             for f, w in weights.items() if len(f) <= n]
    common = lcm(*(v for _, v in terms))
    return Fraction(sum(w * (common // v) for w, v in terms), common)


@lru_cache(maxsize=None)
def xi_symbolic(ct: Partition) -> RationalFunction:
    """Class integral as a rational function of n, valid for n >= p."""
    return _fold_symbolic(schur_expansion("p", ct), sum(ct))


@lru_cache(maxsize=4096)
def xi_at(ct: Partition, n: int) -> Fraction:
    """Class integral at fixed dimension; shapes with more than n rows drop."""
    return _fold_at(schur_expansion("p", ct), n)


# ---------------------------------------------------------------------------
# stabilizer pair counts and the two routes to the shape weights

def pair_count(m: CanonicalMoment) -> int:
    """Size of the raw stabilizer pair sum, |S_I|·|S_J|; ``class_counts``
    caps it.  The engine composes |S_I|·|S_J|/|H| of these pairs, or counts
    tabloids instead (see ``_shape_weights``)."""
    return _order(m.I) * _order(m.J)


def class_counts(I, J, Q) -> dict[Partition, int]:
    """Counts, by cycle type of S∘Q∘R, of stabilizer pairs (R, S)."""
    total = _order(I) * _order(J)
    if total > PAIR_CAP:
        raise ValueError(
            f"stabilizer double sum has {total} terms (cap {PAIR_CAP}); "
            "use Monte Carlo estimation for this query"
        )
    return _enumerate(I, J, [J[b] for b in Q], Q)


def _enumerate(I, J, L, Q) -> dict[Partition, int]:
    """Class counts of the stabilizer pairs, for any Q with J[Q[x]] == L[x]:
    one composition per element of the double coset S_J·Q·S_I, each
    weighted by |H'|.

    S∘Q∘R == S'∘Q∘R' exactly when R'∘R⁻¹ lies in H' = S_I ∩ Q⁻¹·S_J·Q, the
    subgroup of S_I that also fixes L.  So S over S_J and R over one
    representative of each right coset H'∘R give every element once."""
    weight = _order(zip(I, L))
    cosets, elements = _order(I) // weight, _order(J)
    # Hold the smaller factor, stream the larger.  Streaming R against held
    # S∘Q composes R∘S∘Q, a conjugate of S∘Q∘R with the same cycle type.
    if cosets <= elements:
        counts = count_compositions(coset_reps(J), elements,
                                    [compose(Q, r) for r in coset_reps(I, L)])
    else:
        counts = count_compositions(coset_reps(I, L), cosets,
                                    [compose(s, Q) for s in coset_reps(J)])
    return {ct: c * weight for ct, c in counts.items()}


@lru_cache(maxsize=4096)
def _shape_weights(I: tuple, J: tuple, L: tuple) -> dict[Partition, int]:
    """The nonzero shape weights {f: w_f} of the normal form <I,J | I,L>
    of a ``CanonicalMoment``, by the cheaper route; refused when both cost
    more than PAIR_CAP.  The double coset has |S_I|·|S_J|/|H| elements, H
    the stabilizer of the plain pairs, and the tabloid estimate depends on
    the block shapes alone.  Only the composition route builds a Q, the
    first fit of L into J.  The dict is the cached one: read it, do not
    change it."""
    compositions = _order(I) * _order(J) // _order(zip(I, L))
    tabloids = _tabloids.cost(_tabloids._shape(I), _tabloids._shape(J))
    if min(compositions, tabloids) > PAIR_CAP:
        # the tabloid estimate stops summing once it passes the cap, so the
        # message names the cap, not the partial sum
        raise ValueError(
            f"shape weights cost more than {PAIR_CAP} compositions "
            f"or their worth in tabloids (cap {PAIR_CAP}); "
            "use Monte Carlo estimation for this query"
        )
    if tabloids < compositions:
        return _tabloids.shape_weights(I, J, L)
    return _weights(_enumerate(I, J, L, _first_fit(J, L)))


# ---------------------------------------------------------------------------
# moments

def moment_symbolic(m: CanonicalMoment) -> RationalFunction:
    if m.zero:
        return RationalFunction.zero()
    if m.p == 0:
        return RationalFunction.one()
    return _fold_symbolic(_shape_weights(m.I, m.J, m.L), m.p)


def moment_at(m: CanonicalMoment, n: int | None = None) -> Fraction:
    if n is None:
        n = m.n
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if m.zero:
        return Fraction(0)
    if m.p == 0:
        return Fraction(1)
    return _fold_at(_shape_weights(m.I, m.J, m.L), n)


def evaluate(q: MomentQuery, symbolic: bool = False):
    """Full pipeline: ``canonicalize`` builds the normal form, and its
    shape weights are folded.

    Returns a Fraction (fixed n) or a RationalFunction (symbolic, valid for
    n >= p).
    """
    m = canonicalize(q)
    if symbolic:
        return moment_symbolic(m)
    return moment_at(m, q.n)
