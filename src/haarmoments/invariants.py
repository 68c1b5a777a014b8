"""Closed forms for the moment families with known invariant-method answers,
the queries they correspond to, a library of exact cross-relations, and the
choice of evaluation route.

``moment`` is the one place that chooses between a closed form and the group
engine; the CLI's ``moment``, ``--batch``, ``xint`` and ``mc`` all go through
it.  ``weingarten.evaluate`` stays the group engine alone, the reference the
closed forms are checked against.

Families (all as reduced rational functions of the dimension n):

* fan: one distinct row index, columns split into multiplicity groups.
* z: two row dots joined through a shared column (three multiplicities).
* exchange loop E(2) and its two-parameter generalizations x4 / x5.
* the seven degree-3 integrals (direct: a, b; exchange: c..g).

Each closed form is pinned independently of the group engine, so equality of
the two routes is a genuine cross-check, never a tautology.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import Sequence

from . import weingarten
from .queries import CanonicalMoment, MomentQuery, _counts, canonicalize
from .ratfun import Poly, RationalFunction

XWeights = tuple[int, int, int, int, int, int, int, int]


# ---------------------------------------------------------------------------
# fans

@lru_cache(maxsize=4096)
def fan(ms: tuple[int, ...]) -> RationalFunction:
    """Moment of a one-row monomial whose columns repeat with multiplicities
    ms: product(m_i!) / ((n)(n+1)...(n+p-1)), p = sum(ms)."""
    if not ms or any(m < 1 for m in ms):
        raise ValueError("multiplicities must be positive (drop absent lines)")
    p = sum(ms)
    num = 1
    for m in ms:
        num *= factorial(m)
    return RationalFunction.over_linear(Poly.const(num), range(p), 1)


def fan_query(ms: Sequence[int], n: int | None = None,
              spectator: bool = False) -> MomentQuery:
    """Direct query: row 1 to columns 1..t with the given multiplicities.

    With ``spectator`` a second row carrying one unrelated thick line is
    appended — the same fan embedded in a larger diagram.
    """
    ms = tuple(m for m in ms if m > 0)
    I = tuple(1 for m in ms for _ in range(m))
    J = tuple(c + 1 for c, m in enumerate(ms) for _ in range(m))
    if spectator:
        I += (2,)
        J += (len(ms) + 1,)
    need = max((len(ms) + (2 if spectator else 0)), 1)
    q = MomentQuery.make(n if n is not None else need, I, J, I, J)
    return q


# ---------------------------------------------------------------------------
# z integrals

@lru_cache(maxsize=4096)
def z_integral(m1: int, m2: int, m3: int) -> RationalFunction:
    """Two rows i, j with edges i-a (m1), j-a (m2), j-b (m3).

    m1! m2! m3! (n-2)! (n-1)! (n+m1+m3-2)!
    / ((n+m1-2)! (n+m3-2)! (n+m1+m2+m3-1)!),
    written as a product of linear factors: the numerator's n+m1-1 ..
    n+m1+m3-2 cancel against factors of the denominator.  Degenerate multiplicities reduce to fans, which the same
    expression already covers.
    """
    if min(m1, m2, m3) < 0:
        raise ValueError("multiplicities must be non-negative")
    p = m1 + m2 + m3
    shifts = Counter(j - 1 for j in range(m3)) + Counter(range(p))
    shifts -= Counter(m1 - 1 + j for j in range(m3))
    num = factorial(m1) * factorial(m2) * factorial(m3)
    return RationalFunction.over_linear(Poly.const(num), shifts.elements(), 2)


def z_query(m1: int, m2: int, m3: int, n: int | None = None) -> MomentQuery:
    I = (1,) * m1 + (2,) * (m2 + m3)
    J = (1,) * (m1 + m2) + (2,) * m3
    need = max(len(set(I)), len(set(J)), 1)
    return MomentQuery.make(n if n is not None else max(need, 2), I, J, I, J)


# ---------------------------------------------------------------------------
# the elementary exchange moment and its two routes

def exchange_e2() -> RationalFunction:
    """<U*_11 U*_22 U_12 U_21> = -1/(n(n-1)(n+1)).

    Internally confirms that the two derivation routes (column rotation and
    unitarity sum) reduce to the same function before returning it.
    """
    out = RationalFunction.over_linear(Poly.const(-1), (-1, 0, 1), 2)
    if not (out == exchange_e2_by_rotation() == exchange_e2_by_unitarity()):
        raise AssertionError("exchange-moment routes disagree")
    return out


def exchange_e2_by_rotation() -> RationalFunction:
    """E(2) = F(1,1) - Z(1,0,1), the two-column rotation route."""
    return (fan((1, 1)) - z_integral(1, 0, 1)).with_validity(2)


def exchange_e2_by_unitarity() -> RationalFunction:
    """E(2) = -F(1,1)/(n-1), the unitarity-sum route."""
    return (-fan((1, 1)) / RationalFunction.over_linear(Poly.n_plus(-1), ())
            ).with_validity(2)


def e2_query(n: int | None = None) -> MomentQuery:
    return MomentQuery.make(n if n is not None else 2,
                            (1, 2), (1, 2), (1, 2), (2, 1))


# ---------------------------------------------------------------------------
# degree-3 catalog

_D3_FORMS: dict[str, tuple] = {
    # key: (numerator, den_shifts, validity)
    "6a": (Poly((1,)), (-1, 0, 2), 3),
    "6b": (Poly((-2, 0, 1)), (-2, -1, 0, 1, 2), 3),  # (n^2-2)/...
    "6c": (Poly((-2,)), (-1, 0, 1, 2), 2),
    "6d": (Poly((-2,)), (-1, 0, 1, 2), 2),
    "6e": (Poly((-1,)), (-1, 0, 1, 2), 3),
    "6f": (Poly((-1,)), (-2, -1, 1, 2), 3),
    "6g": (Poly((2,)), (-2, -1, 0, 1, 2), 3),
}

_D3_QUERIES: dict[str, tuple] = {
    "6a": ((1, 1, 2), (1, 2, 3), (1, 1, 2), (1, 2, 3)),
    "6b": ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)),
    "6c": ((1, 2, 1), (1, 2, 2), (1, 2, 1), (2, 1, 2)),
    "6d": ((1, 2, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1)),
    "6e": ((1, 2, 2), (1, 2, 3), (1, 2, 2), (2, 1, 3)),
    "6f": ((1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 1, 3)),
    "6g": ((1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 3, 1)),
}

DEGREE3_KEYS = tuple(sorted(_D3_FORMS))


@lru_cache(maxsize=None)
def degree3(key: str) -> RationalFunction:
    """One of the seven degree-3 closed forms, keyed 6a..6g."""
    try:
        num, den_shifts, validity = _D3_FORMS[key]
    except KeyError:
        raise ValueError(f"unknown degree-3 integral {key!r}") from None
    return RationalFunction.over_linear(num, den_shifts, validity)


def degree3_query(key: str, n: int | None = None) -> MomentQuery:
    I, J, K, L = _D3_QUERIES[key]
    need = max(max(I), max(J))
    return MomentQuery.make(n if n is not None else need, I, J, K, L)


# ---------------------------------------------------------------------------
# x loop integrals (two rows i, j; two columns a, b; edge weights
# r: i-a, s: i-b, t: j-b, u: j-a for the conjugated factors and primed
# weights for the plain ones)

def x_query(weights: Sequence[int], n: int | None = None) -> MomentQuery:
    r, s, t, u, rp, sp, tp, up = weights
    if min(weights) < 0:
        raise ValueError("edge weights must be non-negative")
    if not x_check_balance(weights):
        raise ValueError("x0 constraints violated")
    I = (1,) * (r + s) + (2,) * (t + u)
    J = (1,) * r + (2,) * s + (2,) * t + (1,) * u
    K = (1,) * (rp + sp) + (2,) * (tp + up)
    L = (1,) * rp + (2,) * sp + (2,) * tp + (1,) * up
    return MomentQuery.make(n if n is not None else 2, I, J, K, L)


def x_check_balance(weights: Sequence[int]) -> bool:
    """Row and column balance: the monomial averages to zero without it."""
    r, s, t, u, rp, sp, tp, up = weights
    return (r + s == rp + sp) and (t + u == tp + up) and (s + t == sp + tp)


@lru_cache(maxsize=4096)
def x_special(variant: str, t: int, u: int) -> RationalFunction:
    """Closed forms for the two one-step exchange loops.

    x4: weights (1,0,t,u | 0,1,t-1,u+1), t >= 1, u >= 0:
        -t! (u+1)! / ((n-1) n (n+1) ... (n+t+u))
    x5: weights (0,1,t,u | 1,0,t+1,u-1), t >= 0, u >= 1:
        -(t+1)! u! / (same denominator)
    """
    if variant == "x4":
        if t < 1 or u < 0:
            raise ValueError("x4 requires t >= 1, u >= 0")
        num = -factorial(t) * factorial(u + 1)
    elif variant == "x5":
        if t < 0 or u < 1:
            raise ValueError("x5 requires t >= 0, u >= 1")
        num = -factorial(t + 1) * factorial(u)
    else:
        raise ValueError(f"unknown x variant {variant!r}")
    return RationalFunction.over_linear(Poly.const(num), range(-1, t + u + 1),
                                        2)


def x_special_weights(variant: str, t: int, u: int) -> XWeights:
    if variant == "x4":
        return (1, 0, t, u, 0, 1, t - 1, u + 1)
    if variant == "x5":
        return (0, 1, t, u, 1, 0, t + 1, u - 1)
    raise ValueError(f"unknown x variant {variant!r}")


def x_family(weights: Sequence[int]) -> str | None:
    """Name the one-step exchange loop (x4 or x5) of a balanced x-loop
    weight vector, or None."""
    r, s, t, u, rp, sp, tp, up = weights
    if (r, s, rp, sp) == (1, 0, 0, 1) and (tp, up) == (t - 1, u + 1):
        return "x4"
    if (r, s, rp, sp) == (0, 1, 1, 0) and (tp, up) == (t + 1, u - 1):
        return "x5"
    return None


def x_integral(weights: Sequence[int], n: int | None = None,
               symbolic: bool = False):
    """Evaluate an x-loop query (at n=2 when n is omitted) by the route
    ``moment`` chooses: a closed form where one matches, the group engine
    otherwise."""
    return moment(x_query(weights, n), symbolic=symbolic)[0]


# ---------------------------------------------------------------------------
# exact relation library (every term evaluated by the group engine, so each
# relation is an independent consistency check across whole query families)

def _sym(q: MomentQuery) -> RationalFunction:
    return weingarten.evaluate(q, symbolic=True)


def _linear(k: int) -> RationalFunction:
    """The polynomial n + k as a rational function."""
    return RationalFunction.over_linear(Poly.n_plus(k), ())


def fanned_z_query(m1: int, m2: int, m3: int, split: int,
                   n: int | None = None) -> MomentQuery:
    """The z diagram with its weight-m3 line fanned into (split, m3-split)."""
    if not 0 <= split <= m3:
        raise ValueError("split out of range")
    I = (1,) * m1 + (2,) * (m2 + m3)
    J = (1,) * (m1 + m2) + (2,) * split + (3,) * (m3 - split)
    need = max(J) if J else 1
    return MomentQuery.make(n if n is not None else max(need, 2), I, J, I, J)


def _rel_fan(ms: Sequence[int], spectator: bool) -> bool:
    """Fanning out a thick line divides the moment by the multinomial count,
    independent of diagram context."""
    ms = tuple(ms)
    d = sum(ms)
    coeff = Fraction(1)
    for m in ms:
        coeff *= factorial(m)
    coeff = Fraction(coeff, factorial(d))
    lhs = _sym(fan_query(ms, spectator=spectator))
    rhs = _sym(fan_query((d,), spectator=spectator)) * coeff
    return lhs == rhs


def _rel_rot2(variant: str) -> bool:
    """Two-column rotation at order c^2 s^2: I(2a) = -I(2b) + I_1.

    Right dot a holds a conjugated line from row 1 and a plain line from row
    2; dot b a plain line from row 3 and a conjugated one from row 4; 2b swaps
    the conjugated pair, and the merged diagram puts all four lines on b.
    Variants choose how the four rows coincide (context independence).
    """
    if variant == "distinct":
        # four distinct rows, rebalanced by two spectator columns
        a2a = MomentQuery.make(4, (1, 4, 2, 3), (1, 2, 3, 4),
                               (2, 3, 1, 4), (1, 2, 3, 4))
        a2b = MomentQuery.make(4, (1, 4, 2, 3), (2, 1, 3, 4),
                               (2, 3, 1, 4), (1, 2, 3, 4))
        a1 = MomentQuery.make(4, (1, 4, 2, 3), (2, 2, 3, 4),
                              (2, 3, 1, 4), (2, 2, 3, 4))
    elif variant == "merged-pairs":
        # rows 1=3, 2=4: the exchange loop, the thick pair, the fan
        a2a = MomentQuery.make(2, (1, 2), (1, 2), (1, 2), (2, 1))   # E(2)
        a2b = MomentQuery.make(2, (2, 1), (1, 2), (2, 1), (1, 2))   # Z(1,0,1)
        a1 = MomentQuery.make(2, (1, 2), (2, 2), (1, 2), (2, 2))    # fan at b
    elif variant == "merged-cross":
        # rows 1=2, 3=4: thick pair first, loop appears in 2b
        a2a = MomentQuery.make(2, (1, 2), (1, 2), (1, 2), (1, 2))   # Z(1,0,1)
        a2b = MomentQuery.make(2, (2, 1), (1, 2), (1, 2), (1, 2))   # E(2)
        a1 = MomentQuery.make(2, (1, 2), (2, 2), (1, 2), (2, 2))
    else:
        raise ValueError(f"unknown rot2 variant {variant!r}")
    return _sym(a2a) == -_sym(a2b) + _sym(a1)


def _rel_4b(m: int) -> bool:
    """(n-1) F(m-1,1) + F(m) = F(m-1): a unitarity sum on a fan."""
    if m < 1:
        raise ValueError("m >= 1 required")
    lhs = _linear(-1) * _sym(fan_query((m - 1, 1))) + _sym(fan_query((m,)))
    return lhs == _sym(fan_query((m - 1,)))


def _rel_4a3(m: int) -> bool:
    """F(m) = F(m-1) * m/(n+m-1): the thick-line recursion."""
    if m < 1:
        raise ValueError("m >= 1 required")
    rhs = _sym(fan_query((m - 1,))) * m / _linear(m - 1)
    return _sym(fan_query((m,))) == rhs


def _rel_4c2(m1: int, m2: int, m3: int) -> bool:
    """(n-2) I(fanned z) + Z(m1,m2,m3) + Z(m1,m2+1,m3-1) = Z(m1,m2,m3-1).

    A unitarity sum over the column of one fresh edge on the second row:
    the fresh column coincides with the shared column, with the private
    column, or with one of the n-2 others (the fanned diagram).
    """
    if m3 < 1:
        raise ValueError("m3 >= 1 required")
    fanned = _sym(fanned_z_query(m1, m2, m3, split=m3 - 1))
    lhs = (_linear(-2) * fanned
           + _sym(z_query(m1, m2, m3))
           + _sym(z_query(m1, m2 + 1, m3 - 1)))
    return lhs == _sym(z_query(m1, m2, m3 - 1))


def _rel_4c3(m1: int, m2: int, m3: int) -> bool:
    """Z(m1,m2,m3) (n+m3-2) = m3 (Z(m1,m2,m3-1) - Z(m1,m2+1,m3-1))."""
    if m3 < 1:
        raise ValueError("m3 >= 1 required")
    lhs = _sym(z_query(m1, m2, m3)) * _linear(m3 - 2)
    rhs = (_sym(z_query(m1, m2, m3 - 1))
           - _sym(z_query(m1, m2 + 1, m3 - 1))) * m3
    return lhs == rhs


def _rel_61(line: int) -> bool:
    """The five unitarity relations among the degree-3 integrals."""
    e = {k: _sym(degree3_query(k)) for k in DEGREE3_KEYS}
    f12 = _sym(fan_query((1, 2)))
    f111 = _sym(fan_query((1, 1, 1)))
    zero = RationalFunction.zero()
    if line == 1:
        return _linear(-1) * e["6c"] + f12 == zero
    if line == 2:
        return _linear(-1) * e["6d"] + f12 == zero
    if line == 3:
        return _linear(-1) * e["6e"] + f111 == zero
    if line == 4:
        return _linear(-2) * e["6f"] + e["6a"] + e["6e"] == zero
    if line == 5:
        return _linear(-2) * e["6g"] + e["6e"] * 2 == zero
    raise ValueError("line must be 1..5")


def _rel_x3(case: str, t: int, u: int) -> bool:
    """The one-loop recursion specialized to total side weight 2."""
    if case == "z-right":  # X(0,1,t,u | same) = Z(1,t,u)
        return _sym(x_query((0, 1, t, u, 0, 1, t, u))) == _sym(z_query(1, t, u))
    if case == "z-left":  # X(1,0,t,u | same) = Z(1,u,t)
        return _sym(x_query((1, 0, t, u, 1, 0, t, u))) == _sym(z_query(1, u, t))
    if case == "x4":  # x4(t,u) = -F(t, u+1)/(n-1)
        lhs = _sym(x_query(x_special_weights("x4", t, u)))
        return lhs == -_sym(fan_query((t, u + 1))) / _linear(-1)
    if case == "x5":  # x5(t,u) = -F(t+1, u)/(n-1)
        lhs = _sym(x_query(x_special_weights("x5", t, u)))
        return lhs == -_sym(fan_query((t + 1, u))) / _linear(-1)
    raise ValueError(f"unknown x3 case {case!r}")


_RELATIONS = {
    "fan": _rel_fan,
    "rot2": _rel_rot2,
    "4b": _rel_4b,
    "4a3": _rel_4a3,
    "4c2": _rel_4c2,
    "4c3": _rel_4c3,
    "61": _rel_61,
    "x3": _rel_x3,
}


def verify_relation(name: str, *args, **kwargs) -> bool:
    """Exact check of one named relation instance; True iff it holds."""
    try:
        fn = _RELATIONS[name]
    except KeyError:
        raise ValueError(f"unknown relation {name!r}") from None
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# closed-form recognition for canonical moments (sound, not complete: a miss
# means "fall back to the group engine", never a wrong value).  The matcher
# reads the normal form, which is transposed when the columns repeat more than
# the rows: a one-column fan reaches it as a one-row fan.

def _match_direct(w: dict, rows, cols):
    if len(rows) == 1:
        ms = sorted((w.get((rows[0], c), 0) for c in cols), reverse=True)
        return ("fan", fan(tuple(ms)))
    if len(rows) == 2 and len(cols) == 2:
        r1, r2 = rows
        c1, c2 = cols
        for i, j in ((r1, r2), (r2, r1)):
            support = [c for c in (c1, c2) if (i, c) in w]
            if len(support) == 1:
                a = support[0]
                b = c2 if a == c1 else c1
                return ("z", z_integral(w[(i, a)], w.get((j, a), 0),
                                        w.get((j, b), 0)))
    return None


def _match_exchange(wc: dict, wp: dict, rows, cols):
    """x4(t, u) with either order of the rows and of the columns.  With its
    columns swapped, x5(t, u) is x4(u, t), and with its conjugated and plain
    factors swapped, x4(t, u) is x5(t-1, u+1); so x4 answers every x5
    moment, however it is written.  The normal form fixes the orientation,
    except when |S_I| = |S_J|, which for x4(t, u) means t = 1 or u = 0, and
    then the transposed loop is x4(t, u) again."""
    if len(rows) != 2 or len(cols) != 2:
        return None
    c, d = wc.get, wp.get
    for (i, j), (a, b) in product(permutations(rows), permutations(cols)):
        w = (c((i, a), 0), c((i, b), 0), c((j, b), 0), c((j, a), 0),
             d((i, a), 0), d((i, b), 0), d((j, b), 0), d((j, a), 0))
        if x_family(w) == "x4":
            return ("x4", x_special("x4", w[2], w[3]))
    return None


@lru_cache(maxsize=None)
def _catalog_signatures() -> dict[tuple, tuple[str, RationalFunction]]:
    """The fields (I, J, L) of every normal form of each degree-3 catalog
    moment, to its key and closed form: the conjugated and plain pairs
    swapped or not, and the rows 1..r and columns 1..c renamed in every
    way, as the form may name them, with both pair lists sorted.  The form
    fixes the orientation; where the stabilizers tie, the transpose of a
    catalog moment is a catalog moment with the same value."""
    sigs: dict[tuple, tuple[str, RationalFunction]] = {}
    for key in DEGREE3_KEYS:
        m = canonicalize(degree3_query(key))
        for J, L in ((m.J, m.L), (m.L, m.J)):
            for rn, cn in product(permutations(range(1, m.I[-1] + 1)),
                                  permutations(range(1, max(J) + 1))):
                conj, plain = (sorted((rn[i - 1], cn[j - 1])
                                      for i, j in zip(m.I, cols))
                               for cols in (J, L))
                sig = (*zip(*conj), tuple(j for _, j in plain))
                sigs.setdefault(sig, (key, degree3(key)))
    return sigs


def match_closed_form(m: CanonicalMoment):
    """Return (family, value) when the canonical moment lies in a family
    with a known closed form, else None."""
    if m.zero:
        return ("zero", RationalFunction.zero())
    if m.p == 0:
        return ("normalization", RationalFunction.one())
    # the form numbers its rows and columns 1.., sorts both pair lists and
    # holds them as zip(I, J) and zip(I, L)
    conj = _counts(zip(m.I, m.J))
    rows, cols = range(1, m.I[-1] + 1), range(1, max(m.J) + 1)
    if m.J == m.L:
        hit = _match_direct(conj, rows, cols)
    else:
        hit = _match_exchange(conj, _counts(zip(m.I, m.L)), rows, cols)
    if hit or m.p != 3:
        return hit
    return _catalog_signatures().get((m.I, m.J, m.L))


# ---------------------------------------------------------------------------
# route choice: the one place that decides between a closed form and the
# group engine

METHODS = ("auto", "group", "invariant")


def moment(q: MomentQuery, method: str = "auto", symbolic: bool = False):
    """Evaluate a query and name the route that answered: (value, label).

    The value is a Fraction at q.n, or a RationalFunction of n when
    ``symbolic``.  The label is ``invariant:<family>`` when a closed form
    answered and ``group`` when the group engine did.  Method ``auto`` tries
    the closed forms first and falls back to the engine when none matches;
    ``invariant`` raises ValueError then; ``group`` goes straight to the
    engine.  A matched form is valid from n = max(distinct rows, distinct
    columns) on, the least n any query of the moment has, so it is
    evaluated at q.n without a fallback.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {', '.join(METHODS)}, "
                         f"not {method!r}")
    cm = canonicalize(q)
    if method != "group":
        hit = match_closed_form(cm)
        if hit is not None:
            family, rf = hit
            label = f"invariant:{family}"
            return (rf if symbolic else rf.eval_at(q.n)), label
        if method == "invariant":
            raise ValueError("no closed form; use method=group")
    if symbolic:
        return weingarten.moment_symbolic(cm), "group"
    return weingarten.moment_at(cm, q.n), "group"
