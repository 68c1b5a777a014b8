"""Group-theoretic moment engine: class integrals, pair counts, moments."""
import itertools
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from haarmoments import _counting, _tabloids, invariants, weingarten
from haarmoments.partitions import (character, class_size, compose,
                                    cycle_type, dim_symmetric,
                                    dim_unitary_at, hook_lengths, inverse,
                                    partitions_of, schur_expansion)
from haarmoments.queries import (CanonicalMoment, MomentQuery, _order,
                                 canonicalize)
from haarmoments.ratfun import Poly, RationalFunction
from haarmoments.stabilizer import coset_reps
from test_tabloids import HEAVY_KEYS


def _rf(num_coeffs, den_coeffs, validity=0):
    return RationalFunction(Poly(num_coeffs), Poly(den_coeffs), validity)


def test_xi_p1():
    assert weingarten.xi_symbolic((1,)) == _rf((1,), (0, 1))
    assert weingarten.xi_at((1,), 5) == Fraction(1, 5)


def test_xi_p2_closed_forms():
    assert weingarten.xi_symbolic((1, 1)) == _rf((1,), (-1, 0, 1))
    assert weingarten.xi_symbolic((2,)) == _rf((-1,), (0, -1, 0, 1))
    assert str(weingarten.xi_symbolic((2,))) == "(-1)/(n^3 - n)"


def test_xi_p3_closed_forms():
    n2 = Poly((-2, 0, 1))  # n^2 - 2
    den5 = Poly((0, 1))
    for k in (-2, -1, 1, 2):
        den5 = den5 * Poly.n_plus(k)
    assert weingarten.xi_symbolic((1, 1, 1)) == RationalFunction(n2, den5)
    den4 = Poly((1,))
    for k in (-2, -1, 1, 2):
        den4 = den4 * Poly.n_plus(k)
    assert weingarten.xi_symbolic((2, 1)) == RationalFunction(Poly((-1,)), den4)
    assert weingarten.xi_symbolic((3,)) == RationalFunction(Poly((2,)), den5)


def test_xi_symbolic_validity_floor():
    assert weingarten.xi_symbolic((2, 1)).validity_min_n == 3
    with pytest.raises(ValueError, match="outside validity domain"):
        weingarten.xi_symbolic((2, 1)).eval_at(2)


def _reference_xi(ct):
    """The defining per-shape sum chi_f(c) d_f^2 h_f / ((p!)^2 P_f(n)), with
    P_f(n) the product of (n + content) over the cells of f, accumulated
    one reduced term at a time."""
    p = sum(ct)
    acc = RationalFunction.zero()
    for f in partitions_of(p):
        content_poly = Poly((1,))
        for i, row in enumerate(f):
            for j in range(row):
                content_poly = content_poly * Poly.n_plus(j - i)
        hooks = prod(hook_lengths(f))
        d = factorial(p) // hooks
        acc = acc + RationalFunction(
            Poly.const(character(f, ct) * d * d * hooks),
            content_poly * factorial(p) ** 2)
    return acc.with_validity(p)


def test_xi_symbolic_matches_per_shape_sum():
    for p in range(1, 9):
        for ct in partitions_of(p):
            got = weingarten.xi_symbolic(ct)
            want = _reference_xi(ct)
            assert (got.num, got.den, got.validity_min_n) == (
                want.num, want.den, want.validity_min_n), ct


def test_xi_fixed_n_row_restriction():
    # the defining sum, with shapes of more than n rows dropped by hand; n < p
    # is below the symbolic validity floor
    for p in range(1, 10):
        fact_sq = factorial(p) ** 2
        for ct in partitions_of(p):
            for n in range(1, p + 3):
                want = Fraction(0)
                for f in partitions_of(p):
                    if len(f) <= n:
                        want += Fraction(
                            dim_symmetric(f) ** 2 * character(f, ct),
                            fact_sq) / dim_unitary_at(f, n)
                assert weingarten.xi_at(ct, n) == want, (ct, n)


def test_fixed_n_caches_are_bounded():
    # a batch may ask for a fresh n on every line
    ct = (2, 1)
    weingarten.xi_at.cache_clear()
    before = [weingarten.xi_at(ct, n) for n in range(1, 9)]
    for n in range(1, 5001):
        weingarten.xi_at(ct, n)
    assert weingarten.xi_at.cache_info().currsize <= 4096
    assert [weingarten.xi_at(ct, n) for n in range(1, 9)] == before
    assert before[2:] == [Fraction(-1, (n - 2) * (n - 1) * (n + 1) * (n + 2))
                          for n in range(3, 9)]


def test_class_counts_trivial_stabilizers():
    counts = weingarten.class_counts((1, 2), (1, 2), (0, 1))
    assert counts == {(1, 1): 1}
    counts = weingarten.class_counts((1, 2), (1, 2), (1, 0))
    assert counts == {(2,): 1}


def test_class_counts_repeated_rows_and_columns():
    counts = weingarten.class_counts((1, 1), (1, 1), (0, 1))
    assert counts == {(1, 1): 2, (2,): 2}
    counts = weingarten.class_counts((1, 1), (1, 2), (0, 1))
    assert counts == {(1, 1): 1, (2,): 1}


def test_class_counts_total_is_group_product():
    I, J, Q = (1, 1, 2), (2, 2, 2), (0, 1, 2)
    counts = weingarten.class_counts(I, J, Q)
    assert sum(counts.values()) == _order(I) * _order(J)


def _fixing(values):
    """The stabilizer of ``values``, found by filtering all of S_p."""
    p = len(values)
    return [r for r in permutations(range(p))
            if all(values[r[x]] == values[x] for x in range(p))]


@st.composite
def _value_label_pairs(draw):
    p = draw(st.integers(0, 6))
    values = draw(st.lists(st.integers(1, max(p, 1)), min_size=p, max_size=p))
    labels = draw(st.none() | st.lists(st.integers(1, max(p, 1)),
                                       min_size=p, max_size=p))
    return tuple(values), labels


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_value_label_pairs())
def test_coset_reps_meet_each_coset_once_property(pair):
    # against S_p filtered: each R fixes values, the images labels∘R are
    # pairwise distinct (R and R' share the coset H∘R exactly when labels∘R
    # == labels∘R'), and there are |S_values|/|H| of them
    values, labels = pair
    p = len(values)
    fixing = set(_fixing(values))
    reps = list(coset_reps(values, labels))
    assert set(reps) <= fixing
    if labels is None:
        assert len(reps) == len(fixing) == _order(values)
        labels = range(p)
    images = {tuple(labels[r[x]] for x in range(p)) for r in reps}
    assert len(images) == len(reps)
    assert len(reps) == _order(values) // _order(zip(values, labels))
    assert {tuple(labels[r[x]] for x in range(p)) for r in fixing} == images


def _brute_class_counts(I, J, Q):
    """Cycle types of S∘Q∘R over every stabilizer pair (R, S); also |H|, the
    number of pairs with S∘Q∘R == Q."""
    p = len(I)
    SJ = _fixing(J)
    counts = Counter()
    h = 0
    for r in _fixing(I):
        qr = [Q[r[x]] for x in range(p)]
        for s in SJ:
            t = tuple(s[y] for y in qr)
            counts[cycle_type(t)] += 1
            h += t == Q
    return dict(counts), h


def test_class_counts_match_brute_force():
    ident = tuple(range(6))
    fixed = [
        # trivial H: the pair labels (I[x], J[Q[x]]) are all distinct
        ((1, 1, 1, 2, 2, 2), (1, 2, 3, 1, 2, 3), ident, 1),
        ((1, 1, 2, 2, 3), (1, 2, 1, 2, 1), (2, 3, 0, 1, 4), 1),
        # single-column I, so H is all of S_J
        ((1,) * 6, (1, 1, 2, 2, 3, 3), (5, 3, 1, 0, 2, 4), 8),
        ((1,) * 5, (1, 2, 3, 4, 5), (2, 0, 4, 1, 3), 1),
        ((1,) * 5, (1,) * 5, (1, 2, 3, 4, 0), 120),
        # H == S_J without a single-column I: J's blocks inside Q·I's
        ((1, 1, 1, 2, 2, 2), (1, 1, 2, 3, 3, 4), ident, 4),
    ]
    rng = random.Random(20260)
    cases = [(I, J, Q) for I, J, Q, _ in fixed]
    while len(cases) < len(fixed) + 60:
        p = rng.randint(1, 6)
        I = tuple(rng.randint(1, rng.randint(1, p)) for _ in range(p))
        J = tuple(rng.randint(1, rng.randint(1, p)) for _ in range(p))
        Q = list(range(p))
        rng.shuffle(Q)
        if len(_fixing(I)) * len(_fixing(J)) <= 5000:
            cases.append((I, J, tuple(Q)))
    for k, (I, J, Q) in enumerate(cases):
        want, h = _brute_class_counts(I, J, Q)
        if k < len(fixed):
            assert h == fixed[k][3], (I, J, Q)
        assert weingarten.class_counts(I, J, Q) == want, (I, J, Q)


def test_class_counts_cap():
    with pytest.raises(ValueError, match="use Monte Carlo"):
        weingarten.class_counts((1,) * 9, (1,) * 9, tuple(range(9)))


def test_moment_from_counts_reproduces_f2():
    q = MomentQuery.make(2, (1, 1), (1, 1), (1, 1), (1, 1))
    got = weingarten.evaluate(q, symbolic=True)
    assert got == _rf((2,), (0, 1, 1))  # 2/(n(n+1))
    assert weingarten.evaluate(q) == Fraction(1, 3)


def test_zero_and_empty_queries():
    assert weingarten.evaluate(
        MomentQuery.make(2, (1,), (1,), (2,), (1,))) == 0
    assert weingarten.evaluate(MomentQuery.make(2, (), (), (), ())) == 1
    sym = weingarten.evaluate(
        MomentQuery.make(2, (1,), (1,), (2,), (1,)), symbolic=True)
    assert sym == 0


def test_symbolic_validity_is_degree():
    q = MomentQuery.make(3, (1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 3, 1))
    assert weingarten.evaluate(q, symbolic=True).validity_min_n == 3


def test_symbolic_matches_fixed_n_above_floor():
    qs = [
        MomentQuery.make(4, (1, 1, 2), (1, 2, 3), (1, 2, 1), (3, 2, 1)),
        MomentQuery.make(4, (1, 2), (1, 1), (2, 1), (1, 1)),
        MomentQuery.make(4, (1, 1, 1), (1, 2, 2), (1, 1, 1), (2, 1, 2)),
    ]
    for q in qs:
        sym = weingarten.evaluate(q, symbolic=True)
        for n in range(sym.validity_min_n, sym.validity_min_n + 4):
            fixed = weingarten.evaluate(
                MomentQuery.make(n, q.I, q.J, q.K, q.L))
            assert sym.eval_at(n) == fixed


@st.composite
def _group_queries(draw, max_p=7):
    """Nonzero queries of degree p <= max_p at n = p: K and L rearrange I,
    J."""
    p = draw(st.integers(1, max_p))
    I = draw(st.lists(st.integers(1, p), min_size=p, max_size=p))
    J = draw(st.lists(st.integers(1, p), min_size=p, max_size=p))
    K = draw(st.permutations(I))
    L = draw(st.permutations(J))
    return MomentQuery.make(p, I, J, K, L)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_group_queries())
def test_symbolic_matches_fixed_n_property(q):
    m = canonicalize(q)
    sym = weingarten.moment_symbolic(m)
    assert sym.validity_min_n == m.p
    for n in (m.p, m.p + 1, m.p + 3):
        assert sym.eval_at(n) == weingarten.moment_at(m, n), n


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_group_queries())
def test_fixed_n_matches_row_restricted_class_sum_property(q):
    # the class-by-class sum sum_c N_c xi_n(c), with xi_n built here from
    # the defining sum over shapes of at most n rows; n < p is below the
    # symbolic validity floor
    m = canonicalize(q)
    counts = weingarten.class_counts(m.I, m.J, m.Q)
    fact_sq = factorial(m.p) ** 2
    for n in range(1, m.p + 3):
        want = Fraction(0)
        for ct, cnt in counts.items():
            for f in partitions_of(m.p):
                if len(f) <= n:
                    want += Fraction(
                        cnt * dim_symmetric(f) ** 2 * character(f, ct),
                        fact_sq) / dim_unitary_at(f, n)
        assert weingarten.moment_at(m, n) == want, n


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _pinv(G):
    """The Moore–Penrose inverse of a square matrix of Fractions, from a
    rank factorization G = C F: F the nonzero rows of the reduced row
    echelon form and C the pivot columns of G, so that G+ =
    F^T (F F^T)^-1 (C^T C)^-1 C^T."""
    size = len(G)
    rows = [list(r) for r in G]
    pivots = []
    for col in range(size):
        at = next((r for r in range(len(pivots), size) if rows[r][col]), None)
        if at is None:
            continue
        top = len(pivots)
        rows[top], rows[at] = rows[at], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r in range(size):
            if r != top and rows[r][col]:
                rows[r] = [x - rows[r][col] * y
                           for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    F = rows[:len(pivots)]
    C = [[r[c] for c in pivots] for r in G]

    def inv(A):
        k = len(A)
        aug = [list(r) + [Fraction(int(i == j)) for j in range(k)]
               for i, r in enumerate(A)]
        for col in range(k):
            at = next(r for r in range(col, k) if aug[r][col])
            aug[col], aug[at] = aug[at], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for r in range(k):
                if r != col and aug[r][col]:
                    aug[r] = [x - aug[r][col] * y
                              for x, y in zip(aug[r], aug[col])]
        return [r[k:] for r in aug]

    Ft, Ct = [list(c) for c in zip(*F)], [list(c) for c in zip(*C)]
    return _matmul(_matmul(Ft, inv(_matmul(F, Ft))),
                   _matmul(inv(_matmul(Ct, C)), Ct))


_GRAM_WG: dict = {}


def _gram_weingarten(p, n):
    """S_p in a fixed order, and Wg(sigma, tau) as the Moore–Penrose inverse
    of the Gram matrix G(sigma, tau) = n^#cycles(sigma^-1 tau) of the
    permutation operators on (C^n)^p (Collins–Śniady), n < p included: no
    characters are used."""
    if (p, n) not in _GRAM_WG:
        perms = list(permutations(range(p)))
        G = [[Fraction(n) ** len(cycle_type(compose(inverse(s), t)))
              for t in perms] for s in perms]
        W = _pinv(G)
        GW = _matmul(G, W)
        assert GW == [list(c) for c in zip(*GW)]
        assert _matmul(GW, G) == G
        _GRAM_WG[p, n] = perms, W
    return _GRAM_WG[p, n]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_group_queries(4))
def test_fixed_n_matches_gram_matrix_inverse_property(q):
    # sum over sigma, tau of [I = K∘sigma] [J = L∘tau] Wg(sigma, tau), with
    # Wg from the Gram matrix alone, at every n = 1..p+1
    m = canonicalize(q)
    for n in range(1, m.p + 2):
        perms, W = _gram_weingarten(m.p, n)
        rows = [i for i, s in enumerate(perms)
                if all(q.I[a] == q.K[s[a]] for a in range(m.p))]
        cols = [j for j, t in enumerate(perms)
                if all(q.J[a] == q.L[t[a]] for a in range(m.p))]
        want = sum((W[i][j] for i in rows for j in cols), Fraction(0))
        assert weingarten.moment_at(m, n) == want, n


def test_moment_at_refuses_dimension_below_one():
    m = canonicalize(MomentQuery.make(2, (1, 2), (1, 1), (2, 1), (1, 1)))
    # no factors (p = 0), and a zero query: refused before either shortcut
    empty = canonicalize(MomentQuery.make(1, (), (), (), ()))
    zero = canonicalize(MomentQuery.make(2, (1,), (1,), (2,), (1,)))
    assert empty.p == 0 and zero.zero
    for n in (0, -1, -3):
        for moment in (m, empty, zero):
            with pytest.raises(ValueError,
                               match="dimension must be at least 1"):
                weingarten.moment_at(moment, n)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            weingarten.xi_at((2, 1), n)


def test_lcm_factors_closed_form():
    # D_p, the lcm of the P_f over every shape f of p
    for p in range(0, 21):
        union = Counter()
        for f in partitions_of(p):
            union |= Counter(j - i for i, row in enumerate(f)
                             for j in range(row))
        assert Counter(weingarten._lcm(p)[0]) == union, p


def test_fold_builds_terms_only_for_the_support():
    # one row against 24 distinct columns: the only nonzero weight is on
    # (24), out of 1,575 shapes of 24
    weingarten._shape_weights.cache_clear()
    weingarten._term.cache_clear()
    m = canonicalize(invariants.fan_query((1,) * 24))
    got = weingarten.moment_symbolic(m)
    assert got == invariants.fan((1,) * 24)
    assert list(weingarten._shape_weights(m.I, m.J, m.L)) == [(24,)]
    assert weingarten._term.cache_info().currsize == 1
    # the fixed-n fold builds no term
    assert weingarten.moment_at(m, 30) == got.eval_at(30)
    assert weingarten._term.cache_info().currsize == 1


def _random_perms(rng, count, p):
    out = []
    for _ in range(count):
        perm = list(range(p))
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def _loop_counts(A, B):
    radix = _counting._radix(len(B[0]))
    return {_counting._decode(k, radix): c
            for k, c in _counting._count_loop(A, B, radix).items()}


def _tile_counts(A, B):
    radix = _counting._radix(len(B[0]))
    return {_counting._decode(k, radix): c
            for k, c in _counting._count_tiles(A, B, radix).items()}


def test_tile_kernel_matches_loop(monkeypatch):
    rng = random.Random(7)
    cross = _counting._LOOP_MAX
    tile = _counting._TILE
    tiled = []
    count = _counting._count_tiles

    def count_tiles(*args):
        tiled.append(args)
        return count(*args)

    monkeypatch.setattr(_counting, "_count_tiles", count_tiles)
    cases = [([()], [()]), ([()] * 3, [()] * 2), ([(0,)] * 4, [(0,)] * 5)]
    # both sides of the loop/tile crossover, and products spanning tiles
    # (_TILE counts points, p per composition): several stream rows per
    # tile, and a held list split across tiles
    for p, na, nb in ((6, cross // 4, 4), (6, cross // 4 + 1, 4),
                      (7, 3, cross // 3 + 1), (5, 400, 7),
                      (6, 3, tile // 6 + 9), (9, 2 * tile // 45 + 3, 5)):
        cases.append((_random_perms(rng, na, p), _random_perms(rng, nb, p)))
    for A, B in cases:
        want = _loop_counts(A, B)
        assert _tile_counts(A, B) == want
        tiled.clear()
        assert dict(_counting.count_compositions(iter(A), len(A), B)) == want
        # the tile path takes exactly the products above the crossover
        assert bool(tiled) == (len(A) * len(B) > cross)


def test_cycle_keys_exact_at_widest_degree(monkeypatch):
    # p = 35 is the largest degree whose keys fit in int64; above it the
    # counting falls back to the tuple loop
    assert 2 * _counting._radix(35)[-1] - 1 <= _counting._INT64_MAX
    assert 2 * _counting._radix(36)[-1] - 1 > _counting._INT64_MAX
    rng = random.Random(3)
    rows = [tuple(range(35)), tuple(range(1, 35)) + (0,)]
    rows += _random_perms(rng, 30, 35)
    radix = _counting._radix(35)
    keys = _counting._cycle_keys(np.array(rows, dtype=np.intp),
                                 np.array(radix, dtype=np.int64))
    assert [_counting._decode(k, radix) for k in keys.tolist()] == [
        cycle_type(r) for r in rows]
    # p = 36 past the crossover: 8!·2! = 80,640 compositions, S_J and H
    # trivial.  Q moves only the 26 singleton rows, so S∘Q∘R = Q∘R has the
    # cycles of R on the two blocks and the cycles of Q on the rest.
    I = (1,) * 8 + (2,) * 2 + tuple(range(3, 29))
    J = tuple(range(1, 37))
    Q = tuple(range(10)) + tuple(10 + x for x in rng.sample(range(26), 26))
    assert _order(I) > _counting._LOOP_MAX
    rest = cycle_type(tuple(x - 10 for x in Q[10:]))
    want = Counter()
    for a in partitions_of(8):
        for b in partitions_of(2):
            ct = tuple(sorted(a + b + rest, reverse=True))
            want[ct] += class_size(a) * class_size(b)

    def refuse(*args):
        raise AssertionError("the tile path ran at p = 36")

    monkeypatch.setattr(_counting, "_count_tiles", refuse)
    assert weingarten.class_counts(I, J, Q) == dict(want)


@st.composite
def _index_triples(draw):
    p = draw(st.integers(0, 6))
    labels = st.integers(1, draw(st.integers(1, max(p, 1))))
    I = draw(st.lists(labels, min_size=p, max_size=p))
    J = draw(st.lists(labels, min_size=p, max_size=p))
    Q = draw(st.permutations(range(p)))
    return tuple(I), tuple(J), tuple(Q)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_index_triples())
def test_class_counts_match_brute_force_property(triple):
    I, J, Q = triple
    assume(len(_fixing(I)) * len(_fixing(J)) <= 20000)
    assert weingarten.class_counts(I, J, Q) == _brute_class_counts(I, J, Q)[0]


def test_backend_name_reports():
    assert weingarten.backend_name() == "pure-python"


def test_moment_at_accepts_canonical_directly():
    q = MomentQuery.make(3, (1, 2), (1, 2), (2, 1), (2, 1))
    m = canonicalize(q)
    assert weingarten.moment_at(m, 3) == weingarten.evaluate(q)


# ---------------------------------------------------------------------------
# shape weights by Young's rule (the tabloid route)

def _form(I, J, Q) -> CanonicalMoment:
    """The normal form of the aligned triple, plain pairs (I[a], J[Q[a]])."""
    return CanonicalMoment(len(I), len(I), I, J, tuple(J[b] for b in Q))


def _tabloid_weights(I, J, Q):
    """The tabloid route's weights of <I,J | I,J_Q>, read off its normal
    form as the engine hands it over."""
    form = _form(I, J, Q)
    w = _tabloids.shape_weights(form.I, form.J, form.L)
    assert set(w) <= set(partitions_of(len(I)))
    return w


class _Took(Exception):
    pass


def _taking(route):
    def take(*args):
        raise _Took(route)
    return take


def _route(I, J, Q):
    """The route ``_shape_weights`` takes for the normal form of
    <I,J | I,J_Q>, stopped before it runs, or "refused"."""
    form = _form(I, J, Q)
    with mock.patch.object(_tabloids, "shape_weights", _taking("tabloids")), \
            mock.patch.object(weingarten, "_enumerate",
                              _taking("compositions")):
        try:
            weingarten._shape_weights.__wrapped__(form.I, form.J, form.L)
        except _Took as took:
            return took.args[0]
        except ValueError as refused:
            assert "use Monte Carlo" in str(refused)
            return "refused"
    raise AssertionError("no route was taken")


@st.composite
def _weight_triples(draw):
    p = draw(st.integers(1, 8))
    labels = st.integers(1, draw(st.integers(1, p)))
    I = draw(st.lists(labels, min_size=p, max_size=p))
    J = draw(st.lists(labels, min_size=p, max_size=p))
    Q = draw(st.permutations(range(p)))
    return tuple(I), tuple(J), tuple(Q)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_weight_triples())
def test_tabloid_route_matches_enumeration_property(triple):
    I, J, Q = triple
    L = [J[b] for b in Q]
    compositions = _order(I) * _order(J) // _order(zip(I, L))
    tabloids = _tabloids.cost(_tabloids._shape(I), _tabloids._shape(J))
    assume(compositions <= 50000 and tabloids <= 500000)
    # the engine's enumeration, which the raw pair cap of class_counts
    # would refuse for one row against one column (8!^2 pairs)
    want = weingarten._weights(weingarten._enumerate(I, J, L, Q))
    assert _tabloid_weights(I, J, Q) == want


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_weight_triples())
def test_shape_weights_of_the_normal_form_property(triple):
    # each route, forced, gives on the normal form the weights that the
    # class counts of the raw aligned form give
    I, J, Q = triple
    L = [J[b] for b in Q]
    assume(_order(I) * _order(J) <= weingarten.PAIR_CAP
           and _order(I) * _order(J) // _order(zip(I, L)) <= 50000
           and _tabloids.cost(_tabloids._shape(I), _tabloids._shape(J))
           <= 500000)
    want = weingarten._weights(weingarten.class_counts(I, J, Q))
    form = _form(I, J, Q)
    for route, estimate in (("tabloids", 0),
                            ("compositions", weingarten.PAIR_CAP + 1)):
        with mock.patch.object(_tabloids, "cost", lambda a, b: estimate):
            assert weingarten._shape_weights.__wrapped__(
                form.I, form.J, form.L) == want, route


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_weight_triples())
def test_q_accessor_aligns_the_form_property(triple):
    # perfbench keys its check pass on (m.I, m.J, m.Q) and counts classes
    # with it: Q must take J onto the form's plain columns L, and its class
    # counts must give the weights the engine finds from (I, J, L), on
    # either side of the route choice
    m = _form(*triple)
    Q = m.Q
    assert sorted(Q) == list(range(m.p))
    assert tuple(m.J[b] for b in Q) == m.L
    assume(_order(m.I) * _order(m.J) <= weingarten.PAIR_CAP
           and _order(m.I) * _order(m.J) // _order(zip(m.I, m.L)) <= 50000
           and _tabloids.cost(_tabloids._shape(m.I), _tabloids._shape(m.J))
           <= 500000)
    want = weingarten._weights(weingarten.class_counts(m.I, m.J, Q))
    for route, estimate in (("tabloids", 0),
                            ("compositions", weingarten.PAIR_CAP + 1)):
        with mock.patch.object(_tabloids, "cost", lambda a, b: estimate):
            assert weingarten._shape_weights.__wrapped__(
                m.I, m.J, m.L) == want, route


def test_tabloid_route_matches_enumeration_on_heavy_shapes():
    # block shapes of the benchmark's batch-heavy slots, with random
    # matchings; trivial and nontrivial H alike
    rng = random.Random(11)
    shapes = [((3, 3, 3), (3, 3, 3)), ((4, 4, 1), (3, 2, 2, 2)),
              ((7, 1, 1), (2, 2, 1, 1, 1, 1, 1)), ((5, 2), (4, 2, 1)),
              ((6, 3), (3, 2, 2, 1, 1)), ((5, 3, 1), (4, 3, 2))]
    for a, b in shapes:
        I = tuple(k for k, m in enumerate(a) for _ in range(m))
        J = [k for k, m in enumerate(b) for _ in range(m)]
        rng.shuffle(J)
        Q = tuple(rng.sample(range(len(I)), len(I)))
        want = weingarten._weights(weingarten.class_counts(I, tuple(J), Q))
        assert _tabloid_weights(I, tuple(J), Q) == want, (a, b)


def _dominates(f, g):
    fs = list(itertools.accumulate(f + (0,) * len(g)))
    gs = list(itertools.accumulate(g + (0,) * len(f)))
    return all(x >= y for x, y in zip(fs, gs))


def _contingency_tables(rows, cols):
    """The number of nonnegative integer matrices with these margins."""
    if not rows:
        return int(not any(cols))
    total = 0
    for first in itertools.product(*(range(c + 1) for c in cols)):
        if sum(first) == rows[0]:
            total += _contingency_tables(
                rows[1:], tuple(c - x for c, x in zip(cols, first)))
    return total


def _kostka(f, nu):
    return schur_expansion("h", nu).get(f, 0)


def test_kostka_numbers():
    for p in range(1, 8):
        shapes = partitions_of(p)
        for f in shapes:
            assert _kostka(f, (1,) * p) == dim_symmetric(f)
            assert _kostka(f, f) == 1
            for nu in shapes:
                k = _kostka(f, nu)
                assert (k > 0) == _dominates(f, nu), (f, nu)
        # RSK: pairs of semistandard tableaux of one shape with contents
        # mu and nu are the integer matrices with margins mu and nu
        for mu in shapes:
            for nu in shapes:
                assert sum(_kostka(f, mu) * _kostka(f, nu)
                           for f in shapes) == _contingency_tables(mu, nu)


def test_dominating_generates_the_common_up_set():
    for p in range(1, 10):
        shapes = partitions_of(p)
        for a in shapes:
            for b in shapes[::3]:
                want = [f for f in shapes
                        if _dominates(f, a) and _dominates(f, b)]
                assert list(_tabloids.dominating(a, b)) == want, (a, b)


def test_route_choice_by_cost(monkeypatch):
    # a batch-heavy slot, (6,3) x (3,2,2,1,1) with |H| = 4: 25,920
    # compositions against 130 tabloids
    I = (1,) * 6 + (2,) * 3
    J = (1, 2, 1, 3, 4, 2, 1, 5, 3)
    Q = tuple(range(9))
    assert _route(I, J, Q) == "tabloids"
    # a batch-symbolic slot, (3,2,1,1) x (2,2,2,1): at most 576 compositions
    # and a wide dominance up-set
    assert _route((1, 1, 1, 2, 2, 3, 4), (1, 1, 2, 2, 3, 3, 4),
                  (6, 0, 1, 2, 3, 4, 5)) == "compositions"
    # the balanced trivial-H batch-heavy slot, (3,3,3) x (3,3,3): 46,656
    # compositions against 3,730 tabloids (the join (3,3,3) needs none)
    assert _route((1, 2, 1, 2, 3, 2, 3, 1, 3), (1, 1, 2, 3, 2, 1, 3, 2, 3),
                  (2, 4, 3, 0, 1, 6, 7, 5, 8)) == "tabloids"
    # a batch-symbolic slot, (3,3,1,1) x (3,2,1,1,1): 432 compositions
    # against 2,823 tabloids
    assert _route((1, 2, 2, 3, 3, 2, 4, 3), (1, 2, 1, 3, 2, 1, 4, 5),
                  (0, 2, 6, 3, 5, 7, 1, 4)) == "compositions"
    # the engine follows the choice
    want = weingarten._weights(weingarten.class_counts(I, J, Q))

    def refuse(*args):
        raise AssertionError("the enumeration ran")

    weingarten._shape_weights.cache_clear()
    monkeypatch.setattr(weingarten, "_enumerate", refuse)
    form = _form(I, J, Q)
    assert weingarten._shape_weights(form.I, form.J, form.L) == want
    weingarten._shape_weights.cache_clear()


def test_route_pins():
    # many blocks and few compositions: (3,2,2,2,1,1) x (3,3,2,1,1,1) with
    # |H| = 2 has 1,728 compositions against 4.7e6 tabloids
    assert _route((1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6),
                  (6, 1, 4, 3, 1, 2, 3, 1, 2, 2, 5),
                  (8, 2, 10, 1, 9, 0, 4, 6, 3, 7, 5)) == "compositions"
    # the 25 batch-heavy keys of the benchmark's seed 3
    for key in HEAVY_KEYS:
        I, J, Q = (tuple(map(int, word)) for word in key.split())
        assert _route(I, J, Q) == "tabloids", key
    # blocks of 5 against columns that repeat once per block: 120^4 * 24^5
    # compositions and 8.2e10 tabloids, both past PAIR_CAP
    assert _route(tuple(sorted((1, 2, 3, 4) * 5)), (1, 2, 3, 4, 5) * 4,
                  tuple(range(20))) == "refused"


def test_single_row_moments_above_the_raw_pair_cap():
    # one row against p columns: |S_I| = p!, so the raw pair sum passes
    # PAIR_CAP, while (p) is the only shape that dominates (p)
    for ms in ((5, 5), (4, 4, 3), (6, 3, 2, 1)):
        m = canonicalize(invariants.fan_query(ms))
        assert weingarten.pair_count(m) > weingarten.PAIR_CAP
        with pytest.raises(ValueError, match="use Monte Carlo"):
            weingarten.class_counts(m.I, m.J, m.Q)
        want = invariants.fan(ms)
        for n in (len(ms), len(ms) + 1, m.p, m.p + 2):
            q = invariants.fan_query(ms, n)
            assert invariants.moment(q, "group") == (want.eval_at(n),
                                                     "group"), (ms, n)
    assert invariants.moment(invariants.fan_query((5, 5), 3), "group") == (
        Fraction(1, 16632), "group")
    got, _ = invariants.moment(invariants.fan_query((5, 5)), "group",
                               symbolic=True)
    assert got == invariants.fan((5, 5))


def test_one_row_against_distinct_columns_takes_the_tabloid_route():
    # I = 1^9, J all distinct: 362,880 compositions, one tabloid
    ms = (1,) * 9
    m = canonicalize(invariants.fan_query(ms))
    assert _route(m.I, m.J, m.Q) == "tabloids"
    for n in (9, 12):
        assert invariants.moment(invariants.fan_query(ms, n), "group") == (
            invariants.fan(ms).eval_at(n), "group")


def test_query_too_costly_for_both_routes_is_refused_at_once(monkeypatch):
    # blocks of 5 against columns that repeat once per block: 8.2e10
    # tabloids against 120^4 * 24^5 compositions, |H| = 1.  The tabloid
    # estimate is the smaller, and _tabloids.cost stops summing at the first
    # partial sum past the cap, far below its full 1.6e11, so the refusal
    # names the cap rather than that partial sum
    I = tuple(sorted((1, 2, 3, 4) * 5))
    J = (1, 2, 3, 4, 5) * 4
    Q = tuple(range(20))
    assert _order(I) * _order(J) > weingarten.PAIR_CAP
    assert _tabloids.cost((5, 5, 5, 5), (4, 4, 4, 4, 4)) > weingarten.PAIR_CAP

    def refuse(*args):
        raise AssertionError("a route ran")

    monkeypatch.setattr(weingarten, "_enumerate", refuse)
    monkeypatch.setattr(_tabloids, "shape_weights", refuse)
    q = MomentQuery.make(20, I, J, I, J)
    cap = weingarten.PAIR_CAP
    for symbolic in (False, True):
        with pytest.raises(ValueError) as refused:
            invariants.moment(q, "group", symbolic)
        assert str(refused.value) == (
            f"shape weights cost more than {cap} compositions or their "
            f"worth in tabloids (cap {cap}); use Monte Carlo estimation "
            "for this query")
