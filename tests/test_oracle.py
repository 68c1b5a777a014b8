"""An exact oracle that shares nothing with the engine, and every route
checked against it.

The Weingarten function comes from the unitarity relation alone (Collins
and Matsumoto, arXiv:1701.04493): for every sigma in S_p,

    n Wg(sigma) + sum_{i<p} Wg((i p)∘sigma) = [sigma(p) = p] Wg(sigma|p-1)

where sigma|p-1 is sigma restricted to 1..p-1, a permutation of degree
p - 1.  Wg is a class function, so each degree is a linear system with one
unknown per cycle type, solved here in Fractions from degree p - 1; it is
nonsingular for n >= p.  A moment is then the Weingarten sum over the row
and column matchings, brute-forced over S_p.  No characters, no Young's
rule and no class counting are used.
"""
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from haarmoments import _tabloids, invariants, weingarten
from haarmoments.queries import MomentQuery, _first_fit, canonicalize


def _cycle_type(s) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(len(s)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = s[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _solve(rows: set, size: int) -> list[Fraction]:
    """The one solution of the consistent system of augmented rows, whose
    first ``size`` columns have full rank."""
    rows = [list(r) for r in rows]
    for col in range(size):
        at = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[at] = rows[at], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y
                           for x, y in zip(rows[r], rows[col])]
    assert not any(any(r) for r in rows[size:]), "relations inconsistent"
    return [r[size] for r in rows[:size]]


_WG: dict = {}


def _wg(p: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """{cycle type: Wg} at degree p and dimension n >= p, from the
    unitarity relation written for every permutation of S_p."""
    if p == 0:
        return {(): Fraction(1)}
    if (p, n) not in _WG:
        lower = _wg(p - 1, n)
        perms = list(permutations(range(p)))
        types = sorted({_cycle_type(s) for s in perms})
        col = {ct: i for i, ct in enumerate(types)}
        rows = set()
        for s in perms:
            row = [Fraction(0)] * (len(types) + 1)
            row[col[_cycle_type(s)]] += n
            for i in range(p - 1):
                swap = {i: p - 1, p - 1: i}
                row[col[_cycle_type([swap.get(x, x) for x in s])]] += 1
            if s[p - 1] == p - 1:
                row[-1] = lower[_cycle_type(s[:p - 1])]
            rows.add(tuple(row))
        _WG[p, n] = dict(zip(types, _solve(rows, len(types))))
    return _WG[p, n]


def _oracle(q: MomentQuery) -> Fraction:
    """sum over sigma, tau of [I = K∘sigma] [J = L∘tau] Wg(sigma∘tau^-1) at
    q.n, over S_p by brute force."""
    p = len(q.I)
    wg = _wg(p, q.n)
    value = {s: wg[_cycle_type(s)] for s in permutations(range(p))}
    sigmas = [s for s in value if all(q.I[a] == q.K[s[a]] for a in range(p))]
    taus = [t for t in value if all(q.J[a] == q.L[t[a]] for a in range(p))]
    inverses = [sorted(range(p), key=t.__getitem__) for t in taus]
    return sum((value[tuple(s[x] for x in t_inv)]
                for s in sigmas for t_inv in inverses), Fraction(0))


def test_unitarity_weingarten_matches_the_engine():
    # every class of degree p <= 6, at n = p and n = p + 2
    for p in range(1, 7):
        for n in (p, p + 2):
            for ct, value in _wg(p, n).items():
                assert weingarten.xi_at(ct, n) == value, (ct, n)


@st.composite
def _oracle_queries(draw):
    """Queries of degree p <= 5 at n = p..p+2 on few rows and columns, so
    that closed forms match often.  K rearranges I; L rearranges J, or, for
    a zero moment now and then, is drawn on its own."""
    p = draw(st.integers(1, 5))
    rows = draw(st.sampled_from(range(1, p + 1)))
    cols = draw(st.sampled_from(range(1, p + 1)))
    I = draw(st.lists(st.integers(1, rows), min_size=p, max_size=p))
    J = draw(st.lists(st.integers(1, cols), min_size=p, max_size=p))
    K = draw(st.permutations(I))
    L = draw(st.permutations(J) | st.lists(st.integers(1, cols), min_size=p,
                                           max_size=p))
    return MomentQuery.make(p + draw(st.integers(0, 2)), I, J, K, L)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_oracle_queries())
def test_every_route_matches_the_unitarity_oracle_property(q):
    want = _oracle(q)
    assert invariants.moment(q)[0] == want
    m = canonicalize(q)
    assert weingarten.moment_at(m, q.n) == want
    assert weingarten.moment_symbolic(m).eval_at(q.n) == want
    if m.zero:
        assert want == 0
        return
    tabloids = _tabloids.shape_weights(m.I, m.J, m.L)
    compositions = weingarten._weights(
        weingarten._enumerate(m.I, m.J, m.L, _first_fit(m.J, m.L)))
    for weights in (tabloids, compositions):
        assert weingarten._fold_at(weights, q.n) == want


def test_every_closed_form_family_matches_the_unitarity_oracle():
    queries = [invariants.fan_query(ms) for ms in
               ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1),
                (2, 1, 1), (5,), (3, 2))]
    queries += [invariants.z_query(1, 0, 1), invariants.z_query(1, 1, 1),
                invariants.z_query(2, 1, 2), invariants.e2_query()]
    queries += [invariants.degree3_query(k) for k in invariants.DEGREE3_KEYS]
    queries += [invariants.x_query(invariants.x_special_weights(v, t, u))
                for v, t, u in (("x4", 1, 0), ("x4", 2, 1), ("x5", 0, 1),
                                ("x5", 1, 2))]
    families = set()
    for q in queries:
        p = len(q.I)
        for n in range(max(p, q.n), max(p, q.n) + 3):
            at_n = MomentQuery.make(n, q.I, q.J, q.K, q.L)
            value, label = invariants.moment(at_n)
            assert label.startswith("invariant:"), (q, label)
            assert value == _oracle(at_n), (q, n)
            families.add(label)
    assert len(families) >= 5, families
