"""Closed forms from invariance arguments, their queries, the matcher, and
the route choice."""
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmoments import invariants, ratfun, weingarten
from haarmoments.queries import MomentQuery, canonicalize
from haarmoments.ratfun import Poly, RationalFunction


def test_fan_single_line():
    # F(m) = m! / (n (n+1) ... (n+m-1))
    assert str(invariants.fan((1,))) == "(1)/(n)"
    assert str(invariants.fan((2,))) == "(2)/(n^2 + n)"
    assert invariants.fan((3,)).eval_at(3) == Fraction(1, 10)
    assert invariants.fan((2,)).validity_min_n == 1


def test_fan_multi_line():
    assert invariants.fan((2, 1)).eval_at(4) == Fraction(1, 60)
    assert invariants.fan((1, 1, 1)).eval_at(2) == Fraction(1, 24)


def test_fan_of_large_degree_at_fixed_n_is_fast(monkeypatch):
    # 3000!/(4·5···3003) must come from the denominator's linear factors:
    # multiplying 3,000 of them out takes O(p²) big-integer steps
    def refuse(*args):
        raise AssertionError("a polynomial product was formed")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Poly, name, refuse)
    monkeypatch.setattr(ratfun, "expand", refuse)
    q = invariants.fan_query((3000,), n=4)
    start = time.perf_counter()
    value, label = invariants.moment(q)
    assert time.perf_counter() - start < 1.0
    assert (value, label) == (Fraction(6, 3001 * 3002 * 3003), "invariant:fan")


def test_fan_rejects_zero_multiplicity():
    with pytest.raises(ValueError, match="must be positive"):
        invariants.fan((2, 0, 1))
    with pytest.raises(ValueError, match="must be positive"):
        invariants.fan(())


def test_fan_query_shapes():
    q = invariants.fan_query((2, 1), n=4)
    assert q.I == (1, 1, 1) and q.K == q.I
    assert sorted(q.J) == [1, 1, 2] and sorted(q.L) == sorted(q.J)


def test_z_integral_values():
    assert str(invariants.z_integral(1, 0, 1)) == "(1)/(n^2 - 1)"
    assert invariants.z_integral(1, 1, 1).eval_at(3) == Fraction(1, 40)
    assert invariants.z_integral(2, 0, 1).eval_at(3) == Fraction(1, 15)
    # degenerate cases collapse to fans (m3=0: two separate columns)
    assert invariants.z_integral(2, 1, 0) == invariants.fan((2, 1))
    assert invariants.z_integral(0, 0, 2) == invariants.fan((2,))
    assert invariants.z_integral(0, 0, 0) == 1


def test_z_symmetry_outer_swap():
    for m1, m2, m3 in ((1, 0, 2), (2, 1, 1), (3, 2, 1)):
        assert invariants.z_integral(m1, m2, m3) == \
            invariants.z_integral(m3, m2, m1)


def test_exchange_e2():
    e2 = invariants.exchange_e2()
    assert str(e2) == "(-1)/(n^3 - n)"
    assert e2.eval_at(2) == Fraction(-1, 6)
    assert invariants.exchange_e2_by_rotation() == e2
    assert invariants.exchange_e2_by_unitarity() == e2


def test_degree3_catalog():
    vals = {k: invariants.degree3(k) for k in invariants.DEGREE3_KEYS}
    assert vals["6a"].eval_at(3) == Fraction(1, 30)
    assert vals["6b"].eval_at(3) == Fraction(7, 120)
    assert vals["6c"] == vals["6d"]
    assert vals["6c"].eval_at(2) == Fraction(-1, 12)
    assert vals["6e"].eval_at(3) == Fraction(-1, 120)
    assert vals["6f"].eval_at(3) == Fraction(-1, 40)
    assert vals["6g"].eval_at(3) == Fraction(1, 60)


def test_degree3_queries_evaluate_to_catalog():
    for key in invariants.DEGREE3_KEYS:
        q = invariants.degree3_query(key)
        assert weingarten.evaluate(q, symbolic=True) == invariants.degree3(key)


def test_x_special_values():
    # x4(1,0) is the basic exchange
    assert invariants.x_special("x4", 1, 0) == invariants.exchange_e2()
    assert invariants.x_special("x4", 2, 0).eval_at(3) == Fraction(-1, 60)
    assert invariants.x_special("x5", 1, 1).eval_at(4) == Fraction(-1, 180)
    with pytest.raises(ValueError):
        invariants.x_special("x4", 0, 1)
    with pytest.raises(ValueError):
        invariants.x_special("x5", 1, 0)


def test_x_query_balance_validation():
    with pytest.raises(ValueError, match="x0 constraints violated"):
        invariants.x_query((1, 0, 2, 1, 0, 1, 1, 1))
    with pytest.raises(ValueError, match="x0 constraints violated"):
        invariants.x_integral((1, 0, 0, 0, 0, 0, 0, 1))


def test_x_integral_direct_reduces_to_z():
    # a zero weight in a direct loop makes it a two-column diagram
    assert invariants.x_integral((0, 1, 1, 1, 0, 1, 1, 1), symbolic=True) == \
        invariants.z_integral(1, 1, 1)
    assert invariants.x_integral((1, 0, 1, 1, 1, 0, 1, 1), symbolic=True) == \
        invariants.z_integral(1, 1, 1)


def test_x_integral_general_uses_engine():
    # all weights positive: no closed form, engine value returned
    w = (1, 1, 1, 1, 1, 1, 1, 1)
    got = invariants.x_integral(w, symbolic=True)
    assert got == weingarten.evaluate(invariants.x_query(w), symbolic=True)


def test_x_integral_routes_agree_with_engine():
    # every balanced weight vector with entries <= 3 and 1 <= r+s+t+u <= 7
    checks = 0
    for w in itertools.product(range(4), repeat=8):
        p = sum(w[:4])
        if not 1 <= p <= 7 or not invariants.x_check_balance(w):
            continue
        q = invariants.x_query(w)
        sym = invariants.x_integral(w, symbolic=True)
        assert sym == weingarten.evaluate(q, symbolic=True), w
        for n in range(max(sym.validity_min_n, max(q.I + q.J)), p + 2):
            want = weingarten.moment_at(
                canonicalize(invariants.x_query(w, n)), n)
            assert invariants.x_integral(w, n=n) == want, (w, n)
            checks += 1
    assert checks == 1269


def test_relations_all_hold():
    assert invariants.verify_relation("fan", (2, 1), False)
    assert invariants.verify_relation("fan", (2, 1), True)
    assert invariants.verify_relation("rot2", "distinct")
    assert invariants.verify_relation("4b", 3)
    assert invariants.verify_relation("4a3", 4)
    assert invariants.verify_relation("4c2", 1, 0, 1)
    assert invariants.verify_relation("4c3", 1, 1, 2)
    for line in range(1, 6):
        assert invariants.verify_relation("61", line)
    assert invariants.verify_relation("x3", "x4", 2, 1)
    assert invariants.verify_relation("x3", "z-left", 1, 1)


def test_matcher_fan():
    q = invariants.fan_query((2, 1), n=4)
    hit = invariants.match_closed_form(canonicalize(q))
    assert hit is not None
    family, rf = hit
    assert family == "fan"
    assert rf == invariants.fan((2, 1))


def test_matcher_zero_and_normalization():
    zq = MomentQuery.make(2, (1,), (1,), (2,), (1,))
    family, rf = invariants.match_closed_form(canonicalize(zq))
    assert family == "zero" and rf == 0
    eq = MomentQuery.make(2, (), (), (), ())
    family, rf = invariants.match_closed_form(canonicalize(eq))
    assert family == "normalization" and rf == 1


def test_matcher_z_family():
    q = invariants.z_query(1, 1, 1)
    hit = invariants.match_closed_form(canonicalize(q))
    assert hit is not None and hit[0] == "z"
    assert hit[1] == invariants.z_integral(1, 1, 1)


def test_matcher_exchange_families():
    q = invariants.e2_query()
    hit = invariants.match_closed_form(canonicalize(q))
    assert hit is not None and hit[0] in ("x4", "x5")
    assert hit[1] == invariants.exchange_e2()


def test_matcher_degree3():
    for key in invariants.DEGREE3_KEYS:
        q = invariants.degree3_query(key)
        hit = invariants.match_closed_form(canonicalize(q))
        assert hit is not None, key
        assert hit[1] == invariants.degree3(key), key


def test_matcher_is_sound_on_random_queries():
    import random
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        n = rng.randrange(2, 5)
        p = rng.randrange(1, 5)
        I = tuple(rng.randrange(1, n + 1) for _ in range(p))
        J = tuple(rng.randrange(1, n + 1) for _ in range(p))
        K = list(I)
        rng.shuffle(K)
        L = list(J)
        rng.shuffle(L)
        q = MomentQuery.make(n, I, J, tuple(K), tuple(L))
        hit = invariants.match_closed_form(canonicalize(q))
        if hit is None:
            continue
        checked += 1
        _family, rf = hit
        want = weingarten.evaluate(q, symbolic=True)
        assert rf == want, (q, hit)
    assert checked > 50  # the matcher must actually fire on easy queries


def test_matcher_respects_transposed_catalog_entries():
    # every catalog moment transposed, with its rows and columns renamed so
    # that neither keeps its order of first appearance
    for key in invariants.DEGREE3_KEYS:
        base = invariants.degree3_query(key)
        n = base.n
        rows = {v: v % n + 1 for v in range(1, n + 1)}
        cols = {v: n + 1 - v for v in range(1, n + 1)}
        flipped = MomentQuery.make(
            n, [cols[v] for v in base.J], [rows[v] for v in base.I],
            [cols[v] for v in base.L], [rows[v] for v in base.K])
        hit = invariants.match_closed_form(canonicalize(flipped))
        assert hit is not None, key
        assert hit[1] == invariants.degree3(key), key


def test_moment_labels_the_route():
    cases = [
        (invariants.fan_query((2, 1)), "invariant:fan"),
        (invariants.z_query(1, 1, 1), "invariant:z"),
        (invariants.e2_query(), "invariant:x4"),
        # x5(1, 1) is x4(1, 1) with its columns swapped
        (invariants.x_query(invariants.x_special_weights("x5", 1, 1), n=3),
         "invariant:x4"),
        (invariants.degree3_query("6b"), "invariant:6b"),
        (MomentQuery.make(2, (1,), (1,), (2,), (1,)), "invariant:zero"),
        (MomentQuery.make(2, (), (), (), ()), "invariant:normalization"),
        (invariants.x_query((1, 1, 1, 1, 1, 1, 1, 1)), "group"),
    ]
    for q, label in cases:
        for symbolic in (False, True):
            value, got = invariants.moment(q, symbolic=symbolic)
            assert got == label, (q, symbolic)
            assert value == weingarten.evaluate(q, symbolic=symbolic), q
            assert invariants.moment(q, "group", symbolic) == (value, "group")


def test_moment_refuses_a_form_below_its_domain(monkeypatch):
    # no catalog form is asserted above the number of distinct indices
    # (test_closed_form_hits_match_group_engine), so no method falls back
    # to the engine when a matched form does not evaluate: a narrowed copy
    # of E(2) stands in for a form invalid at q.n
    narrowed = invariants.exchange_e2().with_validity(3)
    monkeypatch.setattr(invariants, "match_closed_form",
                        lambda m: ("x4", narrowed))
    q = invariants.e2_query(n=2)
    for method in ("auto", "invariant"):
        with pytest.raises(ValueError, match="outside validity domain"):
            invariants.moment(q, method)
        assert (invariants.moment(q, method, symbolic=True)
                == (narrowed, "invariant:x4"))
    assert invariants.moment(q, "group") == (Fraction(-1, 6), "group")


def test_moment_refusals():
    q = MomentQuery.make(4, (1, 2, 3, 4), (1, 2, 3, 4),
                         (2, 3, 4, 1), (3, 4, 2, 1))
    with pytest.raises(ValueError, match="no closed form; use method=group"):
        invariants.moment(q, "invariant")
    assert invariants.moment(q, "auto")[1] == "group"
    with pytest.raises(ValueError, match="method must be one of"):
        invariants.moment(q, "fast")


def _present(draw, q):
    """q with its rows and columns relabeled injectively into 1..p+1, its
    factors reordered, half the time transposed, and half the time with the
    conjugated and plain factors swapped."""
    p = len(q.I)
    rows = sorted(set(q.I) | set(q.K))
    cols = sorted(set(q.J) | set(q.L))
    rmap = dict(zip(rows, draw(st.permutations(range(1, p + 2)))))
    cmap = dict(zip(cols, draw(st.permutations(range(1, p + 2)))))
    conj = [(rmap[i], cmap[j]) for i, j in zip(q.I, q.J)]
    plain = [(rmap[k], cmap[l]) for k, l in zip(q.K, q.L)]
    if draw(st.booleans()):
        conj = [(j, i) for i, j in conj]
        plain = [(l, k) for k, l in plain]
    if draw(st.booleans()):
        conj, plain = plain, conj
    conj = draw(st.permutations(conj))
    plain = draw(st.permutations(plain))
    I, J = zip(*conj)
    K, L = zip(*plain)
    return MomentQuery.make(max(I + J), I, J, K, L)


def _x_loop(draw, family):
    """An x4 or x5 query with t + u <= 4."""
    lo = 1 if family == "x4" else 0
    t = draw(st.integers(lo, 3 + lo))
    u = draw(st.integers(1 - lo, 4 - t))
    return invariants.x_query(invariants.x_special_weights(family, t, u))


@st.composite
def _catalog_presentations(draw):
    """A fan, z, x4/x5 or degree-3 query with p <= 5, and a random
    presentation of the same moment."""
    family = draw(st.sampled_from(("fan", "z", "x4", "x5", "degree3")))
    if family == "fan":
        ms = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)
                  .filter(lambda ms: sum(ms) <= 5))
        q = invariants.fan_query(ms)
    elif family == "z":
        ms = draw(st.tuples(*[st.integers(0, 5)] * 3)
                  .filter(lambda ms: 1 <= sum(ms) <= 5))
        q = invariants.z_query(*ms)
    elif family in ("x4", "x5"):
        q = _x_loop(draw, family)
    else:
        q = invariants.degree3_query(
            draw(st.sampled_from(invariants.DEGREE3_KEYS)))
    return q, _present(draw, q)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_catalog_presentations())
def test_closed_form_hits_match_group_engine(pair):
    _, q = pair
    hit = invariants.match_closed_form(canonicalize(q))
    if hit is None:
        return
    rf = hit[1]
    group = weingarten.evaluate(q, symbolic=True)
    assert (rf.num, rf.den) == (group.num, group.den), hit[0]
    # the form holds from the least n of any query of the moment on, so
    # invariants.moment needs no fallback to the engine; from n = p on no
    # factor n + k, |k| < p, of its denominator vanishes
    least = max(len(set(q.I + q.K)), len(set(q.J + q.L)))
    assert rf.validity_min_n <= least, hit
    m = canonicalize(q)
    for n in range(least, len(q.I) + 2):
        assert rf.eval_at(n) == weingarten.moment_at(m, n), (hit[0], n)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_catalog_presentations())
def test_route_label_does_not_depend_on_the_presentation(pair):
    # transposed fans, z and loops and the transposed catalog moments reach
    # the matcher only through the normal form's orientation
    q, shown = pair
    n = max(shown.n, *q.I, *q.J)
    base = MomentQuery.make(n, q.I, q.J, q.K, q.L)
    shown = MomentQuery.make(n, shown.I, shown.J, shown.K, shown.L)
    for symbolic in (False, True):
        want = invariants.moment(base, symbolic=symbolic)
        assert invariants.moment(shown, symbolic=symbolic) == want, shown
    assert want[1].startswith("invariant:"), want
