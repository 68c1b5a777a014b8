"""Named verification suites, shared by the CLI ``verify`` subcommand and the
acceptance tests.

Every suite returns a list of CheckResult; a suite passes when every check
does.  All checks are exact rational identities except the Monte Carlo
cross-check, which is statistical at five standard errors.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial

from . import invariants, sphere, weingarten
from .partitions import (character, class_size, dim_symmetric, dim_unitary,
                         partitions_of)
from .queries import CanonicalMoment, MomentQuery, alignments, canonicalize
from .ratfun import Poly, RationalFunction

DEFAULT_SEED = 20260816


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(results: list[CheckResult], name: str, ok, detail: str = "") -> None:
    results.append(CheckResult(name, bool(ok), detail))


def _sym(q: MomentQuery) -> RationalFunction:
    return weingarten.evaluate(q, symbolic=True)


# ---------------------------------------------------------------------------
# paper-tables: the group engine reproduces every closed form exactly

def run_paper_tables(**_) -> list[CheckResult]:
    res: list[CheckResult] = []

    one_over_n = RationalFunction.over_linear(Poly((1,)), (0,), 1)
    q1 = MomentQuery.make(1, (1,), (1,), (1,), (1,))
    _check(res, "p1-direct", _sym(q1) == one_over_n, "<|U_11|^2> = 1/n")

    for total in range(1, 6):
        for ms in partitions_of(total):
            got = _sym(invariants.fan_query(ms))
            _check(res, f"fan-{','.join(map(str, ms))}",
                   got == invariants.fan(ms))

    for m1, m2, m3 in product(range(4), repeat=3):
        got = _sym(invariants.z_query(m1, m2, m3))
        _check(res, f"z-{m1}{m2}{m3}", got == invariants.z_integral(m1, m2, m3))

    e2 = invariants.exchange_e2()
    _check(res, "e2-group", _sym(invariants.e2_query()) == e2)
    _check(res, "e2-routes",
           invariants.exchange_e2_by_rotation() == e2
           and invariants.exchange_e2_by_unitarity() == e2)

    for key in invariants.DEGREE3_KEYS:
        got = _sym(invariants.degree3_query(key))
        _check(res, f"degree3-{key}", got == invariants.degree3(key))

    for t in range(1, 5):
        for u in range(0, 5 - t):
            w = invariants.x_special_weights("x4", t, u)
            _check(res, f"x4-t{t}u{u}",
                   _sym(invariants.x_query(w)) == invariants.x_special("x4", t, u))
    for t in range(0, 4):
        for u in range(1, 5 - t):
            w = invariants.x_special_weights("x5", t, u)
            _check(res, f"x5-t{t}u{u}",
                   _sym(invariants.x_query(w)) == invariants.x_special("x5", t, u))
    return res


# ---------------------------------------------------------------------------
# unitarity-sums: class-integral forms and randomized unitarity identities

_XI_EXPECT: dict[tuple[int, ...], tuple] = {
    (1,): (Poly((1,)), (0,)),
    (1, 1): (Poly((1,)), (-1, 1)),
    (2,): (Poly((-1,)), (-1, 0, 1)),
    (1, 1, 1): (Poly((-2, 0, 1)), (-2, -1, 0, 1, 2)),
    (2, 1): (Poly((-1,)), (-2, -1, 1, 2)),
    (3,): (Poly((2,)), (-2, -1, 0, 1, 2)),
}


def run_unitarity_sums(seed: int = DEFAULT_SEED, **_) -> list[CheckResult]:
    res: list[CheckResult] = []

    for ct, (num, shifts) in _XI_EXPECT.items():
        want = RationalFunction.over_linear(num, shifts, sum(ct))
        _check(res, f"xi-{','.join(map(str, ct))}",
               weingarten.xi_symbolic(ct) == want)

    for p in range(1, 6):
        ok = all(
            weingarten.xi_at(ct, n) == weingarten.xi_symbolic(ct).eval_at(n)
            for ct in partitions_of(p)
            for n in (p, p + 1, p + 2)
        )
        _check(res, f"xi-fixed-vs-symbolic-p{p}", ok,
               "row-restricted fixed n agrees above n >= p")

    rng = random.Random(seed)
    for p in range(1, 6):
        for n in (2, 3, 4):
            bad = 0
            for _trial in range(50):
                base = p - 1
                I = tuple(rng.randrange(1, n + 1) for _ in range(base))
                J = tuple(rng.randrange(1, n + 1) for _ in range(base))
                K = list(I)
                rng.shuffle(K)
                L = list(J)
                rng.shuffle(L)
                if rng.random() < 0.25:
                    K = [rng.randrange(1, n + 1) for _ in range(base)]
                if rng.random() < 0.25:
                    L = [rng.randrange(1, n + 1) for _ in range(base)]
                ip = rng.randrange(1, n + 1)
                kp = rng.randrange(1, n + 1)
                total = sum(
                    weingarten.evaluate(MomentQuery.make(
                        n, I + (ip,), J + (a,), tuple(K) + (kp,),
                        tuple(L) + (a,)))
                    for a in range(1, n + 1)
                )
                want = (weingarten.evaluate(
                    MomentQuery.make(n, I, J, tuple(K), tuple(L)))
                    if ip == kp else Fraction(0))
                if total != want:
                    bad += 1
            _check(res, f"unitarity-sum-p{p}-n{n}", bad == 0,
                   f"50 randomized sums, {bad} failures")
    return res


# ---------------------------------------------------------------------------
# orthogonality: character and dimension identities

def _vandermonde_dim(shape: tuple[int, ...], n: int) -> Fraction:
    padded = tuple(shape) + (0,) * (n - len(shape))
    ell = [padded[i] + n - 1 - i for i in range(n)]
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= ell[i] - ell[j]
            den *= j - i
    return Fraction(num, den)


def run_orthogonality(**_) -> list[CheckResult]:
    res: list[CheckResult] = []

    gammas = tuple(len(partitions_of(p)) for p in range(1, 8))
    _check(res, "partition-counts", gammas == (1, 2, 3, 5, 7, 11, 15),
           f"got {gammas}")

    for p in range(0, 9):
        total = sum(dim_symmetric(f) ** 2 for f in partitions_of(p))
        _check(res, f"dim-squares-p{p}", total == factorial(p))

    for p in range(1, 8):
        total = sum(class_size(c) for c in partitions_of(p))
        _check(res, f"class-sizes-p{p}", total == factorial(p))

    for p in range(1, 8):
        shapes = partitions_of(p)
        ok = True
        for f in shapes:
            for g in shapes:
                inner = sum(class_size(c) * character(f, c) * character(g, c)
                            for c in shapes)
                if inner != (factorial(p) if f == g else 0):
                    ok = False
        _check(res, f"orthogonality-p{p}", ok)

    for p in range(0, 7):
        ok = True
        for f in partitions_of(p):
            start = max(len(f), 1)
            for n in range(start, start + 5):
                if dim_unitary(f).eval_at(n) != _vandermonde_dim(f, n):
                    ok = False
        _check(res, f"dim-unitary-vandermonde-p{p}", ok, "5 dimensions each")

    for p in range(0, 8):
        ok = all(dim_symmetric(f) == character(f, (1,) * p)
                 for f in partitions_of(p))
        _check(res, f"dim-vs-identity-character-p{p}", ok)
    return res


# ---------------------------------------------------------------------------
# invariant-relations: the exact cross-relations, term-by-term via the engine

def run_invariant_relations(**_) -> list[CheckResult]:
    res: list[CheckResult] = []

    for total in range(1, 6):
        for ms in partitions_of(total):
            for spectator in (False, True):
                tag = "spectator" if spectator else "bare"
                _check(res, f"fan-relation-{','.join(map(str, ms))}-{tag}",
                       invariants.verify_relation("fan", ms, spectator))

    for variant in ("distinct", "merged-pairs", "merged-cross"):
        _check(res, f"rot2-{variant}",
               invariants.verify_relation("rot2", variant))

    for m in range(1, 5):
        _check(res, f"fan-unitarity-m{m}", invariants.verify_relation("4b", m))
        _check(res, f"fan-recursion-m{m}", invariants.verify_relation("4a3", m))

    for m1, m2 in product(range(3), repeat=2):
        for m3 in (1, 2):
            _check(res, f"z-unitarity-{m1}{m2}{m3}",
                   invariants.verify_relation("4c2", m1, m2, m3))
            _check(res, f"z-recursion-{m1}{m2}{m3}",
                   invariants.verify_relation("4c3", m1, m2, m3))
    _check(res, "z-recursion-213", invariants.verify_relation("4c3", 2, 1, 3))

    for line in range(1, 6):
        _check(res, f"degree3-relation-{line}",
               invariants.verify_relation("61", line))

    for t, u in product(range(3), repeat=2):
        _check(res, f"x-direct-right-t{t}u{u}",
               invariants.verify_relation("x3", "z-right", t, u))
        _check(res, f"x-direct-left-t{t}u{u}",
               invariants.verify_relation("x3", "z-left", t, u))
    for t in range(1, 4):
        for u in range(0, 3):
            _check(res, f"x-exchange-x4-t{t}u{u}",
                   invariants.verify_relation("x3", "x4", t, u))
    for t in range(0, 3):
        for u in range(1, 4):
            _check(res, f"x-exchange-x5-t{t}u{u}",
                   invariants.verify_relation("x3", "x5", t, u))
    return res


# ---------------------------------------------------------------------------
# sphere: hypersphere moment identities

def _double_factorial_odd(m: int) -> int:
    # (2m-1)!! = (2m)! / (2^m m!)
    return factorial(2 * m) // (2 ** m * factorial(m))


def _gamma_half(twice: int) -> tuple[Fraction, int]:
    """Gamma(twice/2) as (rational, power of sqrt(pi)); twice >= 1."""
    if twice % 2 == 0:
        return Fraction(factorial(twice // 2 - 1)), 0
    k = (twice - 1) // 2
    return Fraction(factorial(2 * k), 4 ** k * factorial(k)), 1


def run_sphere(**_) -> list[CheckResult]:
    res: list[CheckResult] = []

    s2 = sphere.s_single_symbolic(2)
    _check(res, "s2-symbolic",
           s2 == RationalFunction.over_linear(Poly((3,)), (0, 2)), "3/(n(n+2))")
    _check(res, "s1-symbolic",
           sphere.s_single_symbolic(1)
           == RationalFunction.over_linear(Poly((1,)), (0,)))
    _check(res, "s2-at-3", sphere.s_single(2, 3) == Fraction(1, 5))
    _check(res, "s11-at-3", sphere.s_multi((1, 1), 3) == Fraction(1, 15))
    _check(res, "s11-is-third-of-s2",
           all(sphere.s_multi((1, 1), n) == sphere.s_single(2, n) / 3
               for n in range(2, 11)))
    _check(res, "s111-is-fifteenth-of-s3",
           all(sphere.s_multi((1, 1, 1), n) == sphere.s_single(3, n) / 15
               for n in range(3, 11)))
    _check(res, "moment-parity", sphere.sphere_moment((1, 0, 0)) == 0)
    _check(res, "moment-4", sphere.sphere_moment((4, 0, 0)) == Fraction(1, 5))
    _check(res, "moment-22", sphere.sphere_moment((2, 2, 0)) == Fraction(1, 15))

    ok = True
    for n in range(1, 13):
        for p in range(0, 9):
            g1, e1 = _gamma_half(2 * p + 1)
            g2, e2 = _gamma_half(n)
            g3, e3 = _gamma_half(2 * p + n)
            if e1 + e2 - e3 - 1 != 0:
                ok = False
                continue
            if g1 * g2 / g3 != sphere.s_single(p, n):
                ok = False
    _check(res, "gamma-form", ok, "p <= 8, n <= 12")

    ok = True
    for n in range(1, 11):
        for p in range(1, 7):
            for ms in partitions_of(p):
                if len(ms) > min(4, n):
                    continue
                direct = Fraction(1)
                for m in ms:
                    direct *= _double_factorial_odd(m)
                for k in range(1, p + 1):
                    direct /= n + 2 * k - 2
                if sphere.s_multi(ms, n) != direct:
                    ok = False
    _check(res, "multi-vs-double-factorial", ok, "p <= 6, t <= 4, n <= 10")

    ok = True
    for n in range(1, 9):
        for t in range(0, min(4, n)):
            base_sets = [()] if t == 0 else [
                ms for p in range(1, 2 * t + 1) for ms in partitions_of(p)
                if len(ms) == t and max(ms) <= 2
            ]
            for ms in base_sets:
                lhs = (n - t) * sphere.s_multi(ms + (1,), n)
                for i in range(t):
                    bumped = ms[:i] + (ms[i] + 1,) + ms[i + 1:]
                    lhs += sphere.s_multi(bumped, n)
                want = sphere.s_multi(ms, n) if ms else Fraction(1)
                if lhs != want:
                    ok = False
    _check(res, "constraint-identity", ok, "(n-t) S(m,1) + sum S(m+e_i) = S(m)")

    _check(res, "argument-symmetry",
           sphere.s_multi((2, 1, 3), 7) == sphere.s_multi((3, 2, 1), 7)
           == sphere.s_multi((1, 3, 2), 7))

    ok = True
    for n in range(1, 9):
        for p in range(0, 7):
            v = sphere.s_single(p, n)
            if not 0 < v <= 1:
                ok = False
            if p:
                prev = sphere.s_single(p - 1, n)
                # on the 0-sphere every even power integrates to 1
                if not (v < prev or (n == 1 and v == prev == 1)):
                    ok = False
    _check(res, "values-in-unit-interval-decreasing", ok)
    return res


# ---------------------------------------------------------------------------
# properties: invariance of the evaluated moment under query rewrites

def _apply_map(mapping: dict[int, int], seq: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(mapping[v] for v in seq)


def run_properties(seed: int = DEFAULT_SEED, trials: int = 200,
                   **_) -> list[CheckResult]:
    rng = random.Random(seed)
    res: list[CheckResult] = []
    bad_relabel = bad_transpose = bad_reorder = bad_choice = 0
    zeros = 0

    for _trial in range(trials):
        n = rng.randrange(2, 5)
        p = rng.randrange(1, 5)
        I = tuple(rng.randrange(1, n + 1) for _ in range(p))
        J = tuple(rng.randrange(1, n + 1) for _ in range(p))
        if rng.random() < 0.7:
            K = list(I)
            rng.shuffle(K)
            L = list(J)
            rng.shuffle(L)
            K, L = tuple(K), tuple(L)
        else:
            q_deg = p if rng.random() < 0.7 else rng.randrange(0, 5)
            K = tuple(rng.randrange(1, n + 1) for _ in range(q_deg))
            L = tuple(rng.randrange(1, n + 1) for _ in range(q_deg))
        q = MomentQuery.make(n, I, J, K, L)
        base = weingarten.evaluate(q)

        row_map = dict(zip(range(1, n + 1),
                           rng.sample(range(1, n + 1), n)))
        col_map = dict(zip(range(1, n + 1),
                           rng.sample(range(1, n + 1), n)))
        relabeled = MomentQuery.make(
            n, _apply_map(row_map, I), _apply_map(col_map, J),
            _apply_map(row_map, K), _apply_map(col_map, L))
        if weingarten.evaluate(relabeled) != base:
            bad_relabel += 1

        transposed = MomentQuery.make(n, J, I, L, K)
        if weingarten.evaluate(transposed) != base:
            bad_transpose += 1

        pi = rng.sample(range(p), p)
        rho = rng.sample(range(len(K)), len(K)) if K else []
        reordered = MomentQuery.make(
            n,
            tuple(I[a] for a in pi), tuple(J[a] for a in pi),
            tuple(K[b] for b in rho), tuple(L[b] for b in rho))
        if weingarten.evaluate(reordered) != base:
            bad_reorder += 1

        cm = canonicalize(q)
        if cm.zero:
            zeros += 1
        else:
            values = {
                weingarten.moment_at(
                    CanonicalMoment(n, p, q.I, q.J, [q.J[b] for b in Q]), n)
                for _R, Q in alignments(q)
            }
            if values != {base}:
                bad_choice += 1

    note = f"{trials} randomized queries ({zeros} phase-zero)"
    _check(res, "relabel-invariance", bad_relabel == 0, note)
    _check(res, "transpose-invariance", bad_transpose == 0, note)
    _check(res, "pair-reorder-invariance", bad_reorder == 0, note)
    _check(res, "alignment-choice-independence", bad_choice == 0, note)
    return res


# ---------------------------------------------------------------------------
# mc-crosscheck: statistical agreement at five standard errors

def _designated_values() -> list[tuple[str, str, object, int, Fraction]]:
    inv = invariants
    rows: list[tuple[str, str, object, int, Fraction]] = []

    def haar(label, q, exact):
        rows.append((label, "haar", q, q.n, Fraction(exact)))

    def sph(label, exponents, exact):
        rows.append((label, "sphere", exponents, len(exponents),
                     Fraction(exact)))

    haar("p1-n2", MomentQuery.make(2, (1,), (1,), (1,), (1,)),
         Fraction(1, 2))
    haar("p1-n3", MomentQuery.make(3, (1,), (1,), (1,), (1,)),
         Fraction(1, 3))
    haar("F2-n2", inv.fan_query((2,), n=2), inv.fan((2,)).eval_at(2))
    haar("F2-n4", inv.fan_query((2,), n=4), inv.fan((2,)).eval_at(4))
    haar("F11-n3", inv.fan_query((1, 1), n=3), inv.fan((1, 1)).eval_at(3))
    haar("F3-n3", inv.fan_query((3,), n=3), inv.fan((3,)).eval_at(3))
    haar("F21-n4", inv.fan_query((2, 1), n=4), inv.fan((2, 1)).eval_at(4))
    haar("Z101-n2", inv.z_query(1, 0, 1, n=2),
         inv.z_integral(1, 0, 1).eval_at(2))
    haar("Z111-n3", inv.z_query(1, 1, 1, n=3),
         inv.z_integral(1, 1, 1).eval_at(3))
    haar("Z201-n3", inv.z_query(2, 0, 1, n=3),
         inv.z_integral(2, 0, 1).eval_at(3))
    haar("E2-n2", inv.e2_query(2), inv.exchange_e2().eval_at(2))
    haar("E2-n3", inv.e2_query(3), inv.exchange_e2().eval_at(3))
    haar("I6a-n3", inv.degree3_query("6a", 3), inv.degree3("6a").eval_at(3))
    haar("I6e-n3", inv.degree3_query("6e", 3), inv.degree3("6e").eval_at(3))
    haar("I6g-n3", inv.degree3_query("6g", 3), inv.degree3("6g").eval_at(3))
    haar("x4-20-n3", inv.x_query(inv.x_special_weights("x4", 2, 0), n=3),
         inv.x_special("x4", 2, 0).eval_at(3))
    haar("x5-11-n4", inv.x_query(inv.x_special_weights("x5", 1, 1), n=4),
         inv.x_special("x5", 1, 1).eval_at(4))
    sph("S2-n3", (4, 0, 0), sphere.sphere_moment((4, 0, 0)))
    sph("S11-n3", (2, 2, 0), sphere.sphere_moment((2, 2, 0)))
    sph("S111-n4", (2, 2, 2, 0), sphere.sphere_moment((2, 2, 2, 0)))
    return rows


def run_mc_crosscheck(samples: int = 200000, seed: int = DEFAULT_SEED,
                      threads: int | None = None, **_) -> list[CheckResult]:
    from .montecarlo import (SamplerConfig, estimate_moment,
                             estimate_sphere_moment, mc_tolerance)

    res: list[CheckResult] = []
    rows = _designated_values()
    assert len(rows) == 20

    for label, kind, payload, n, exact in rows:
        cfg = SamplerConfig(n=n, samples=samples, seed=seed, threads=threads)
        if kind == "haar":
            est = estimate_moment(payload, cfg)
        else:
            est = estimate_sphere_moment(payload, cfg)
        tol = mc_tolerance(est)
        dev = abs(est.mean.real - float(exact))
        ok = dev < tol and abs(est.mean.imag) < tol
        _check(res, f"mc-{label}", ok,
               f"dev={dev:.2e} imag={abs(est.mean.imag):.2e} tol={tol:.2e}")

    for n in (2, 3, 4):
        cfg = SamplerConfig(n=n, samples=samples, seed=seed, threads=threads)
        est = estimate_moment(
            MomentQuery.make(n, (1,), (1,), (1,), (1,)), cfg)
        tol = mc_tolerance(est)
        _check(res, f"mc-sanity-abs-u11-n{n}",
               abs(est.mean.real - 1.0 / n) < tol
               and abs(est.mean.imag) < tol,
               f"<|U_11|^2> vs 1/{n}")
        est0 = estimate_moment(MomentQuery.make(n, (), (), (1,), (1,)), cfg)
        tol0 = mc_tolerance(est0)
        _check(res, f"mc-sanity-mean-u11-n{n}", abs(est0.mean) < tol0,
               "<U_11> vs 0")
    return res


# ---------------------------------------------------------------------------
# registry

SUITES: dict[str, object] = {
    "paper-tables": run_paper_tables,
    "invariant-relations": run_invariant_relations,
    "orthogonality": run_orthogonality,
    "unitarity-sums": run_unitarity_sums,
    "sphere": run_sphere,
    "properties": run_properties,
    "mc-crosscheck": run_mc_crosscheck,
}


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return fn(**kwargs)
