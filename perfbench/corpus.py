"""Seeded inputs for the benchmark workloads.

Everything here is plain Python driven by ``random.Random(seed)``: the same
seed gives byte-identical corpora, and nothing is taken from the program
under test.  Each workload has a fixed composition: how many queries of each
kind, their degrees and, for batch-heavy and batch-symbolic, the exact
monomial of every slot up to relabeling.  The seed chooses row and column
labels, factor orders, the query order, n where a range is allowed, and the
random draws of batch-light and mc.  Work per corpus is therefore nearly the
same for every seed, which keeps the spread between seeds small.

A moment query is built in aligned form first: conjugated factors
(I[a], J[a]) and plain factors (I[a], J[Q[a]]).  It is then scrambled by
renaming rows and columns injectively into 1..n and shuffling both factor
lists, so the program has to canonicalize it again.

The pair count |S_I|*|S_J| of a query depends only on the block sizes of I
and J.  |H| is the order of S_J ∩ Q S_I Q^-1, the product of factorials of
the multiplicities of the plain pairs (I[x], J[Q[x]]).
"""
from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from math import factorial, prod

# First line of every exact corpus.  Its answer marks the end of process
# start-up, so every later gap between result lines is one query's service
# time.  It is excluded from throughput and latency.
LEAD = {"n": 2, "I": [1], "J": [1], "K": [1], "L": [1]}

# batch-heavy: (I blocks, J blocks, |H|, row-restricted n < p).  Pair counts
# run from 1.2e4 to 4.1e5; |H| is fixed per slot (the mode over random
# matchings, or 1 for the trivial-H slots).
HEAVY_SLOTS = (
    ((3, 3, 3), (3, 3, 3), 1, False),
    ((4, 4, 1), (3, 2, 2, 2), 1, True),
    ((4, 3, 2), (3, 3, 2, 1), 1, False),
    ((7, 1, 1), (2, 2, 1, 1, 1, 1, 1), 1, True),
    ((6, 2, 1), (3, 2, 1, 1, 1, 1), 1, False),
    ((4, 4, 1), (3, 3, 2, 1), 4, False),
    ((5, 2), (4, 2, 1), 6, True),
    ((4, 3), (5, 1, 1), 12, False),
    ((5, 1, 1), (5, 1, 1), 6, False),
    ((6, 1), (3, 3, 1), 12, True),
    ((5, 2), (5, 1, 1), 12, False),
    ((6, 1), (4, 2, 1), 12, False),
    ((5, 2, 1), (4, 2, 1, 1), 6, True),
    ((4, 4), (3, 2, 2, 1), 2, False),
    ((4, 3, 1), (4, 3, 1), 4, False),
    ((6, 2), (2, 2, 2, 2), 4, True),
    ((5, 3), (4, 2, 1, 1), 6, False),
    ((4, 4), (3, 3, 2), 4, False),
    ((6, 1, 1), (4, 3, 1), 12, False),
    ((5, 2, 2), (3, 2, 2, 2), 2, True),
    ((5, 3, 1), (3, 3, 2, 1), 4, False),
    ((5, 4), (3, 2, 2, 1, 1), 4, True),
    ((6, 3), (3, 2, 2, 1, 1), 4, False),
    ((5, 3, 1), (4, 3, 2), 8, False),
    ((6, 2, 1), (4, 3, 2), 12, False),
)

# batch-symbolic: per degree p, (I blocks, J blocks) with 1..576 pairs.
SYMBOLIC_SLOTS = {
    7: (((1,) * 7, (1,) * 7), ((2,) + (1,) * 5, (2,) + (1,) * 5),
        ((2, 2, 1, 1, 1), (3, 1, 1, 1, 1)), ((3, 2, 1, 1), (2, 2, 2, 1)),
        ((3, 3, 1), (2, 2, 1, 1, 1)), ((4, 1, 1, 1), (3, 2, 1, 1))),
    8: (((1,) * 8, (1,) * 8), ((2, 2) + (1,) * 4, (2,) + (1,) * 6),
        ((3,) + (1,) * 5, (2, 2, 2, 1, 1)), ((2, 2, 2, 2), (3, 2, 1, 1, 1)),
        ((3, 3, 1, 1), (3, 2, 1, 1, 1)), ((4, 2, 1, 1), (2, 2, 2, 1, 1))),
    9: (((1,) * 9, (1,) * 9), ((2,) + (1,) * 7, (2, 2) + (1,) * 5),
        ((3, 2) + (1,) * 4, (2, 2) + (1,) * 5),
        ((2, 2, 2, 1, 1, 1), (3, 2) + (1,) * 4),
        ((3, 3, 1, 1, 1), (2, 2, 2, 1, 1, 1)),
        ((4,) + (1,) * 5, (3, 2, 2, 1, 1))),
    10: (((1,) * 10, (1,) * 10), ((2,) + (1,) * 8, (2,) + (1,) * 8),
         ((2, 2) + (1,) * 6, (3,) + (1,) * 7),
         ((3, 2) + (1,) * 5, (2, 2, 2) + (1,) * 4),
         ((2, 2, 2, 2, 1, 1), (3, 2) + (1,) * 5),
         ((3, 3) + (1,) * 4, (2, 2, 2) + (1,) * 4)),
    11: (((1,) * 11, (1,) * 11), ((2,) + (1,) * 9, (2, 2) + (1,) * 7),
         ((2, 2) + (1,) * 7, (3,) + (1,) * 8),
         ((3, 2) + (1,) * 6, (2, 2, 2) + (1,) * 5),
         ((2, 2, 2, 2, 1, 1, 1), (3, 2) + (1,) * 6),
         ((3, 3, 2, 1, 1, 1), (2, 2) + (1,) * 7)),
}

# batch-light: fresh queries by family, then repeats of earlier ones, 3/7
# of each family's fresh count (900 in all).
LIGHT_FRESH = {"fan-row": 300, "fan-col": 200, "z": 300, "x4": 200,
               "x5": 200, "degree3": 200, "group": 560, "zero": 140}
LIGHT_REPEATS = {"fan-row": 129, "fan-col": 86, "z": 128, "x4": 86,
                 "x5": 86, "degree3": 85, "group": 240, "zero": 60}
ZERO_BASES = ("fan-row", "z", "group")  # families a zero query is broken from
LIGHT_SYMBOLIC_SHARE = 4  # one fresh query in four asks for symbolic output

DEGREE3 = (  # the seven degree-3 patterns (I, J, K, L) of the catalog
    ((1, 1, 2), (1, 2, 3), (1, 1, 2), (1, 2, 3)),
    ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)),
    ((1, 2, 1), (1, 2, 2), (1, 2, 1), (2, 1, 2)),
    ((1, 2, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1)),
    ((1, 2, 2), (1, 2, 3), (1, 2, 2), (2, 1, 3)),
    ((1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 1, 3)),
    ((1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 3, 1)),
)

# mc: Haar estimates as dimension -> (samples per estimate, degrees), plus
# sphere estimates as (dimension, nonzero coordinates); query indices at
# positions listed in MC_ZERO get a broken multiset (exact value 0).
MC_HAAR = {2: (40000, (1, 2, 3, 4)), 3: (40000, (2, 3, 4, 5)),
           4: (24000, (2, 3, 5, 6)), 6: (16000, (1, 3, 4, 6)),
           8: (8000, (2, 4, 5, 6)), 10: (4000, (1, 3, 5, 6))}
MC_ZERO = (5, 17)
MC_SPHERE = ((3, 2), (4, 3), (6, 3), (8, 2), (12, 3), (16, 3))
MC_SPHERE_SAMPLES = 200000


@dataclass
class Workload:
    """Generated inputs: ``exact`` is the JSONL corpus (one dict per line,
    ``LEAD`` first); ``mc`` lists Monte Carlo estimate specs."""
    name: str
    exact: list[dict]
    mc: list[dict] = field(default_factory=list)

    def jsonl(self) -> str:
        """The corpus as the CLI reads it (the "kind" tags stay here)."""
        return "".join(json.dumps({k: v for k, v in q.items() if k != "kind"})
                       + "\n" for q in self.exact)

    def composition(self) -> dict:
        kinds = Counter(q.get("kind", "?") for q in self.exact[1:])
        out = {"queries": len(self.exact) - 1, "by_kind": dict(kinds),
               "symbolic": sum(bool(q.get("symbolic")) for q in self.exact)}
        if self.mc:
            out["estimates"] = len(self.mc)
            out["samples"] = sum(s["samples"] for s in self.mc)
        return out


def labels(blocks) -> list[int]:
    return [i + 1 for i, b in enumerate(blocks) for _ in range(b)]


def h_order(I, J, Q) -> int:
    """|S_J ∩ Q S_I Q^-1| for the aligned monomial (I, J, Q)."""
    plain = Counter((I[x], J[Q[x]]) for x in range(len(I)))
    return prod(factorial(m) for m in plain.values())


def scramble(rng: random.Random, n: int, I, J, Q) -> dict:
    """Query dict for the aligned monomial (I, J, Q); see scramble_raw."""
    return scramble_raw(rng, n, I, J, I, [J[Q[a]] for a in range(len(I))])


def scramble_raw(rng: random.Random, n: int, I, J, K, L) -> dict:
    """Query dict for the monomial (I, J | K, L), relabeled into 1..n and
    with both factor lists shuffled."""
    rows = sorted(set(I) | set(K))
    cols = sorted(set(J) | set(L))
    rmap = dict(zip(rows, rng.sample(range(1, n + 1), len(rows))))
    cmap = dict(zip(cols, rng.sample(range(1, n + 1), len(cols))))
    conj = [(rmap[r], cmap[c]) for r, c in zip(I, J)]
    plain = [(rmap[r], cmap[c]) for r, c in zip(K, L)]
    rng.shuffle(conj)
    rng.shuffle(plain)
    return {"n": n, "I": [r for r, _ in conj], "J": [c for _, c in conj],
            "K": [r for r, _ in plain], "L": [c for _, c in plain]}


def variant(rng: random.Random, q: dict) -> dict:
    """An equivalent query: renamed rows and columns, shuffled factors, and
    half the time transposed (rows and columns swap roles)."""
    n = q["n"]
    rmap = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    cmap = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    conj = [(rmap[r], cmap[c]) for r, c in zip(q["I"], q["J"])]
    plain = [(rmap[r], cmap[c]) for r, c in zip(q["K"], q["L"])]
    if rng.random() < 0.5:
        conj = [(c, r) for r, c in conj]
        plain = [(c, r) for r, c in plain]
    rng.shuffle(conj)
    rng.shuffle(plain)
    out = dict(q, I=[r for r, _ in conj], J=[c for _, c in conj],
               K=[r for r, _ in plain], L=[c for _, c in plain])
    out["kind"] = q["kind"] + "-repeat"
    return out


def break_multiset(rng: random.Random, q: dict) -> dict:
    """Replace one plain column by another, so L is no rearrangement of J
    and the moment is exactly zero."""
    L = list(q["L"])
    a = rng.randrange(len(L))
    L[a] = rng.choice([c for c in range(1, q["n"] + 1) if c != L[a]])
    return dict(q, L=L)


def matched(rng: random.Random, I_blocks, J_blocks, h_target=None,
            tries: int = 200000):
    """Aligned (I, J, Q) with the given block sizes; J's arrangement and Q
    are drawn until |H| equals ``h_target`` (any |H| when None)."""
    I = labels(I_blocks)
    base = labels(J_blocks)
    p = len(I)
    for _ in range(tries):
        J = rng.sample(base, p)
        Q = rng.sample(range(p), p)
        if h_target is None or h_order(I, J, Q) == h_target:
            return I, J, Q
    raise RuntimeError(f"no matching with |H|={h_target} for "
                       f"{I_blocks} x {J_blocks}")


def heavy(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    slots = HEAVY_SLOTS[:3] if tiny else HEAVY_SLOTS
    out = []
    for slot, (I_blocks, J_blocks, h, restricted) in enumerate(slots):
        I, J, Q = matched(random.Random(slot), I_blocks, J_blocks, h)
        p = len(I)
        need = max(len(I_blocks), len(J_blocks))
        n = rng.randint(need, p - 1) if restricted else rng.randint(p, p + 2)
        q = scramble(rng, n, I, J, Q)
        q["kind"] = "group-restricted" if restricted else "group"
        out.append(q)
    rng.shuffle(out)
    return Workload("batch-heavy", [dict(LEAD, kind="lead")] + out)


def symbolic(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    out = []
    for p, slots in SYMBOLIC_SLOTS.items():
        if tiny and p > 7:
            break
        for slot, (I_blocks, J_blocks) in enumerate(slots[:2] if tiny
                                                    else slots):
            I, J, Q = matched(random.Random(100 * p + slot), I_blocks,
                              J_blocks)
            n = max(len(I_blocks), len(J_blocks))
            q = scramble(rng, n, I, J, Q)
            q["symbolic"] = True
            q["kind"] = f"symbolic-p{p}"
            out.append(q)
    # fixed order, p ascending: each degree's class-integral table is built
    # by the same query for every seed
    return Workload("batch-symbolic", [dict(LEAD, kind="lead")] + out)


def _composition(rng: random.Random, ms_total: int, parts: int) -> list[int]:
    """Random composition of ms_total into ``parts`` positive parts."""
    cuts = sorted(rng.sample(range(1, ms_total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [ms_total])]


def light_fresh(rng: random.Random, kind: str, i: int) -> dict:
    """The i-th fresh batch-light query of the given family, degree p <= 5."""
    if kind in ("fan-row", "fan-col"):
        # one row (or one column): every matching Q leaves the monomial direct
        p = rng.randint(1, 5)
        ms = _composition(rng, p, rng.randint(1, p)) if p > 1 else [1]
        I, J = [1] * p, labels(ms)
        if kind == "fan-col":
            I, J = J, I
        n = rng.randint(max(len(ms), 2), 8)
        return scramble(rng, n, I, J, rng.sample(range(p), p))
    if kind == "z":  # rows i, j; i-a m1, j-a m2, j-b m3
        while True:
            m1, m2, m3 = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3)
            if m1 + m2 + m3 <= 5:
                break
        I = [1] * m1 + [2] * (m2 + m3)
        J = [1] * (m1 + m2) + [2] * m3
        return scramble(rng, rng.randint(2, 8), I, J, list(range(len(I))))
    if kind in ("x4", "x5"):
        while True:
            t, u = rng.randint(0, 3), rng.randint(0, 3)
            if kind == "x4" and t >= 1 and 1 + t + u <= 5:
                w = (1, 0, t, u, 0, 1, t - 1, u + 1)
                break
            if kind == "x5" and u >= 1 and 1 + t + u <= 5:
                w = (0, 1, t, u, 1, 0, t + 1, u - 1)
                break
        r, s, t, u, rp, sp, tp, up = w
        I = [1] * (r + s) + [2] * (t + u)
        J = [1] * r + [2] * s + [2] * t + [1] * u
        K = [1] * (rp + sp) + [2] * (tp + up)
        L = [1] * rp + [2] * sp + [2] * tp + [1] * up
        return scramble_raw(rng, rng.randint(2, 8), I, J, K, L)
    if kind == "degree3":
        I, J, K, L = rng.choice(DEGREE3)
        return scramble_raw(rng, rng.randint(3, 8), I, J, K, L)
    if kind == "group":  # p in {4, 5} over >= 3 rows and >= 3 columns
        p = 4 + i % 2
        I_blocks = _composition(rng, p, rng.randint(3, p))
        J_blocks = _composition(rng, p, rng.randint(3, p))
        I, J, Q = matched(rng, I_blocks, J_blocks)
        need = max(len(I_blocks), len(J_blocks))
        return scramble(rng, rng.randint(need, 8), I, J, Q)
    raise ValueError(kind)


def light(seed: int, tiny: bool = False) -> Workload:
    """Fixed counts per family, symbolic share, group degree and zero base
    family; a fixed number of repeats per family, each of a source of that
    family (a quarter of them symbolic) and placed after it."""
    rng = random.Random(seed)
    scale = 20 if tiny else 1
    fresh = []
    for kind, count in LIGHT_FRESH.items():
        count = max(1, count // scale)
        flags = [i % LIGHT_SYMBOLIC_SHARE == 0 for i in range(count)]
        rng.shuffle(flags)
        for i, sym in enumerate(flags):
            if kind == "zero":
                base = ZERO_BASES[i % len(ZERO_BASES)]
                q = break_multiset(rng, light_fresh(rng, base, i))
            else:
                q = light_fresh(rng, kind, i)
            q["kind"] = kind
            if sym:
                q["symbolic"] = True
            fresh.append(q)
    rng.shuffle(fresh)
    # order keys: fresh queries at 0, 1, ...; a repeat anywhere after its
    # source
    keyed = [(float(pos), q) for pos, q in enumerate(fresh)]
    for kind, count in LIGHT_REPEATS.items():
        family = [(pos, q) for pos, q in enumerate(fresh) if q["kind"] == kind]
        sym = [f for f in family if f[1].get("symbolic")]
        plain = [f for f in family if not f[1].get("symbolic")]
        for i in range(max(1, count // scale)):
            pos, src = rng.choice(
                sym if i % LIGHT_SYMBOLIC_SHARE == 0 and sym else plain)
            keyed.append((rng.uniform(pos, len(fresh)), variant(rng, src)))
    keyed.sort(key=lambda kq: kq[0])
    return Workload("batch-light",
                    [dict(LEAD, kind="lead")] + [q for _, q in keyed])


def mc(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    specs = []
    for n, (samples, degrees) in MC_HAAR.items():
        if tiny and n > 3:
            break
        for p in degrees:
            I = [rng.randint(1, n) for _ in range(p)]
            J = [rng.randint(1, n) for _ in range(p)]
            q = scramble(rng, n, I, J, rng.sample(range(p), p))
            if len(specs) in MC_ZERO:
                q = break_multiset(rng, q)
            specs.append({"kind": "haar", "query": q,
                          "samples": samples // (10 if tiny else 1),
                          "seed": rng.getrandbits(63)})
    for n, nonzero in MC_SPHERE[: 1 if tiny else None]:
        e = [0] * n
        for i in rng.sample(range(n), nonzero):
            e[i] = rng.randint(1, 4)
        specs.append({"kind": "sphere", "exponents": e,
                      "samples": MC_SPHERE_SAMPLES // (10 if tiny else 1),
                      "seed": rng.getrandbits(63)})
    rng.shuffle(specs)
    exact = [dict(LEAD, kind="lead")] + [
        dict(s["query"], kind="mc-reference") for s in specs
        if s["kind"] == "haar"]
    return Workload("mc", exact, specs)


GENERATORS = {"batch-heavy": heavy, "batch-symbolic": symbolic,
              "batch-light": light, "mc": mc}


def generate(name: str, seed: int, tiny: bool = False) -> Workload:
    return GENERATORS[name](seed, tiny)
