#!/usr/bin/env python3
"""Timing of the rational-function layer: cold construction of reduced
closed forms, the folds of class counts into a moment, large-degree
symbolic answers whose shape weights have few nonzero entries, and a
closed form of large degree at fixed n.

Four kinds of case:

* ``catalog``: every closed form of degree p <= 5 that the matcher can
  answer with (fans, z integrals, x4/x5 loops, the seven degree-3 values),
  each built once.  These are the forms the batch-light corpus uses.
* ``fold p=7`` .. ``fold p=11``: the symbolic fold of the class counts of
  the batch-symbolic corpus queries of that degree (the counts are computed
  first, untimed): the counts are folded into shape weights
  (``weingarten._weights``), and ``weingarten._fold_symbolic`` sums the
  numerator over the common denominator (p!)^2 D_p(n) and reduces it.
* ``fold at n p=7`` .. ``fold at n p=9``: the fixed-n fold of the class
  counts of the batch-heavy corpus queries of that degree, each at its
  query's n (counts untimed as above): ``weingarten._fold_at`` of the shape
  weights.
* public calls, timed through the package's public names only: the
  symbolic group moment of one row against p distinct columns
  (``one-weight p=20`` .. ``p=30``; one nonzero weight), of I = 1^13 2^13
  against J = (1,2)x13 (``two-row p=26``; 14 of 2,436 shapes), and the class
  integrals ``xi_symbolic`` of the 24-cycle (24 hooks of 1,575 shapes) and,
  as a control whose characters cover every shape, of 1^20.  ``fan p=3000``
  is ``moment`` at n = 4 of one row against one column 3,000 times, which
  the closed form 3000!/(n(n+1)...(n+2999)) answers.  ``operators p=400``
  takes the sum, difference, product, equality and hashes of the fans
  ``fan((200, 200))`` and ``fan((400,))``, built untimed, and the first
  divided by n - 1; its results are the four ratios and the equality (the
  hash values change by design, so they are left out).

Each case runs cold in a fresh interpreter, ``--repeat`` times, so no cache
filled by an earlier case or run is reused.  The digest is of every result:
its str, and validity_min_n for a rational function.
"""
import argparse
import json
import statistics
import sys
import time

import _bench

CORPUS_SEED = 3
CASES = (["catalog"] + [f"fold p={p}" for p in range(7, 12)]
         + [f"fold at n p={p}" for p in range(7, 10)]
         + [f"one-weight p={p}" for p in (20, 24, 30)]
         + ["two-row p=26", "xi (24)", "xi 1^20", "fan p=3000",
            "operators p=400"])


def catalog_calls() -> list:
    """(function name, args) of every closed form of degree p <= 5."""
    from haarmoments.invariants import DEGREE3_KEYS
    from haarmoments.partitions import partitions_of

    calls = [("fan", (ms,)) for p in range(1, 6) for ms in partitions_of(p)]
    calls += [("z_integral", (a, b, c)) for a in range(6) for b in range(6)
              for c in range(6) if 1 <= a + b + c <= 5]
    calls += [("x_special", ("x4", t, u)) for t in range(1, 5)
              for u in range(0, 5 - t)]
    calls += [("x_special", ("x5", t, u)) for t in range(0, 4)
              for u in range(1, 5 - t)]
    calls += [("degree3", (key,)) for key in DEGREE3_KEYS]
    return calls


def fold_inputs(workload: str, p: int) -> list:
    """(class counts, n) of the corpus queries of degree p."""
    from haarmoments import weingarten
    from haarmoments.queries import MomentQuery, _first_fit, canonicalize

    out = []
    for obj in _bench.corpus(workload, CORPUS_SEED).exact[1:]:
        q = MomentQuery.from_json_obj(
            {k: v for k, v in obj.items() if k in "nIJKL"})
        m = canonicalize(q)
        if m.p == p:
            Q = _first_fit(m.J, m.L)
            out.append((weingarten.class_counts(m.I, m.J, Q), q.n))
    return out


def folder(at_n: bool, p: int):
    """The fold of one query's class counts, at its n or symbolic."""
    from haarmoments import weingarten

    if at_n:
        return lambda c, n: weingarten._fold_at(weingarten._weights(c), n)
    return lambda c, n: weingarten._fold_symbolic(weingarten._weights(c), p)


def operators(a, b, n_minus_1) -> list:
    """a + b, a - b, a * b, a / (n - 1) and a == b; the hashes of a and b
    are taken but not returned."""
    hash(a), hash(b)
    return [a + b, a - b, a * b, a / n_minus_1, a == b]


def public_call(name: str):
    """The timed call of a public-API case, with nothing computed ahead but
    its operands; it returns the case's results."""
    import haarmoments as hm

    p = int(name.split("=")[1]) if "=" in name else 0
    if name.startswith("one-weight"):
        q = hm.fan_query((1,) * p)
    elif name.startswith("two-row"):
        I = (1,) * (p // 2) + (2,) * (p // 2)
        q = hm.MomentQuery.make(p, I, (1, 2) * (p // 2), I, (1, 2) * (p // 2))
    elif name.startswith("fan"):
        q = hm.fan_query((p,), n=4)
        return lambda: [hm.moment(q)[0]]
    elif name.startswith("operators"):
        a, b = hm.fan((p // 2, p // 2)), hm.fan((p,))
        return lambda: operators(a, b, hm.Poly((-1, 1)))
    else:
        ct = (24,) if name == "xi (24)" else (1,) * 20
        return lambda: [hm.xi_symbolic(ct)]
    return lambda: [hm.moment(q, "group", symbolic=True)[0]]


def run_case(name: str) -> dict:
    """Time one case cold; runs in the child process."""
    from haarmoments import invariants

    if name == "catalog":
        calls = [(getattr(invariants, fn), args) for fn, args in
                 catalog_calls()]
        start = time.perf_counter()
        results = [fn(*args) for fn, args in calls]
        seconds = time.perf_counter() - start
    elif not name.startswith("fold"):
        call = public_call(name)
        start = time.perf_counter()
        results = call()
        seconds = time.perf_counter() - start
    else:
        p = int(name.split("=")[1])
        at_n = name.startswith("fold at n")
        inputs = fold_inputs("batch-heavy" if at_n else "batch-symbolic", p)
        fold = folder(at_n, p)
        start = time.perf_counter()
        results = [fold(c, n) for c, n in inputs]
        seconds = time.perf_counter() - start
    return {"seconds": seconds, "results": len(results),
            "results_sha256": _bench.digest(
                [[str(r), getattr(r, "validity_min_n", None)]
                 for r in results])}


def digests_of(entry: dict):
    for case in entry["cases"]:
        yield case["case"], case["results_sha256"]


def main() -> None:
    ap = _bench.parser(__doc__, "BENCH_ratfun.json", 7)
    ap.add_argument("--case", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.check:
        sys.exit(_bench.check(args.out, digests_of))
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        return

    cases = []
    for name in CASES:
        runs = _bench.repeated(lambda: _bench.child(__file__, "--case", name),
                               args.repeat, "results_sha256", name)
        seconds = [r["seconds"] for r in runs]
        cases.append({
            "case": name, "results": runs[0]["results"],
            "median_s": statistics.median(seconds), "seconds": seconds,
            "results_sha256": runs[0]["results_sha256"],
        })
        print(f"{name:<15} {runs[0]['results']:>4} results "
              f"{statistics.median(seconds) * 1e3:9.2f} ms")
    _bench.write(args.out, (
        "cold construction of the closed forms of degree <= 5; cold "
        "folds of class counts: symbolic over the batch-symbolic corpus, at "
        f"each query's n over the batch-heavy corpus (seed {CORPUS_SEED}); "
        "cold public calls: symbolic group moments with few nonzero shape "
        "weights at p = 20..30, xi_symbolic of the 24-cycle and of 1^20; "
        "the one-row, one-column fan of degree 3000 at n = 4; the four "
        "operators, equality and hashes of two degree-400 fans; "
        "one fresh process per run"), args.label,
        {"host": _bench.host(), "repeat": args.repeat, "cases": cases})


if __name__ == "__main__":
    main()
