#!/usr/bin/env python3
"""Timing of the stabilizer-sum counting, and of the engine's shape weights.

Three kinds of case:

* ``cases``: the public ``weingarten.class_counts`` on six fixed cases, the
  enumeration of the double coset: the coset representatives, the
  compositions and the cycle-type count.
* ``shape_weights``: ``weingarten._shape_weights`` as ``moment_symbolic``
  calls it (the call is timed inside ``moment_symbolic``), on the same six
  cases plus the no-reduction worst case I=1^4 2^4 3^4, J=(1,2,3,4)x3, one
  row against nine distinct columns, the six balanced batch-heavy keys, the
  four slowest of the others, and two many-block keys, one on each side of
  ``_counting._LOOP_MAX``.  This is the engine's per-query work, by
  whichever route it takes.
* ``warm_heavy``: ``_tabloids.shape_weights`` warm, on the 25 batch-heavy
  keys of the benchmark's seed 3, keyed as the engine keys them.  One fresh
  process fills the caches with one pass and then takes the best of five
  passes, for all keys together and for each key alone.  Each key's time is
  also given per tabloid the route counts: the nu-tabloids over the shapes
  nu that dominate both block shapes, but the last.  This is the unit of
  ``_tabloids.TABLOID_WEIGHT``.

Each case runs cold in a fresh interpreter, ``--repeat`` times, so no cache
filled by an earlier case is reused.  The digests are of the class counts
and of the shape weights.
"""
import argparse
import json
import statistics
import sys
import time
from math import factorial, prod

import _bench

CASES = [
    ("single column p=4", (1,) * 4, (1,) * 4, (1, 2, 3, 0)),
    ("single column p=5", (1,) * 5, (1,) * 5, (1, 2, 3, 4, 0)),
    ("two blocks p=8", (1,) * 4 + (2,) * 4, (1,) * 4 + (2,) * 4,
     (0, 1, 2, 3, 4, 5, 6, 7)),
    ("single column p=6", (1,) * 6, (1,) * 6, tuple(range(6))),
    ("two-column Z(3,3,3)", (1,) * 3 + (2,) * 6, (1,) * 6 + (2,) * 3,
     (6, 7, 8, 0, 1, 2, 3, 4, 5)),
    ("single column p=7", (1,) * 7, (1,) * 7, tuple(range(7))),
]
WEIGHT_CASES = CASES + [
    ("worst case 1^4 2^4 3^4", (1,) * 4 + (2,) * 4 + (3,) * 4,
     (1, 2, 3, 4) * 3, tuple(range(12))),
    ("one row, 9 columns", (1,) * 9, tuple(range(1, 10)), tuple(range(9))),
    # the six balanced batch-heavy keys (seed 3): they took the tile path
    # until tabloids were weighed against the tuple loop
    ("heavy (3,3,3)x(3,3,3) H=1", (1, 2, 1, 2, 3, 2, 3, 1, 3),
     (1, 1, 2, 3, 2, 1, 3, 2, 3), (2, 4, 3, 0, 1, 6, 7, 5, 8)),
    ("heavy (4,3,2)x(3,3,2,1) H=1", (1, 2, 1, 2, 2, 2, 3, 3, 3),
     (1, 2, 1, 1, 3, 4, 2, 4, 2), (0, 5, 1, 6, 4, 2, 3, 8, 7)),
    ("heavy (4,4,1)x(3,3,2,1) H=4", (1, 2, 3, 1, 2, 1, 1, 2, 2),
     (1, 1, 2, 2, 3, 2, 4, 3, 3), (2, 6, 0, 3, 4, 7, 1, 8, 5)),
    ("heavy (5,2,1)x(4,2,1,1) H=6", (1, 2, 1, 3, 1, 2, 1, 1),
     (1, 2, 2, 2, 3, 1, 2, 4), (1, 0, 4, 2, 3, 7, 5, 6)),
    ("heavy (4,3,1)x(4,3,1) H=4", (1, 2, 2, 1, 1, 2, 3, 2),
     (1, 2, 3, 2, 1, 1, 2, 2), (1, 2, 3, 0, 4, 5, 6, 7)),
    ("heavy (5,2,2)x(3,2,2,2) H=2", (1, 2, 2, 1, 1, 1, 3, 1, 3),
     (1, 1, 2, 3, 4, 4, 2, 3, 4), (3, 4, 2, 5, 0, 6, 1, 7, 8)),
    # the slowest of the other batch-heavy keys (seed 3), which set the
    # workload's tail
    ("heavy (4,4,1)x(3,2,2,2) H=1", (1, 2, 1, 3, 2, 2, 1, 2, 1),
     (1, 2, 1, 3, 3, 4, 4, 2, 2), (1, 0, 5, 7, 8, 6, 3, 4, 2)),
    ("heavy (5,3,1)x(4,3,2) H=8", (1, 1, 2, 1, 3, 1, 2, 1, 2),
     (1, 2, 3, 2, 3, 3, 2, 2, 1), (1, 2, 3, 6, 4, 5, 7, 0, 8)),
    ("heavy (5,3,1)x(3,3,2,1) H=4", (1, 1, 1, 2, 1, 2, 1, 2, 3),
     (1, 2, 1, 2, 3, 4, 2, 3, 1), (0, 1, 2, 8, 4, 3, 6, 7, 5)),
    ("heavy (6,2,1)x(3,2,1,1,1,1) H=1", (1, 2, 2, 1, 1, 1, 1, 3, 1),
     (1, 1, 2, 3, 2, 4, 5, 1, 6), (6, 2, 0, 3, 8, 4, 1, 7, 5)),
    # many blocks, 62,208 compositions against 547,251 tabloids: below
    # _counting._LOOP_MAX, so the tuple loop counts it, where a process
    # that has numpy loaded already would count it faster in tiles
    ("loop (4,3,2,1,1)x(3,3,3,1,1)", (1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5),
     (1, 2, 3, 4, 1, 2, 3, 1, 2, 3, 5), tuple(range(11))),
    # one more block: 248,832 compositions, above _counting._LOOP_MAX, so
    # the tiles count it, numpy's import included when the process is cold
    ("tiles (4,3,2,2,1)x(3,3,3,2,1)",
     (1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5),
     (1, 2, 3, 4, 1, 2, 3, 1, 2, 3, 4, 5), tuple(range(12))),
]


def _compositions(I, J, Q) -> tuple[int, int]:
    from haarmoments.queries import _order
    pairs = _order(I) * _order(J)
    return pairs, pairs // _order(zip(I, [J[b] for b in Q]))


def run_case(index: int) -> dict:
    """Time one cold class_counts call; runs in the child process."""
    from haarmoments import weingarten

    _, I, J, Q = CASES[index]
    start = time.perf_counter()
    counts = weingarten.class_counts(I, J, Q)
    seconds = time.perf_counter() - start
    pairs, compositions = _compositions(I, J, Q)
    return {
        "seconds": seconds,
        "pairs": pairs,
        "compositions": compositions,
        "counts_sha256": _bench.digest(sorted([list(ct), c]
                                              for ct, c in counts.items())),
    }


def run_weights(index: int) -> dict:
    """Time the cold shape weights of one moment, as moment_symbolic asks
    for them; runs in the child process."""
    from haarmoments import weingarten
    from haarmoments.partitions import partitions_of
    from haarmoments.queries import CanonicalMoment

    _, I, J, Q = WEIGHT_CASES[index]
    inner = weingarten._shape_weights
    calls = []

    def timed(*key):
        start = time.perf_counter()
        out = inner(*key)
        calls.append((time.perf_counter() - start, out))
        return out

    weingarten._shape_weights = timed
    m = CanonicalMoment(len(I), len(I), I, J, tuple(J[b] for b in Q))
    start = time.perf_counter()
    weingarten.moment_symbolic(m)
    total = time.perf_counter() - start
    [(seconds, weights)] = calls
    # the nonzero weights {f: w_f}, digested as the dense tuple in
    # partitions_of(p) order that earlier commits return
    weights = [weights.get(f, 0) for f in partitions_of(len(I))]
    pairs, compositions = _compositions(I, J, Q)
    return {"seconds": seconds, "moment_symbolic_s": total, "pairs": pairs,
            "compositions": compositions,
            "weights_sha256": _bench.digest(weights)}


def _heavy_keys() -> list[tuple]:
    """The batch-heavy keys of seed 3, canonicalized: the fields (I, J, L)
    of the normal form, which the engine keys its shape weights on."""
    from haarmoments.queries import MomentQuery, canonicalize

    keys = []
    for line in _bench.corpus("batch-heavy", 3).exact[1:]:
        q = MomentQuery.from_json_obj(
            {k: v for k, v in line.items() if k != "kind"})
        m = canonicalize(q)
        keys.append((m.I, m.J, m.L))
    return keys


def run_warm(passes: int = 5) -> dict:
    """Time warm tabloid-route shape weights on the batch-heavy keys; runs
    in the child process."""
    from haarmoments import _tabloids

    keys = _heavy_keys()
    weights = [_tabloids.shape_weights(*key) for key in keys]

    def best(batch) -> float:
        times = []
        for _ in range(passes):
            start = time.perf_counter()
            for key in batch:
                _tabloids.shape_weights(*key)
            times.append(time.perf_counter() - start)
        return min(times)

    out = []
    for I, J, L in keys:
        mu_I, mu_J = _tabloids._shape(I), _tabloids._shape(J)
        *counted, _ = _tabloids.dominating(mu_I, mu_J)
        tabloids = sum(factorial(len(I)) // prod(map(factorial, nu))
                       for nu in counted)
        out.append({"I": I, "J": J, "L": L, "shapes": [mu_I, mu_J],
                    "tabloids": tabloids, "seconds": best([(I, J, L)])})
    return {"seconds": best(keys), "keys": out,
            "weights_sha256": _bench.digest([sorted([list(f), c]
                                                    for f, c in w.items())
                                             for w in weights])}


def measure_warm(repeat: int) -> dict:
    """The median over ``repeat`` fresh processes of run_warm's times."""
    runs = _bench.repeated(lambda: _bench.child(__file__, "--case", "warm", 0),
                           repeat, "weights_sha256", "warm_heavy")
    keys = []
    for index, key in enumerate(runs[0]["keys"]):
        seconds = statistics.median(r["keys"][index]["seconds"]
                                    for r in runs)
        keys.append(dict(key, seconds=seconds,
                         us_per_tabloid=1e6 * seconds / key["tabloids"]))
    seconds = [r["seconds"] for r in runs]
    tabloids = sum(key["tabloids"] for key in keys)
    median = statistics.median(seconds)
    print(f"warm     25 batch-heavy keys {tabloids:>11,} tabloids "
          f"{median:9.4f} s")
    return {"what": "tabloid-route shape weights, warm, best of 5 passes "
                    "per process, median over processes",
            "median_s": median, "seconds": seconds, "tabloids": tabloids,
            "us_per_tabloid": 1e6 * median / tabloids,
            "keys": keys, "weights_sha256": runs[0]["weights_sha256"]}


def measure(kind: str, table, repeat: int, digest: str) -> list[dict]:
    cases = []
    for index, (name, I, J, Q) in enumerate(table):
        runs = _bench.repeated(
            lambda: _bench.child(__file__, "--case", kind, index),
            repeat, digest, name)
        seconds = [r["seconds"] for r in runs]
        case = {"case": name, "I": I, "J": J, "Q": Q,
                "pairs": runs[0]["pairs"],
                "compositions": runs[0]["compositions"],
                "median_s": statistics.median(seconds),
                "seconds": seconds}
        if kind == "weights":
            case["moment_symbolic_median_s"] = statistics.median(
                r["moment_symbolic_s"] for r in runs)
        case[digest] = runs[0][digest]
        cases.append(case)
        print(f"{kind:8} {name:24} {case['compositions']:>11,} "
              f"compositions {case['median_s']:9.4f} s")
    return cases


def digests_of(entry: dict):
    for kind, key in (("cases", "counts_sha256"),
                      ("shape_weights", "weights_sha256")):
        for case in entry.get(kind, []):
            yield f"{kind} {case['case']}", case[key]
    if "warm_heavy" in entry:
        yield ("warm_heavy 25 batch-heavy keys",
               entry["warm_heavy"]["weights_sha256"])


def main() -> None:
    ap = _bench.parser(__doc__, "BENCH_counting.json", 5)
    ap.add_argument("--case", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.check:
        sys.exit(_bench.check(args.out, digests_of))
    if args.case is not None:
        kind, index = args.case
        run = {"case": run_case, "weights": run_weights,
               "warm": lambda _: run_warm()}
        print(json.dumps(run[kind](int(index))))
        return

    import numpy

    _bench.write(args.out, (
        "cold weingarten.class_counts (cases) and cold engine shape weights "
        "as moment_symbolic asks for them (shape_weights), one fresh process "
        "per run; warm tabloid-route shape weights on the 25 batch-heavy "
        "keys of seed 3 (warm_heavy)"), args.label, {
        "host": _bench.host(numpy=numpy.__version__),
        "repeat": args.repeat,
        "cases": measure("case", CASES, args.repeat, "counts_sha256"),
        "shape_weights": measure("weights", WEIGHT_CASES, args.repeat,
                                 "weights_sha256"),
        "warm_heavy": measure_warm(args.repeat),
    })


if __name__ == "__main__":
    main()
