#!/usr/bin/env python3
"""Timing of the stabilizer-sum counting, and of the engine's shape weights.

Two kinds of case:

* ``cases``: the public ``weingarten.class_counts`` on six fixed cases, the
  enumeration of the double coset: the coset representatives, the
  compositions and the cycle-type count.
* ``shape_weights``: ``weingarten._shape_weights`` as ``moment_symbolic``
  calls it (the call is timed inside ``moment_symbolic``), on the same six
  cases plus the no-reduction worst case I=1^4 2^4 3^4, J=(1,2,3,4)x3, one
  row against nine distinct columns, the six balanced batch-heavy keys, and
  two many-block keys, one on each side of ``_counting._LOOP_MAX``.  This
  is the engine's per-query work, by whichever route it takes.

Each case runs cold in a fresh interpreter, so no cache filled by an earlier
case is reused.  Every case is run ``--repeat`` times.  The results go to a
JSON file under a label, one entry per label, so that runs of two commits
can share one file; digests of the class counts and of the shape weights
are stored too, so the entries can be checked for equal results.

Usage (from the repository root):
  PYTHONPATH=src python3 benchmarks/bench_counting.py --label NAME
      [--repeat N] [--out BENCH_counting.json]
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

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
    # the six balanced batch-heavy keys (seed 3), oriented as the engine
    # keys them: they took the tile path until tabloids were weighed
    # against the tuple loop
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


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _compositions(I, J, Q) -> tuple[int, int]:
    from haarmoments.stabilizer import stabilizer
    GI, GJ = stabilizer(I), stabilizer(J)
    reps = GI.cosets([J[Q[x]] for x in range(len(I))])
    return GI.order * GJ.order, reps.order * GJ.order


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
        "counts_sha256": _digest(sorted([list(ct), c]
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
    m = CanonicalMoment(len(I), len(I), I, J, Q)
    start = time.perf_counter()
    weingarten.moment_symbolic(m)
    total = time.perf_counter() - start
    [(seconds, weights)] = calls
    if isinstance(weights, dict):
        # the nonzero weights {f: w_f}, digested as the dense tuple in
        # partitions_of(p) order that earlier commits return
        weights = [weights.get(f, 0) for f in partitions_of(len(I))]
    pairs, compositions = _compositions(I, J, Q)
    return {"seconds": seconds, "moment_symbolic_s": total, "pairs": pairs,
            "compositions": compositions, "weights_sha256": _digest(weights)}


def child(kind: str, index: int) -> dict:
    out = subprocess.run([sys.executable, __file__, kind, str(index)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def measure(kind: str, table, repeat: int, digest: str) -> list[dict]:
    cases = []
    for index, (name, I, J, Q) in enumerate(table):
        runs = [child(kind, index) for _ in range(repeat)]
        if any(r[digest] != runs[0][digest] for r in runs):
            sys.exit(f"results differ between runs of {name}")
        seconds = [r["seconds"] for r in runs]
        case = {"case": name, "I": I, "J": J, "Q": Q,
                "pairs": runs[0]["pairs"],
                "compositions": runs[0]["compositions"],
                "median_s": statistics.median(seconds),
                "seconds": seconds}
        if kind == "--weights":
            case["moment_symbolic_median_s"] = statistics.median(
                r["moment_symbolic_s"] for r in runs)
        case[digest] = runs[0][digest]
        cases.append(case)
        print(f"{kind[2:]:8} {name:24} {case['compositions']:>11,} "
              f"compositions {case['median_s']:9.4f} s")
    return cases


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="current",
                    help="name of this run's entry in the output file")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_counting.json"))
    ap.add_argument("--case", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--weights", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        return
    if args.weights is not None:
        print(json.dumps(run_weights(args.weights)))
        return

    import numpy

    entry = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "repeat": args.repeat,
        "cases": measure("--case", CASES, args.repeat, "counts_sha256"),
        "shape_weights": measure("--weights", WEIGHT_CASES, args.repeat,
                                 "weights_sha256"),
    }
    path = Path(args.out)
    runs = json.loads(path.read_text())["runs"] if path.exists() else {}
    runs[args.label] = entry
    doc = {"what": "cold weingarten.class_counts (cases) and cold engine "
                   "shape weights as moment_symbolic asks for them "
                   "(shape_weights), one fresh process per run",
           "runs": runs}
    # one line per list of numbers
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(doc, indent=1))
    path.write_text(text + "\n")


if __name__ == "__main__":
    main()
