#!/usr/bin/env python3
"""Timing of the stabilizer-sum counting through the public
``weingarten.class_counts``, on six fixed cases.

Each case runs cold in a fresh interpreter, so no cache filled by an earlier
case is reused: the time covers the coset enumeration, the compositions and
the cycle-type count.  Every case is run ``--repeat`` times.  The results go
to a JSON file under a label, one entry per label, so that runs of two
commits can share one file; a digest of the class counts is stored too, so
the entries can be checked for equal results.

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


def run_case(index: int) -> dict:
    """Time one cold class_counts call; runs in the child process."""
    from haarmoments import weingarten
    from haarmoments.stabilizer import stabilizer

    _, I, J, Q = CASES[index]
    start = time.perf_counter()
    counts = weingarten.class_counts(I, J, Q)
    seconds = time.perf_counter() - start
    GI, GJ = stabilizer(I), stabilizer(J)
    reps = GI.cosets([J[Q[x]] for x in range(len(I))])
    return {
        "seconds": seconds,
        "pairs": GI.order * GJ.order,
        "compositions": reps.order * GJ.order,
        "counts_sha256": hashlib.sha256(json.dumps(
            sorted([list(ct), c] for ct, c in counts.items())).encode()
        ).hexdigest()[:16],
    }


def child(index: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--case", str(index)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="current",
                    help="name of this run's entry in the output file")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_counting.json"))
    ap.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        return

    import numpy

    cases = []
    for index, (name, I, J, Q) in enumerate(CASES):
        runs = [child(index) for _ in range(args.repeat)]
        if any(r["counts_sha256"] != runs[0]["counts_sha256"] for r in runs):
            sys.exit(f"class counts differ between runs of {name}")
        seconds = [r["seconds"] for r in runs]
        cases.append({
            "case": name, "I": I, "J": J, "Q": Q,
            "pairs": runs[0]["pairs"],
            "compositions": runs[0]["compositions"],
            "median_s": statistics.median(seconds),
            "seconds": seconds,
            "counts_sha256": runs[0]["counts_sha256"],
        })
        print(f"{name:22} {runs[0]['compositions']:>8,} compositions "
              f"{statistics.median(seconds):9.4f} s")

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {
        "what": "cold weingarten.class_counts, one fresh process per run",
        "runs": {}}
    doc["runs"][args.label] = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "repeat": args.repeat,
        "cases": cases,
    }
    # one line per list of numbers
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(doc, indent=1))
    path.write_text(text + "\n")


if __name__ == "__main__":
    main()
