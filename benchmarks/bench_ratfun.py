#!/usr/bin/env python3
"""Timing of the rational-function layer: cold construction of reduced
closed forms, the folds of class counts into a moment, and large-degree
symbolic answers whose shape weights have few nonzero entries.

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
  as a control whose characters cover every shape, of 1^20.

A commit whose folds read dense tuples in ``partitions_of(p)`` order (it has
``weingarten._shape_terms``) takes its weights as ``_weights(counts, p)``
and the degree as an argument of ``_fold_at``.

Each case runs cold in a fresh interpreter, ``--repeat`` times, so no cache
filled by an earlier case or run is reused.  The results go to a JSON file
under a label, one entry per label, so that runs of two commits can share
one file; a digest of every result (str, and validity_min_n for a rational
function) is stored too, so the entries can be checked for equal results.
``--check`` does that check: it exits 1 if two entries of the file give one
case different digests.

Usage (from the repository root):
  PYTHONPATH=src python3 benchmarks/bench_ratfun.py --label NAME
      [--repeat N] [--out BENCH_ratfun.json]
  python3 benchmarks/bench_ratfun.py --check [--out BENCH_ratfun.json]
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

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEED = 3
CASES = (["catalog"] + [f"fold p={p}" for p in range(7, 12)]
         + [f"fold at n p={p}" for p in range(7, 10)]
         + [f"one-weight p={p}" for p in (20, 24, 30)]
         + ["two-row p=26", "xi (24)", "xi 1^20"])


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
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    from haarmoments import weingarten
    from haarmoments.queries import MomentQuery, canonicalize

    out = []
    for obj in corpus.generate(workload, CORPUS_SEED).exact[1:]:
        q = MomentQuery.from_json_obj(
            {k: v for k, v in obj.items() if k in "nIJKL"})
        m = canonicalize(q)
        if m.p == p:
            out.append((weingarten.class_counts(m.I, m.J, m.Q), q.n))
    return out


def folder(at_n: bool, p: int):
    """The fold of one query's class counts, at its n or symbolic."""
    from haarmoments import weingarten

    if hasattr(weingarten, "_shape_terms"):
        if at_n:
            return lambda c, n: weingarten._fold_at(
                weingarten._weights(c, p), p, n)
        return lambda c, n: weingarten._fold_symbolic(
            weingarten._weights(c, p), p)
    if at_n:
        return lambda c, n: weingarten._fold_at(weingarten._weights(c), n)
    return lambda c, n: weingarten._fold_symbolic(weingarten._weights(c), p)


def public_call(name: str):
    """The timed call of a public-API case, with nothing computed ahead."""
    import haarmoments as hm

    p = int(name.split("=")[1]) if "=" in name else 0
    if name.startswith("one-weight"):
        q = hm.fan_query((1,) * p)
    elif name.startswith("two-row"):
        I = (1,) * (p // 2) + (2,) * (p // 2)
        q = hm.MomentQuery.make(p, I, (1, 2) * (p // 2), I, (1, 2) * (p // 2))
    else:
        ct = (24,) if name == "xi (24)" else (1,) * 20
        return lambda: hm.xi_symbolic(ct)
    return lambda: hm.moment(q, "group", symbolic=True)[0]


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
        results = [call()]
        seconds = time.perf_counter() - start
    else:
        p = int(name.split("=")[1])
        at_n = name.startswith("fold at n")
        inputs = fold_inputs("batch-heavy" if at_n else "batch-symbolic", p)
        fold = folder(at_n, p)
        start = time.perf_counter()
        results = [fold(c, n) for c, n in inputs]
        seconds = time.perf_counter() - start
    digest = hashlib.sha256(json.dumps(
        [[str(r), getattr(r, "validity_min_n", None)] for r in results]
    ).encode())
    return {"seconds": seconds, "results": len(results),
            "results_sha256": digest.hexdigest()[:16]}


def check(path: Path) -> int:
    """1 if two entries give one case different digests, else 0."""
    digests: dict = {}
    for label, entry in json.loads(path.read_text())["runs"].items():
        for case in entry["cases"]:
            digests.setdefault(case["case"], {})[label] = \
                case["results_sha256"]
    bad = 0
    for case, by_label in digests.items():
        if len(set(by_label.values())) > 1:
            bad += 1
            print(f"{case}: digests differ: {by_label}")
    print(f"{path}: {len(digests)} cases, {bad} with differing digests")
    return 1 if bad else 0


def child(name: str) -> dict:
    out = subprocess.run([sys.executable, __file__, "--case", name],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="current",
                    help="name of this run's entry in the output file")
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "BENCH_ratfun.json"))
    ap.add_argument("--check", action="store_true",
                    help="check that the entries of --out agree on every "
                         "digest, and exit 1 if they do not")
    ap.add_argument("--case", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.check:
        sys.exit(check(Path(args.out)))
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        return

    cases = []
    for name in CASES:
        runs = [child(name) for _ in range(args.repeat)]
        if any(r["results_sha256"] != runs[0]["results_sha256"]
               for r in runs):
            sys.exit(f"results differ between runs of {name}")
        seconds = [r["seconds"] for r in runs]
        cases.append({
            "case": name, "results": runs[0]["results"],
            "median_s": statistics.median(seconds), "seconds": seconds,
            "results_sha256": runs[0]["results_sha256"],
        })
        print(f"{name:<15} {runs[0]['results']:>4} results "
              f"{statistics.median(seconds) * 1e3:9.2f} ms")

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    doc["what"] = (
        "cold construction of the closed forms of degree <= 5; cold "
        "folds of class counts: symbolic over the batch-symbolic corpus, at "
        f"each query's n over the batch-heavy corpus (seed {CORPUS_SEED}); "
        "cold public calls: symbolic group moments with few nonzero shape "
        "weights at p = 20..30, xi_symbolic of the 24-cycle and of 1^20; "
        "one fresh process per run")
    doc["runs"][args.label] = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
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
