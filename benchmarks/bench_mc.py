#!/usr/bin/env python3
"""Timing of the Monte Carlo sample step, ``montecarlo.haar_batch``, and of
whole ``estimate_moment`` calls, on one thread.

The sample step is timed at five (n, c) pairs: c columns of an n-by-n Haar
unitary, drawn in the estimator's chunks.  A commit whose ``haar_batch``
takes no ``cols`` draws all n columns, as its estimator does; the entry
records the columns drawn.  Each n also gets one full estimate of a query
that reads c columns (a c-cycle of distinct rows and columns).

Each case runs in a fresh interpreter with the BLAS thread caps set to 1,
``--repeat`` times.  The results go to a JSON file under a label, one entry
per label, so that runs of two commits can share one file.  A digest of
the drawn samples is stored, so entries can be checked for equal draws.

Usage (from the repository root):
  PYTHONPATH=src python3 benchmarks/bench_mc.py --label NAME
      [--repeat N] [--out BENCH_mc.json]
"""
import argparse
import hashlib
import inspect
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SAMPLES = 16384
SEED = 2024
SAMPLE_CASES = [(4, 2), (6, 3), (8, 4), (10, 3), (10, 10)]
ESTIMATE_CASES = [(4, 2), (6, 3), (8, 4), (10, 3)]
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "HAAR_MOMENTS_THREADS": "1"}


def cycle_query(n: int, c: int):
    from haarmoments.queries import MomentQuery

    idx = tuple(range(1, c + 1))
    return MomentQuery.make(n, idx, idx, idx, idx[1:] + idx[:1])


def run_sample_case(n: int, c: int) -> dict:
    """Time the sample step alone; runs in the child process."""
    from haarmoments.montecarlo import SamplerConfig, haar_batch

    if "cols" in inspect.signature(haar_batch).parameters:
        def draw(count, start):
            return haar_batch(n, count, SEED, start, cols=c)
    else:
        def draw(count, start):
            return haar_batch(n, count, SEED, start)
    draw(64, 0)  # warm up numpy and LAPACK
    chunk = SamplerConfig(n=n, samples=SAMPLES, seed=SEED).chunk
    digest = hashlib.sha256()
    seconds = 0.0
    for lo in range(0, SAMPLES, chunk):
        count = min(chunk, SAMPLES - lo)
        start = time.perf_counter()
        u = draw(count, lo)
        seconds += time.perf_counter() - start
        digest.update(u.tobytes())
    return {"seconds": seconds, "cols_drawn": u.shape[2],
            "samples_sha256": digest.hexdigest()[:16]}


def run_estimate_case(n: int, c: int) -> dict:
    """Time one whole single-thread estimate; runs in the child process."""
    from haarmoments.montecarlo import SamplerConfig, estimate_moment

    q = cycle_query(n, c)
    estimate_moment(q, SamplerConfig(n=n, samples=64, seed=SEED, threads=1))
    cfg = SamplerConfig(n=n, samples=SAMPLES, seed=SEED, threads=1)
    start = time.perf_counter()
    est = estimate_moment(q, cfg)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "mean_re": est.mean.real,
            "mean_im": est.mean.imag, "stderr": est.stderr}


def child(kind: str, n: int, c: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--case", kind, str(n), str(c)],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, **SINGLE_THREAD)).stdout
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="current",
                    help="name of this run's entry in the output file")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_mc.json"))
    ap.add_argument("--case", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.case is not None:
        kind, n, c = args.case[0], int(args.case[1]), int(args.case[2])
        run = run_sample_case if kind == "sample" else run_estimate_case
        print(json.dumps(run(n, c)))
        return

    import numpy

    samples = []
    for n, c in SAMPLE_CASES:
        runs = [child("sample", n, c) for _ in range(args.repeat)]
        if any(r["samples_sha256"] != runs[0]["samples_sha256"]
               for r in runs):
            sys.exit(f"draws differ between runs of n={n} c={c}")
        rates = [SAMPLES / r["seconds"] for r in runs]
        samples.append({
            "n": n, "cols": c, "cols_drawn": runs[0]["cols_drawn"],
            "median_samples_per_s": statistics.median(rates),
            "samples_per_s": rates,
            "samples_sha256": runs[0]["samples_sha256"],
        })
        print(f"sample   n={n:<2} c={c:<2} drawn={runs[0]['cols_drawn']:<2} "
              f"{statistics.median(rates):12,.0f} samples/s")
    estimates = []
    for n, c in ESTIMATE_CASES:
        runs = [child("estimate", n, c) for _ in range(args.repeat)]
        seconds = [r["seconds"] for r in runs]
        q = cycle_query(n, c)
        estimates.append({
            "n": n, "I": q.I, "J": q.J, "K": q.K, "L": q.L,
            "median_s": statistics.median(seconds),
            "median_samples_per_s": SAMPLES / statistics.median(seconds),
            "seconds": seconds,
            "mean_re": runs[0]["mean_re"], "mean_im": runs[0]["mean_im"],
            "stderr": runs[0]["stderr"],
        })
        print(f"estimate n={n:<2} c={c:<2}          "
              f"{SAMPLES / statistics.median(seconds):12,.0f} samples/s")

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {
        "what": "single-thread haar_batch sample step and estimate_moment, "
                f"{SAMPLES} samples, seed {SEED}, one fresh process per run",
        "runs": {}}
    doc["runs"][args.label] = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "repeat": args.repeat,
        "sample_step": samples,
        "estimates": estimates,
    }
    # one line per list of numbers
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(doc, indent=1))
    path.write_text(text + "\n")


if __name__ == "__main__":
    main()
