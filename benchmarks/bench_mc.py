#!/usr/bin/env python3
"""Timing of the Monte Carlo sample step and of whole estimates, on one
thread, for Haar columns and for sphere coordinates.

Haar cases are (n, c): c columns of an n-by-n Haar unitary, drawn by
``montecarlo.haar_batch`` in the estimator's chunks, and one estimate of a
query that reads c columns (a c-cycle of distinct rows and columns).
Sphere cases are (n, k), the shapes of the perfbench ``mc`` workload: the
first k coordinates of a point on the sphere in R^n, and one estimate of
the monomial with exponent 2 on each of them.  numpy squares without
calling pow, so three more sphere estimates use the workload's exponents 3
and 4 (``SPHERE_POWER_CASES``).  Each entry records what was drawn: entries
of earlier samplers drew all n columns or coordinates.

Each case runs in a fresh interpreter with the BLAS thread caps set to 1,
``--repeat`` times.  Per case the entry holds a digest of the drawn
samples, which must agree between runs of one commit, and the largest
deviation of the drawn samples from a reference computed here from the same
uniforms: Householder QR with the diagonal made real positive for Haar, the
full Box-Muller point divided by its Euclidean norm for the sphere.
Digests differ between commits whose samples differ in rounding, so
``--check`` does not compare them: it exits 1 if an entry's estimate is
further than ``mc_tolerance`` from the exact value of ``haarmoments.moment``
or ``sphere_moment``, and needs the package on ``PYTHONPATH``.
"""
import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import _bench

SAMPLES = 16384
SEED = 2024
HAAR_SAMPLE_CASES = [(4, 2), (6, 3), (8, 4), (10, 3), (10, 10)]
HAAR_ESTIMATE_CASES = [(4, 2), (6, 3), (8, 4), (10, 3)]
SPHERE_CASES = [(3, 2), (4, 3), (6, 3), (8, 2), (12, 3), (16, 3)]
# (n, nonzero exponents), spread over the coordinates by power_exponents
SPHERE_POWER_CASES = [(16, (4, 1, 4)), (4, (1, 4, 3)), (3, (3, 2))]
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "HAAR_MOMENTS_THREADS": "1"}


def cycle_query(n: int, c: int):
    from haarmoments.queries import MomentQuery

    idx = tuple(range(1, c + 1))
    return MomentQuery.make(n, idx, idx, idx, idx[1:] + idx[:1])


def sphere_exponents(n: int, k: int) -> tuple:
    return (2,) * k + (0,) * (n - k)


def power_exponents(n: int, powers: tuple) -> tuple:
    e = [0] * n
    for j, p in enumerate(powers):
        e[j * n // len(powers)] = p
    return tuple(e)


def haar_reference(n: int, count: int, start: int, cols: int) -> np.ndarray:
    """Householder QR of the Ginibre block of the stream, with the
    triangular factor's diagonal made real positive."""
    from haarmoments.montecarlo import _uniform_block

    nc = n * cols
    u = _uniform_block(SEED, start, count, 2 * nc)
    mod = np.sqrt(-np.log(u[:, :nc]))
    arg = 2.0 * np.pi * u[:, nc:2 * nc]
    q, r = np.linalg.qr((mod * np.exp(1j * arg)).reshape(count, n, cols))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def sphere_reference(n: int, count: int, start: int) -> np.ndarray:
    """The full Box-Muller point of the stream over its Euclidean norm."""
    from haarmoments.montecarlo import _uniform_block

    m = (n + 1) // 2
    u = _uniform_block(SEED, start, count, 2 * m)
    rad = np.sqrt(-2.0 * np.log(u[:, :m]))
    ang = 2.0 * np.pi * u[:, m:2 * m]
    x = np.concatenate([rad * np.cos(ang), rad * np.sin(ang)], axis=1)[:, :n]
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def haar_drawer(n: int, c: int):
    from haarmoments.montecarlo import haar_batch

    def draw(count, start):
        return haar_batch(n, count, SEED, start, cols=c)

    def deviation(x, count, start):
        return np.max(np.abs(x - haar_reference(n, count, start, x.shape[2])))
    return draw, deviation


def sphere_drawer(n: int, k: int):
    from haarmoments import montecarlo as mc

    coords = list(range(k))

    def draw(count, start):
        u = mc._uniform_block(SEED, start, count, 2 * ((n + 1) // 2))
        return mc._sphere_from_uniforms(u, count, n, coords)

    def deviation(x, count, start):
        ref = sphere_reference(n, count, start)[:, :x.shape[1]]
        return np.max(np.abs(x - ref))
    return draw, deviation


def run_sample_case(kind: str, n: int, c: int) -> dict:
    """Time the sample step alone; runs in the child process."""
    from haarmoments.montecarlo import SamplerConfig

    draw, deviation = (haar_drawer if kind == "haar" else sphere_drawer)(n, c)
    draw(64, 0)  # warm up numpy (and LAPACK where a commit calls it)
    chunk = SamplerConfig(n=n, samples=SAMPLES, seed=SEED).chunk
    digest = hashlib.sha256()
    seconds = 0.0
    max_dev = 0.0
    for lo in range(0, SAMPLES, chunk):
        count = min(chunk, SAMPLES - lo)
        start = time.perf_counter()
        x = draw(count, lo)
        seconds += time.perf_counter() - start
        digest.update(np.ascontiguousarray(x).tobytes())
        max_dev = max(max_dev, float(deviation(x, count, lo)))
    return {"seconds": seconds, "drawn": x.shape[-1],
            "max_dev_vs_reference": max_dev,
            "samples_sha256": digest.hexdigest()[:16]}


def run_estimate_case(kind: str, n: int, what: str) -> dict:
    """Time one whole single-thread estimate of a c-cycle (Haar) or of
    comma-separated exponents (sphere); runs in the child process."""
    from haarmoments.montecarlo import (SamplerConfig, estimate_moment,
                                        estimate_sphere_moment)

    if kind == "haar":
        q = cycle_query(n, int(what))

        def estimate(cfg):
            return estimate_moment(q, cfg)
    else:
        e = tuple(int(x) for x in what.split(","))

        def estimate(cfg):
            return estimate_sphere_moment(e, cfg)
    estimate(SamplerConfig(n=n, samples=64, seed=SEED, threads=1))
    cfg = SamplerConfig(n=n, samples=SAMPLES, seed=SEED, threads=1)
    start = time.perf_counter()
    est = estimate(cfg)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "mean_re": est.mean.real,
            "mean_im": est.mean.imag, "stderr": est.stderr}


def child(step: str, kind: str, n: int, what) -> dict:
    return _bench.child(__file__, "--case", step, kind, n, what,
                        env=SINGLE_THREAD)


def check(path) -> int:
    """1 if an estimate of an entry is further than ``mc_tolerance`` from
    the exact value, else 0."""
    from haarmoments import MomentQuery, moment, sphere_moment
    from haarmoments.montecarlo import Estimate, mc_tolerance

    sigmas, bad = [], 0
    for label, entry in json.loads(Path(path).read_text())["runs"].items():
        for e in entry["estimates"]:
            if "exponents" in e:
                exact = sphere_moment(tuple(e["exponents"]))
            else:
                q = MomentQuery.make(e["n"], e["I"], e["J"], e["K"], e["L"])
                exact = moment(q)[0]
            est = Estimate(complex(e["mean_re"], e["mean_im"]), e["stderr"],
                           SAMPLES)
            dev = abs(est.mean - float(exact))
            sigmas.append(dev / est.stderr if est.stderr > 0 else 0.0)
            if not dev < mc_tolerance(est):
                bad += 1
                shown = e.get("exponents") or [e[k] for k in "IJKL"]
                print(f"{label}: n={e['n']} {shown}: {est.mean} is "
                      f"{sigmas[-1]:.2f} sigmas from {exact}")
    print(f"{path}: {len(sigmas)} estimates, worst {max(sigmas):.2f} sigmas, "
          f"{bad} outside the tolerance")
    return 1 if bad else 0


def main() -> None:
    ap = _bench.parser(__doc__, "BENCH_mc.json", 5)
    ap.add_argument("--case", nargs=4, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.check:
        sys.exit(check(args.out))
    if args.case is not None:
        step, kind, n, what = args.case
        if step == "sample":
            print(json.dumps(run_sample_case(kind, int(n), int(what))))
        else:
            print(json.dumps(run_estimate_case(kind, int(n), what)))
        return

    width = {"haar": "cols", "sphere": "coords"}
    samples = []
    for kind, cases in (("haar", HAAR_SAMPLE_CASES),
                        ("sphere", SPHERE_CASES)):
        for n, c in cases:
            runs = _bench.repeated(lambda: child("sample", kind, n, c),
                                   args.repeat, "samples_sha256",
                                   f"{kind} n={n} c={c}")
            rates = [SAMPLES / r["seconds"] for r in runs]
            samples.append({
                "kind": kind, "n": n, width[kind]: c,
                width[kind] + "_drawn": runs[0]["drawn"],
                "median_samples_per_s": statistics.median(rates),
                "samples_per_s": rates,
                "max_dev_vs_reference": runs[0]["max_dev_vs_reference"],
                "samples_sha256": runs[0]["samples_sha256"],
            })
            print(f"sample   {kind:<6} n={n:<2} c={c:<2} "
                  f"drawn={runs[0]['drawn']:<2} "
                  f"{statistics.median(rates):12,.0f} samples/s  "
                  f"dev={runs[0]['max_dev_vs_reference']:.1e}")
    estimates = []
    cases = [("haar", n, c) for n, c in HAAR_ESTIMATE_CASES]
    cases += [("sphere", n, sphere_exponents(n, k)) for n, k in SPHERE_CASES]
    cases += [("sphere", n, power_exponents(n, p))
              for n, p in SPHERE_POWER_CASES]
    for kind, n, case in cases:
        if kind == "haar":
            arg, c = case, case
            q = cycle_query(n, c)
            what = {"I": q.I, "J": q.J, "K": q.K, "L": q.L}
        else:
            arg, c = ",".join(map(str, case)), sum(1 for e in case if e)
            what = {"exponents": case}
        runs = [child("estimate", kind, n, arg) for _ in range(args.repeat)]
        seconds = [r["seconds"] for r in runs]
        estimates.append({
            "kind": kind, "n": n, **what,
            "median_s": statistics.median(seconds),
            "median_samples_per_s": SAMPLES / statistics.median(seconds),
            "seconds": seconds,
            "mean_re": runs[0]["mean_re"], "mean_im": runs[0]["mean_im"],
            "stderr": runs[0]["stderr"],
        })
        print(f"estimate {kind:<6} n={n:<2} c={c:<2}          "
              f"{SAMPLES / statistics.median(seconds):12,.0f} samples/s")

    _bench.write(args.out, (
        "single-thread sample step and estimate, Haar columns and sphere "
        f"coordinates, {SAMPLES} samples, seed {SEED}, one fresh process per "
        "run; entries without sphere cases, or without sphere exponents "
        "above 2, predate them"), args.label, {
        "host": _bench.host(numpy=np.__version__),
        "repeat": args.repeat,
        "sample_step": samples,
        "estimates": estimates,
    })


if __name__ == "__main__":
    main()
