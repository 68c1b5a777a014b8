"""Monte Carlo verification of exact moments: Haar-random unitary matrices
and uniform points on the real hypersphere, from a reproducible
counter-based stream.

Stream contract (fixed per release).  The generator is Philox-4x64 keyed by
``seed``.  A batch drawing ``w`` uniforms per sample gives sample ``s`` the
counter blocks [s*B, (s+1)*B) with B = ceil(w/4) (each block holds four
64-bit words); the first ``w`` words of those blocks, in order, map to
uniforms in (0, 1] via ((word >> 11) + 1) * 2**-53.  Haar samples use
w = 2*n^2 (first n^2 words are moduli, last n^2 phases: z =
sqrt(-ln u) * exp(2*pi*i*v) is a standard complex normal); sphere samples
use w = 2*ceil(n/2) (Box-Muller cosine/sine pairs).  The Ginibre matrix is
orthonormalized by QR with the diagonal of the triangular factor made real
positive.  Chunk partial sums are combined in fixed chunk order, so an
estimate is bit-identical for a given config regardless of thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .queries import MomentQuery

_INV_2_53 = 2.0 ** -53


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: same config, bit-identical estimate."""
    n: int
    samples: int
    seed: int
    threads: int | None = None
    chunk: int = 8192

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")


@dataclass(frozen=True)
class Estimate:
    mean: complex
    stderr: float
    samples: int


def default_threads() -> int:
    env = os.environ.get("HAAR_MOMENTS_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def mc_tolerance(est: Estimate) -> float:
    """Acceptance band: five standard errors, floored for exact zeros."""
    return max(5.0 * est.stderr, 1e-9)


# ---------------------------------------------------------------------------
# uniform stream and variate transforms

def _uniform_block(seed: int, start_sample: int, count: int,
                   per_sample: int) -> np.ndarray:
    blocks = -(-per_sample // 4)
    bg = np.random.Philox(key=seed, counter=start_sample * blocks)
    raw = bg.random_raw(count * blocks * 4).reshape(count, blocks * 4)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    return u[:, :per_sample]


def _haar_from_uniforms(u: np.ndarray, count: int, n: int) -> np.ndarray:
    nn = n * n
    mod = np.sqrt(-np.log(u[:, :nn]))
    arg = 2.0 * np.pi * u[:, nn:2 * nn]
    z = (mod * np.exp(1j * arg)).reshape(count, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _sphere_from_uniforms(u: np.ndarray, count: int, n: int) -> np.ndarray:
    m = (n + 1) // 2
    rad = np.sqrt(-2.0 * np.log(u[:, :m]))
    ang = 2.0 * np.pi * u[:, m:2 * m]
    x = np.concatenate([rad * np.cos(ang), rad * np.sin(ang)], axis=1)[:, :n]
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def haar_batch(n: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """``count`` Haar-distributed n-by-n unitaries, samples start..start+count."""
    u = _uniform_block(seed, start, count, 2 * n * n)
    return _haar_from_uniforms(u, count, n)


def sphere_batch(n: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """``count`` uniform points on the unit sphere in R^n."""
    u = _uniform_block(seed, start, count, 2 * ((n + 1) // 2))
    return _sphere_from_uniforms(u, count, n)


# ---------------------------------------------------------------------------
# estimators

def _accumulate(cfg: SamplerConfig, values_for_range) -> Estimate:
    ranges = [(lo, min(lo + cfg.chunk, cfg.samples))
              for lo in range(0, cfg.samples, cfg.chunk)]

    def part(span):
        lo, hi = span
        v = np.asarray(values_for_range(lo, hi), dtype=np.complex128)
        re, im = v.real, v.imag
        return complex(v.sum()), float(re @ re), float(im @ im)

    threads = cfg.threads if cfg.threads is not None else default_threads()
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(part, ranges))
    else:
        parts = [part(span) for span in ranges]

    total = 0j
    sq_re = 0.0
    sq_im = 0.0
    for s, r2, i2 in parts:
        total += s
        sq_re += r2
        sq_im += i2
    count = cfg.samples
    mean = total / count
    bessel = count / (count - 1)
    var_re = max(sq_re / count - mean.real ** 2, 0.0) * bessel
    var_im = max(sq_im / count - mean.imag ** 2, 0.0) * bessel
    return Estimate(mean, math.sqrt((var_re + var_im) / count), count)


def estimate_moment(q: MomentQuery, cfg: SamplerConfig) -> Estimate:
    """Sample mean of prod conj(U)_{I_a J_a} * prod U_{K_b L_b}."""
    if q.n != cfg.n:
        raise ValueError("query dimension differs from sampler dimension")

    def values(lo, hi):
        u = haar_batch(cfg.n, hi - lo, cfg.seed, start=lo)
        vals = np.ones(hi - lo, dtype=np.complex128)
        for i, j in zip(q.I, q.J):
            vals = vals * np.conj(u[:, i - 1, j - 1])
        for k, l in zip(q.K, q.L):
            vals = vals * u[:, k - 1, l - 1]
        return vals

    return _accumulate(cfg, values)


def estimate_sphere_moment(exponents, cfg: SamplerConfig) -> Estimate:
    """Sample mean of prod x_i^(e_i) over the sphere in R^n."""
    exponents = tuple(exponents)
    if len(exponents) != cfg.n:
        raise ValueError("exponent vector length differs from dimension")

    def values(lo, hi):
        x = sphere_batch(cfg.n, hi - lo, cfg.seed, start=lo)
        vals = np.ones(hi - lo, dtype=np.float64)
        for idx, e in enumerate(exponents):
            if e:
                vals = vals * x[:, idx] ** e
        return vals

    return _accumulate(cfg, values)
